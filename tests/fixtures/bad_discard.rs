// Fixture: a discarded `Result` in library code — the write's error is
// dropped on the floor.  Expected lint: let_underscore_must_use.

use std::fmt::Write as _;

pub fn render(out: &mut String, n: u32) {
    let _ = write!(out, "n={n}");
}
