// Fixture: an `allow` on a wall-clock site in xtk-obs.  Expected: still an
// error — the crate root forbids both lints, so no `allow` can lift them.

#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub fn now_anyway() -> std::time::Instant {
    std::time::Instant::now()
}
