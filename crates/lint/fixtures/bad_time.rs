// Fixture: wall-clock time.  Expected: disallowed_methods /
// disallowed_types in xtk-core, xtk-index and xtk-obs; nothing in a crate
// that may measure time.

pub fn elapsed_ms(work: impl FnOnce()) -> u128 {
    let t = std::time::Instant::now();
    work();
    t.elapsed().as_millis()
}
