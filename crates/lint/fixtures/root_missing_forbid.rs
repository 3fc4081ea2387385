//! Fixture: a crate root without `#![forbid(unsafe_code)]`.  The member
//! inherits the workspace lints, so unsafe code is still an error.
//! Expected lint: unsafe_code.

pub fn first(v: &[u32]) -> u32 {
    if v.is_empty() {
        return 0;
    }
    unsafe { *v.get_unchecked(0) }
}
