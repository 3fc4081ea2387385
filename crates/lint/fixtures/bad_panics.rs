// Fixture: library code riddled with L1 violations.  Compiled as a module
// of a library crate by tests/fixtures.rs.  Expected lints: unwrap_used,
// expect_used, panic, todo, unimplemented, unreachable, indexing_slicing.

pub fn worst(v: &[u32], o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect("present");
    if v.is_empty() {
        panic!("empty input");
    }
    let c = v[0];
    match a + b + c {
        0 => unreachable!(),
        1 => unimplemented!(),
        n if n > 100 => todo!(),
        n => n,
    }
}
