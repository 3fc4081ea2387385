// Fixture: hash-order leakage in a query-execution crate — iteration order
// flows straight into the output vector.  Expected lints:
// iter_over_hash_type (the `for` loop) and disallowed_methods (`iter`,
// `keys`).

use std::collections::HashMap;

pub fn leak_order(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (key, value) in m.iter() {
        out.push(key + value);
    }
    out
}

pub fn leak_keys(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}
