// Fixture: hash iteration made deterministic — sorted before use, or
// consumed by an order-independent aggregate, each with its reason.
// Expected: no findings.

use std::collections::{HashMap, HashSet};

pub fn ordered_keys(m: &HashMap<u32, u32>) -> Vec<u32> {
    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

#[expect(clippy::disallowed_methods, reason = "a sum does not depend on order")]
pub fn total(m: &HashMap<u32, u32>) -> u64 {
    m.values().map(|&v| u64::from(v)).sum()
}

#[expect(clippy::disallowed_methods, reason = "a count does not depend on order")]
pub fn positives(s: &HashSet<i32>) -> usize {
    s.iter().filter(|&&x| x > 0).count()
}
