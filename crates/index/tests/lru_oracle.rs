//! `Lru` against its own past: the stamp-ordered implementation it
//! replaced (PR 24) is the oracle of its victim order.  Random call
//! sequences through both must return the same values, hold the same
//! number of entries and give up their entries in the same order.

use std::collections::{BTreeMap, HashMap};
use xtk_index::cache::Lru;
use xtk_xml::testutil::prop_check;

/// Every use stamps the entry from a logical clock; the lowest stamp is
/// the victim.
#[derive(Default)]
struct StampedLru {
    map: HashMap<u64, (u32, u64)>,
    order: BTreeMap<u64, u64>,
    clock: u64,
}

impl StampedLru {
    fn peek(&self, key: u64) -> Option<u32> {
        self.map.get(&key).map(|&(value, _)| value)
    }

    fn get(&mut self, key: u64) -> Option<u32> {
        let value = self.peek(key)?;
        self.insert(key, value);
        Some(value)
    }

    fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        self.clock += 1;
        let old = self.map.insert(key, (value, self.clock));
        if let Some((_, stamp)) = old {
            self.order.remove(&stamp);
        }
        self.order.insert(self.clock, key);
        old.map(|(value, _)| value)
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let (value, stamp) = self.map.remove(&key)?;
        self.order.remove(&stamp);
        Some(value)
    }

    fn pop_oldest(&mut self, skip: impl Fn(&u64) -> bool) -> Option<(u64, u32)> {
        let key = *self.order.values().find(|key| !skip(key))?;
        self.remove(key).map(|value| (key, value))
    }
}

#[test]
fn linked_lru_matches_the_stamp_ordered_one() {
    prop_check(0x1B_0A, 300, |g| {
        let mut lru: Lru<u64, u32> = Lru::default();
        let mut oracle = StampedLru::default();
        // A small key universe: hits, replacements and re-inserts after a
        // removal (free slots reused) are the common case.
        let keys = 2 + g.size() as u64 / 4;
        for step in 0..8 * g.size() as u32 {
            let key = g.gen_range(0..keys);
            match g.gen_range(0..20u32) {
                0..=5 => assert_eq!(lru.get(&key).copied(), oracle.get(key), "get {key}"),
                6..=7 => assert_eq!(lru.peek(&key).copied(), oracle.peek(key), "peek {key}"),
                8..=13 => assert_eq!(lru.insert(key, step), oracle.insert(key, step), "insert {key}"),
                14..=15 => assert_eq!(lru.remove(&key), oracle.remove(key), "remove {key}"),
                16..=18 => {
                    // Hold back a random subset of the keys, as pins do.
                    let held = g.rng().next_u64();
                    let skip = |key: &u64| held >> (key % 64) & 1 == 1;
                    assert_eq!(lru.pop_oldest(skip), oracle.pop_oldest(skip), "pop_oldest");
                }
                _ => {
                    if g.gen_bool(0.1) {
                        lru.clear();
                        oracle = StampedLru { clock: oracle.clock, ..Default::default() };
                    }
                }
            }
            assert_eq!(lru.len(), oracle.map.len(), "len after step {step}");
            assert_eq!(lru.is_empty(), oracle.map.is_empty());
        }
        // What is left leaves in the same order.
        loop {
            let victim = lru.pop_oldest(|_| false);
            assert_eq!(victim, oracle.pop_oldest(|_| false), "victim sequence");
            if victim.is_none() {
                break;
            }
        }
    });
}
