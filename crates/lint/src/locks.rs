//! L7 — lock-order analysis.
//!
//! Harvests every `Mutex`/`RwLock`/`Sharded` acquisition site (the block,
//! plan and result caches, pool queues), builds the *lock-order
//! graph* — an edge `A → B` whenever `B` is acquired (directly or via a
//! call) while a guard for `A` is still live — and hard-fails on:
//!
//! * a cycle in the lock-order graph (potential deadlock between two
//!   threads acquiring in opposite orders), and
//! * a lock held across a thread-pool submit (`parallel_map`), which
//!   serializes the fan-out and deadlocks if a worker needs the lock.
//!
//! There is no ratchet for L7: the graph must be acyclic, always.

use crate::graph::Workspace;
use crate::parser::Event;
use std::collections::{BTreeMap, BTreeSet};

/// One lock-order edge with provenance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock held (inner-type identity, e.g. `Shard`, `Lru`).
    pub held: String,
    /// Lock acquired while `held` is live.
    pub acquired: String,
    /// `file:line` of the acquisition that creates the edge.
    pub site: String,
    /// Qualified fn containing the held guard.
    pub in_fn: String,
}

/// A lock held across a `parallel_map` submit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeldAcrossPool {
    pub lock: String,
    pub site: String,
    pub in_fn: String,
}

/// The full L7 result.
pub struct LockReport {
    /// All distinct lock identities seen, sorted.
    pub locks: Vec<String>,
    /// Lock-order edges, sorted and deduplicated.
    pub edges: Vec<LockEdge>,
    /// Cycles found (each as the lock sequence closing the loop).
    pub cycles: Vec<Vec<String>>,
    pub held_across_pool: Vec<HeldAcrossPool>,
}

/// Runs L7 over the workspace.
pub fn analyze(ws: &Workspace) -> LockReport {
    let trans = ws.transitive_locks();
    let pool = ws.reaches_pool();

    let mut locks: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    let mut held_across_pool: BTreeSet<HeldAcrossPool> = BTreeSet::new();

    for info in &ws.fns {
        let file = ws
            .files
            .get(info.file)
            .map(|pf| pf.rel.as_str())
            .unwrap_or("?");
        // Collect this fn's acquisitions with their held regions.  A
        // statement like `let g = recover(self.m.lock())` emits two
        // Acquire events for the same lock — one for `.lock()`, one for
        // the guard-returning wrapper — so acquisitions of the same lock
        // on the same line merge into one region (earliest start, widest
        // end) before any edges are drawn.
        let mut acquires: Vec<(String, u32, usize, usize)> = Vec::new();
        for ev in &info.events {
            let Event::Acquire { lock, line, pos, end } = ev else { continue };
            match acquires.iter_mut().find(|(l, ln, ..)| l == lock && ln == line) {
                Some(slot) => {
                    slot.2 = slot.2.min(*pos);
                    slot.3 = slot.3.max(*end);
                }
                None => acquires.push((lock.clone(), *line, *pos, *end)),
            }
        }
        for (lock, ..) in &acquires {
            locks.insert(lock.clone());
        }
        for &(ref held, _line, pos, end) in &acquires {
            // Later events inside [pos, end) happen while `held` is live.
            for &(ref lock, line, p2, _) in &acquires {
                if p2 > pos && p2 < end {
                    edges.insert(LockEdge {
                        held: held.clone(),
                        acquired: lock.clone(),
                        site: format!("{file}:{line}"),
                        in_fn: info.qual.clone(),
                    });
                }
            }
            for ev in &info.events {
                if let Event::Call { name, pos: p2, line, .. } = ev {
                    if *p2 <= pos || *p2 >= end {
                        continue;
                    }
                    // A call made while holding `held`: everything the
                    // callee transitively locks is ordered after
                    // `held`, and a callee that reaches the pool is a
                    // held-across-submit violation.
                    for callee in resolve_event_callees(ws, info, name, *p2) {
                        if let Some(set) = trans.get(callee) {
                            for acq in set {
                                edges.insert(LockEdge {
                                    held: held.clone(),
                                    acquired: acq.clone(),
                                    site: format!("{file}:{line}"),
                                    in_fn: info.qual.clone(),
                                });
                            }
                        }
                        let is_pool = ws
                            .fn_def(callee)
                            .is_some_and(|f| f.name == "parallel_map")
                            || pool.get(callee).copied().unwrap_or(false);
                        if is_pool {
                            held_across_pool.insert(HeldAcrossPool {
                                lock: held.clone(),
                                site: format!("{file}:{line}"),
                                in_fn: info.qual.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    let edges: Vec<LockEdge> = edges.into_iter().collect();
    let cycles = find_cycles(&locks, &edges);
    LockReport {
        locks: locks.into_iter().collect(),
        edges,
        cycles,
        held_across_pool: held_across_pool.into_iter().collect(),
    }
}

/// Resolves the callees of one call event of `info` by matching the
/// resolved edge list against the event name (the graph stores resolved
/// edges per fn; we re-filter by name so an unrelated callee of the same
/// fn does not inherit this event's position).
fn resolve_event_callees(
    ws: &Workspace,
    info: &crate::graph::FnInfo,
    name: &str,
    _pos: usize,
) -> Vec<crate::graph::FnId> {
    info.calls
        .iter()
        .copied()
        .filter(|&c| ws.fn_def(c).is_some_and(|f| f.name == name))
        .collect()
}

/// DFS cycle detection over the lock-order graph; returns each cycle as
/// the sequence of locks that closes it.
fn find_cycles(locks: &BTreeSet<String>, edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        if e.held != e.acquired {
            adj.entry(e.held.as_str()).or_default().insert(e.acquired.as_str());
        }
    }
    // Self-edges (re-acquiring the same lock while held) are reported as
    // one-element cycles: with std Mutex that is an immediate deadlock.
    let mut cycles: Vec<Vec<String>> = edges
        .iter()
        .filter(|e| e.held == e.acquired)
        .map(|e| vec![e.held.clone()])
        .collect();

    let mut done: BTreeSet<&str> = BTreeSet::new();
    for start in locks.iter().map(String::as_str) {
        if done.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut path: Vec<&str> = vec![start];
        let mut iters: Vec<Vec<&str>> = vec![adj
            .get(start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()];
        while let Some(next_set) = iters.last_mut() {
            match next_set.pop() {
                Some(n) => {
                    if let Some(i) = path.iter().position(|&p| p == n) {
                        let mut cyc: Vec<String> =
                            path.get(i..).unwrap_or_default().iter().map(|s| s.to_string()).collect();
                        cyc.push(n.to_string());
                        cycles.push(cyc);
                    } else if !done.contains(n) {
                        path.push(n);
                        iters.push(
                            adj.get(n).map(|s| s.iter().copied().collect()).unwrap_or_default(),
                        );
                    }
                }
                None => {
                    if let Some(fin) = path.pop() {
                        done.insert(fin);
                    }
                    iters.pop();
                }
            }
        }
    }
    cycles.sort();
    cycles.dedup();
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;
    use crate::parser;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files.iter().map(|(rel, src)| parser::parse(rel, src.to_string())).collect(),
        )
    }

    #[test]
    fn acyclic_workspace_is_clean() {
        let w = ws(&[(
            "crates/index/src/cache.rs",
            r#"
            pub struct Cache { inner: Mutex<Inner> }
            impl Cache {
                pub fn get(&self) -> u32 { let g = self.inner.lock(); 1 }
                pub fn put(&self) -> u32 { let g = self.inner.lock(); 2 }
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.locks, vec!["Inner".to_string()]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert!(r.cycles.is_empty());
        assert!(r.held_across_pool.is_empty());
    }

    #[test]
    fn nested_direct_acquisition_makes_an_edge() {
        let w = ws(&[(
            "crates/core/src/m.rs",
            r#"
            pub struct S { a: Mutex<LockA>, b: Mutex<LockB> }
            impl S {
                pub fn ab(&self) -> u32 {
                    let ga = self.a.lock();
                    let gb = self.b.lock();
                    0
                }
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.edges.len(), 1);
        let e = r.edges.first().expect("edge");
        assert_eq!((e.held.as_str(), e.acquired.as_str()), ("LockA", "LockB"));
        assert!(r.cycles.is_empty());
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let w = ws(&[(
            "crates/core/src/m.rs",
            r#"
            pub struct S { a: Mutex<LockA>, b: Mutex<LockB> }
            impl S {
                pub fn ab(&self) -> u32 { let ga = self.a.lock(); let gb = self.b.lock(); 0 }
                pub fn ba(&self) -> u32 { let gb = self.b.lock(); let ga = self.a.lock(); 0 }
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.cycles.len(), 1, "{:?}", r.cycles);
        let c = r.cycles.first().expect("cycle");
        assert!(c.len() >= 2);
    }

    #[test]
    fn transitive_acquisition_through_a_call_is_seen() {
        let w = ws(&[(
            "crates/core/src/m.rs",
            r#"
            pub struct S { a: Mutex<LockA>, b: Mutex<LockB> }
            impl S {
                pub fn outer(&self) -> u32 { let ga = self.a.lock(); self.take_b() }
                fn take_b(&self) -> u32 { let gb = self.b.lock(); 0 }
            }
            "#,
        )]);
        let r = analyze(&w);
        assert!(
            r.edges.iter().any(|e| e.held == "LockA" && e.acquired == "LockB"),
            "{:?}",
            r.edges
        );
    }

    #[test]
    fn self_reacquisition_is_a_cycle() {
        let w = ws(&[(
            "crates/core/src/m.rs",
            r#"
            pub struct S { a: Mutex<LockA> }
            impl S {
                pub fn outer(&self) -> u32 { let ga = self.a.lock(); self.again() }
                fn again(&self) -> u32 { let g = self.a.lock(); 0 }
            }
            "#,
        )]);
        let r = analyze(&w);
        assert_eq!(r.cycles, vec![vec!["LockA".to_string()]]);
    }

    #[test]
    fn lock_held_across_pool_submit_is_flagged() {
        let w = ws(&[
            (
                "crates/core/src/m.rs",
                r#"
                pub struct S { a: Mutex<LockA> }
                impl S {
                    pub fn bad(&self, xs: &[u32]) -> u32 {
                        let ga = self.a.lock();
                        parallel_map(xs)
                    }
                    pub fn good(&self, xs: &[u32]) -> u32 {
                        { let ga = self.a.lock(); }
                        parallel_map(xs)
                    }
                }
                "#,
            ),
            (
                "crates/core/src/pool.rs",
                "pub fn parallel_map(items: &[u32]) -> u32 { 0 }\n",
            ),
        ]);
        let r = analyze(&w);
        assert_eq!(r.held_across_pool.len(), 1, "{:?}", r.held_across_pool);
        let h = r.held_across_pool.first().expect("violation");
        assert_eq!(h.lock, "LockA");
        assert!(h.in_fn.ends_with("S::bad"));
    }

    #[test]
    fn temporary_guard_does_not_extend_past_statement() {
        let w = ws(&[
            (
                "crates/core/src/m.rs",
                r#"
                pub struct S { a: Mutex<LockA> }
                impl S {
                    pub fn ok(&self, xs: &[u32]) -> u32 {
                        self.a.lock().len();
                        parallel_map(xs)
                    }
                }
                "#,
            ),
            (
                "crates/core/src/pool.rs",
                "pub fn parallel_map(items: &[u32]) -> u32 { 0 }\n",
            ),
        ]);
        let r = analyze(&w);
        assert!(r.held_across_pool.is_empty(), "{:?}", r.held_across_pool);
    }
}
