//! The workspace symbol table and call graph over
//! `crates/{core,index,xml,obs}`.
//!
//! Resolution is deliberately conservative (an unresolved method call
//! falls back to *every* workspace function with that name, minus a
//! blacklist of ubiquitous std container methods), so reachability is an
//! over-approximation: L6 can only over-count, never miss, and the
//! per-entry-point ratchet in `lint-baseline.json` keeps the
//! over-approximation from growing.

use crate::parser::{self, Event, ParsedFile, PanicKind};
use std::collections::{BTreeMap, BTreeSet};

/// Index of a function in [`Workspace::fns`].
pub type FnId = usize;

/// Hot modules: division is a panic site here (L6) and allocation inside
/// loops is forbidden here (L8, the `core` subset below).
pub const HOT_MODULES: &[&str] = &[
    "crates/core/src/joinbased.rs",
    "crates/core/src/diskexec.rs",
    "crates/core/src/eraser.rs",
    "crates/core/src/topk.rs",
    "crates/core/src/starjoin.rs",
    "crates/core/src/shard.rs",
    "crates/index/src/cache.rs",
    "crates/index/src/codec.rs",
    "crates/index/src/disk.rs",
    "crates/index/src/columnar.rs",
    "crates/index/src/diskcol.rs",
    "crates/xml/src/gallop.rs",
];

/// The subset of [`HOT_MODULES`] where L8 (allocation-in-loop) applies:
/// the one Algorithm-1 driver with its in-memory column source
/// (`joinbased`), the on-disk column source it reaches through the
/// `ColumnSource` bound (`diskexec`), the erased-row set both joins
/// query and batch-update per level (`eraser`), the column cursor with the
/// join step's lookup loop (`columnar`) and the windowed and galloping
/// searches every cursor runs on (`gallop`), the top-K star join, the
/// shard scatter/merge, the four block-decode modules — since the
/// arena rework, the cold decode path must allocate only through the
/// reused [`DecodeScratch`](../../index/src/codec.rs) buffers — and the
/// planner's cost/cache pair, which sits on the per-request serving
/// path: a plan-cache hit must stay allocation-free and the cost model
/// walks every term's level stats per plan, so any fresh allocation
/// inside a loop here needs a written reason.
pub const L8_MODULES: &[&str] = &[
    "crates/core/src/joinbased.rs",
    "crates/core/src/diskexec.rs",
    "crates/core/src/eraser.rs",
    "crates/core/src/topk.rs",
    "crates/core/src/starjoin.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/plan/cost.rs",
    "crates/core/src/plan/cache.rs",
    "crates/index/src/cache.rs",
    "crates/index/src/codec.rs",
    "crates/index/src/columnar.rs",
    "crates/index/src/disk.rs",
    "crates/index/src/diskcol.rs",
    "crates/xml/src/gallop.rs",
];

/// Ubiquitous method names that resolve to std containers in practice; a
/// bare-name fallback on these would wire the graph to every workspace
/// type that happens to share the name.
const BARE_METHOD_SKIP: &[&str] = &[
    "all", "and_then", "any", "as_bytes", "as_deref", "as_mut", "as_ref", "as_slice", "as_str",
    "binary_search", "chain", "checked_add", "checked_mul", "checked_sub", "clear", "clone",
    "cloned", "cmp", "collect", "compare_exchange", "contains", "contains_key", "copied", "count",
    "dedup", "default", "drain", "entry", "enumerate", "eq", "extend", "fetch_add", "fetch_or",
    "fetch_sub", "filter", "filter_map", "find", "find_map", "first", "flat_map", "flatten",
    "flush", "fold", "from", "get", "get_mut", "get_or_insert", "insert", "into", "into_iter",
    "is_empty", "is_none", "is_some", "is_some_and", "iter", "iter_mut", "join", "keys", "last",
    "len", "load", "lock", "map", "map_err", "max", "max_by", "max_by_key", "min", "min_by",
    "min_by_key", "new", "next", "ok_or", "ok_or_else", "open", "or_else", "or_insert",
    "or_insert_with", "partial_cmp", "peek", "pop", "position", "push", "push_str", "read",
    "read_exact", "recv", "remove", "resize", "rev", "reverse", "saturating_sub", "seek", "send",
    "skip", "sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by", "split",
    "starts_with", "store", "sum", "swap", "take", "then", "to_owned", "to_string", "touch", "trim",
    "truncate", "unwrap", "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values",
    "values_mut", "windows", "with_capacity", "wrapping_mul", "write", "zip",
];

/// One fully resolved function with its events and resolved call edges.
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `fns`.
    pub local: usize,
    /// `xtk_core::Engine::run` / `xtk_core::joinbased::join_search`.
    pub qual: String,
    pub events: Vec<Event>,
    /// Resolved callees, deduplicated and sorted.
    pub calls: Vec<FnId>,
    /// Direct (non-allowed) panic sites: `(kind, line)`.
    pub panics: Vec<(PanicKind, u32)>,
}

/// The analyzed workspace: parsed files, the symbol table and the call
/// graph with per-function transitive facts.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_owner: BTreeMap<(String, String), Vec<FnId>>,
}

impl Workspace {
    /// Builds the workspace model from every parsed file (files outside
    /// the analyzed crates are carried but contribute no functions).
    pub fn build(files: Vec<ParsedFile>) -> Workspace {
        // Global lock table and guard-returning helpers.
        let mut lock_decls: BTreeMap<String, String> = BTreeMap::new();
        let mut guard_fns: BTreeMap<String, String> = BTreeMap::new();
        for pf in files.iter().filter(|pf| pf.krate.is_some()) {
            for (name, inner) in &pf.lock_decls {
                lock_decls.entry(name.clone()).or_insert_with(|| inner.clone());
            }
            for f in pf.fns.iter().filter(|f| !f.in_test) {
                if let Some(p) = f.ret.iter().position(|t| {
                    matches!(t.as_str(), "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard")
                }) {
                    if let Some(inner) = f.ret.get(p + 1) {
                        guard_fns.entry(f.name.clone()).or_insert_with(|| inner.clone());
                    }
                }
            }
        }

        // Symbol table + events.
        let mut fns: Vec<FnInfo> = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        for (file_idx, pf) in files.iter().enumerate() {
            let Some(krate) = pf.krate else { continue };
            let hot = HOT_MODULES.contains(&pf.rel.as_str());
            let ctx = parser::EventCtx { lock_decls: &lock_decls, guard_fns: &guard_fns, hot };
            let module = pf
                .rel
                .rsplit('/')
                .next()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or("mod");
            for (local, f) in pf.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id = fns.len();
                let qual = match &f.owner {
                    Some(owner) => format!("{krate}::{owner}::{}", f.name),
                    None => format!("{krate}::{module}::{}", f.name),
                };
                let events = parser::events(pf, local, &ctx);
                let panics = events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Panic { kind, line } => Some((*kind, *line)),
                        _ => None,
                    })
                    .collect();
                by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(owner) = &f.owner {
                    by_owner.entry((owner.clone(), f.name.clone())).or_default().push(id);
                }
                if let Some(tr) = &f.trait_name {
                    by_owner.entry((tr.clone(), f.name.clone())).or_default().push(id);
                }
                fns.push(FnInfo { file: file_idx, local, qual, events, calls: Vec::new(), panics });
            }
        }

        let mut ws = Workspace { files, fns, by_name, by_owner };
        ws.resolve_calls();
        ws
    }

    fn def(&self, id: FnId) -> Option<(&ParsedFile, &parser::FnDef)> {
        let info = self.fns.get(id)?;
        let pf = self.files.get(info.file)?;
        let f = pf.fns.get(info.local)?;
        Some((pf, f))
    }

    /// The parsed definition behind a graph node.
    pub fn fn_def(&self, id: FnId) -> Option<&parser::FnDef> {
        self.def(id).map(|(_, f)| f)
    }

    /// Repo-relative file of a graph node.
    pub fn file_of(&self, id: FnId) -> &str {
        self.fns
            .get(id)
            .and_then(|i| self.files.get(i.file))
            .map(|pf| pf.rel.as_str())
            .unwrap_or("?")
    }

    /// Functions matching `(owner_or_trait, name)`.
    pub fn lookup_method(&self, owner: &str, name: &str) -> &[FnId] {
        self.by_owner.get(&(owner.to_string(), name.to_string())).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Functions matching a bare name.
    pub fn lookup_name(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn resolve_calls(&mut self) {
        let mut all_calls: Vec<Vec<FnId>> = Vec::with_capacity(self.fns.len());
        for id in 0..self.fns.len() {
            let mut callees: BTreeSet<FnId> = BTreeSet::new();
            let Some((pf, f)) = self.def(id) else {
                all_calls.push(Vec::new());
                continue;
            };
            let info = match self.fns.get(id) {
                Some(i) => i,
                None => {
                    all_calls.push(Vec::new());
                    continue;
                }
            };
            for ev in &info.events {
                let Event::Call { name, recv, qual, method, .. } = ev else { continue };
                if let Some(q) = qual {
                    // `Qual::name(...)`: the qualifier may be a type, a
                    // trait, `Self`, or a module path segment.  When it
                    // doesn't resolve it's usually a std type (`io::Error`,
                    // `Arc`, `Mutex`), so the bare-name fallback must skip
                    // ubiquitous names — `Error::new` linking to every
                    // workspace `new` would fuse the whole graph.
                    let owner = if q == "Self" {
                        f.owner.clone().unwrap_or_else(|| q.clone())
                    } else {
                        q.clone()
                    };
                    let hits = self.lookup_method(&owner, name);
                    if !hits.is_empty() {
                        callees.extend(hits.iter().copied());
                    } else if !BARE_METHOD_SKIP.contains(&name.as_str()) {
                        callees.extend(self.lookup_name(name).iter().copied());
                    }
                } else if *method {
                    // `recv.name(...)`: self, a typed binding, a known
                    // field, then the blacklisted bare-name fallback.
                    // Chained calls (`…).name(`) have no receiver ident and
                    // go straight to the guarded fallback.
                    let mut resolved = false;
                    if recv.as_deref() == Some("self") {
                        if let Some(owner) = &f.owner {
                            let hits = self.lookup_method(owner, name);
                            if !hits.is_empty() {
                                callees.extend(hits.iter().copied());
                                resolved = true;
                            }
                        }
                    }
                    if !resolved {
                        let tys = recv
                            .as_ref()
                            .and_then(|r| f.locals.get(r).or_else(|| pf.field_types.get(r)));
                        if let Some(tys) = tys {
                            for t in tys {
                                let hits = self.lookup_method(t, name);
                                if !hits.is_empty() {
                                    callees.extend(hits.iter().copied());
                                    resolved = true;
                                }
                            }
                        }
                    }
                    if !resolved && !BARE_METHOD_SKIP.contains(&name.as_str()) {
                        callees.extend(self.lookup_name(name).iter().copied());
                    }
                } else {
                    // Free call: exact-name resolution.
                    callees.extend(self.lookup_name(name).iter().copied());
                }
            }
            all_calls.push(callees.into_iter().collect());
        }
        for (info, calls) in self.fns.iter_mut().zip(all_calls) {
            info.calls = calls;
        }
    }

    /// All functions reachable from `entry` (inclusive), in BFS order,
    /// with the predecessor map for chain reconstruction.
    pub fn reachable(&self, entry: FnId) -> (Vec<FnId>, BTreeMap<FnId, FnId>) {
        let mut order = Vec::new();
        let mut pred: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(entry);
        queue.push_back(entry);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            let callees = self.fns.get(id).map(|i| i.calls.as_slice()).unwrap_or(&[]);
            for &c in callees {
                if seen.insert(c) {
                    pred.insert(c, id);
                    queue.push_back(c);
                }
            }
        }
        (order, pred)
    }

    /// The call chain `entry → … → target` as qualified names.
    pub fn chain(&self, pred: &BTreeMap<FnId, FnId>, entry: FnId, target: FnId) -> Vec<String> {
        let mut chain = vec![target];
        let mut cur = target;
        let mut steps = 0;
        while cur != entry && steps < 10_000 {
            match pred.get(&cur) {
                Some(&p) => {
                    chain.push(p);
                    cur = p;
                }
                None => break,
            }
            steps += 1;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&id| self.fns.get(id).map(|i| i.qual.clone()).unwrap_or_default())
            .collect()
    }

    /// Fixpoint: for every function, the set of lock ids acquired by it
    /// or anything it transitively calls.
    pub fn transitive_locks(&self) -> Vec<BTreeSet<String>> {
        let mut locks: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|i| {
                i.events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Acquire { lock, .. } => Some(lock.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..self.fns.len() {
                let callees = self.fns.get(id).map(|i| i.calls.clone()).unwrap_or_default();
                let mut add: Vec<String> = Vec::new();
                for c in callees {
                    if let Some(set) = locks.get(c) {
                        add.extend(set.iter().cloned());
                    }
                }
                if let Some(mine) = locks.get_mut(id) {
                    for l in add {
                        changed |= mine.insert(l);
                    }
                }
            }
            if !changed {
                return locks;
            }
        }
    }

    /// Fixpoint: can each function transitively reach the thread pool's
    /// submit point (`parallel_map`)?
    pub fn reaches_pool(&self) -> Vec<bool> {
        let mut reach: Vec<bool> = self
            .fns
            .iter()
            .map(|i| {
                self.def_name(i) == Some("parallel_map")
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..self.fns.len() {
                if reach.get(id).copied().unwrap_or(false) {
                    continue;
                }
                let callees = self.fns.get(id).map(|i| i.calls.as_slice()).unwrap_or(&[]);
                if callees.iter().any(|&c| reach.get(c).copied().unwrap_or(false)) {
                    if let Some(slot) = reach.get_mut(id) {
                        *slot = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                return reach;
            }
        }
    }

    fn def_name<'a>(&'a self, info: &'a FnInfo) -> Option<&'a str> {
        self.files
            .get(info.file)
            .and_then(|pf| pf.fns.get(info.local))
            .map(|f| f.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files.iter().map(|(rel, src)| parser::parse(rel, src.to_string())).collect(),
        )
    }

    fn id_of(ws: &Workspace, qual: &str) -> FnId {
        ws.fns.iter().position(|i| i.qual == qual).expect("fn in graph")
    }

    #[test]
    fn resolves_self_typed_and_free_calls() {
        let w = ws(&[(
            "crates/core/src/engine.rs",
            r#"
            pub struct Engine;
            impl Engine {
                pub fn run(&self, q: &Query) -> u32 { self.helper(q) + free_fn(1) }
                fn helper(&self, q: &Query) -> u32 { 0 }
            }
            pub fn free_fn(x: u32) -> u32 { x }
            "#,
        )]);
        let run = id_of(&w, "xtk_core::Engine::run");
        let helper = id_of(&w, "xtk_core::Engine::helper");
        let free = id_of(&w, "xtk_core::engine::free_fn");
        let calls = &w.fns.get(run).expect("run").calls;
        assert!(calls.contains(&helper), "{calls:?}");
        assert!(calls.contains(&free), "{calls:?}");
    }

    #[test]
    fn cross_file_and_typed_receiver_resolution() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                r#"
                pub fn driver(cache: &ResultCache) -> u32 { cache.lookup(1) }
                "#,
            ),
            (
                "crates/core/src/b.rs",
                r#"
                pub struct ResultCache;
                impl ResultCache {
                    pub fn lookup(&self, fp: u64) -> u32 { 0 }
                }
                "#,
            ),
        ]);
        let driver = id_of(&w, "xtk_core::a::driver");
        let lookup = id_of(&w, "xtk_core::ResultCache::lookup");
        assert!(w.fns.get(driver).expect("driver").calls.contains(&lookup));
    }

    #[test]
    fn blacklisted_bare_methods_do_not_link() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                "pub fn f(m: &Foo) -> u32 { m.bar.get(0) }\n",
            ),
            (
                "crates/index/src/cache.rs",
                r#"
                pub struct ShardedLruCache;
                impl ShardedLruCache {
                    pub fn get(&self, key: u64) -> u64 { key }
                }
                "#,
            ),
        ]);
        let f = id_of(&w, "xtk_core::a::f");
        assert!(w.fns.get(f).expect("f").calls.is_empty(), "bare `get` must not link");
    }

    #[test]
    fn trait_name_resolution_links_impls() {
        let w = ws(&[(
            "crates/core/src/x.rs",
            r#"
            pub trait Executor { fn execute(&self) -> u32; }
            pub struct A;
            impl Executor for A { fn execute(&self) -> u32 { 1 } }
            pub fn drive(e: &dyn Executor) -> u32 { e.execute() }
            "#,
        )]);
        let drive = id_of(&w, "xtk_core::x::drive");
        let exec_a = w
            .fns
            .iter()
            .position(|i| i.qual == "xtk_core::A::execute")
            .expect("impl fn");
        assert!(w.fns.get(drive).expect("drive").calls.contains(&exec_a));
    }

    #[test]
    fn reachability_and_chains() {
        let w = ws(&[(
            "crates/core/src/c.rs",
            r#"
            pub fn entry(o: Option<u32>) -> u32 { mid(o) }
            fn mid(o: Option<u32>) -> u32 { deep(o) }
            fn deep(o: Option<u32>) -> u32 { o.unwrap() }
            pub fn clean(x: u32) -> u32 { x + 1 }
            "#,
        )]);
        let entry = id_of(&w, "xtk_core::c::entry");
        let deep = id_of(&w, "xtk_core::c::deep");
        let (order, pred) = w.reachable(entry);
        assert!(order.contains(&deep));
        let chain = w.chain(&pred, entry, deep);
        assert_eq!(
            chain,
            vec!["xtk_core::c::entry", "xtk_core::c::mid", "xtk_core::c::deep"]
        );
        let clean = id_of(&w, "xtk_core::c::clean");
        let (corder, _) = w.reachable(clean);
        assert_eq!(corder, vec![clean]);
        let panics: usize = order
            .iter()
            .map(|&id| w.fns.get(id).map(|i| i.panics.len()).unwrap_or(0))
            .sum();
        assert_eq!(panics, 1);
    }

    #[test]
    fn transitive_locks_and_pool_fixpoints() {
        let w = ws(&[
            (
                "crates/index/src/cache.rs",
                r#"
                pub struct Cache { inner: Mutex<Inner> }
                impl Cache {
                    pub fn get(&self) -> u32 { let g = self.inner.lock(); 1 }
                }
                "#,
            ),
            (
                "crates/core/src/d.rs",
                r#"
                pub fn uses_cache(c: &Cache) -> u32 { c.get() }
                pub fn fans_out(xs: &[u32]) -> u32 { parallel_map(xs); 0 }
                pub fn calls_fan(xs: &[u32]) -> u32 { fans_out(xs) }
                "#,
            ),
            (
                "crates/core/src/pool.rs",
                "pub fn parallel_map(items: &[u32]) -> u32 { 0 }\n",
            ),
        ]);
        let locks = w.transitive_locks();
        let uses = id_of(&w, "xtk_core::d::uses_cache");
        assert!(locks.get(uses).is_some_and(|s| s.contains("Inner")), "lock flows to caller");
        let pool = w.reaches_pool();
        let calls_fan = id_of(&w, "xtk_core::d::calls_fan");
        assert!(pool.get(calls_fan).copied().unwrap_or(false));
        let get = id_of(&w, "xtk_index::Cache::get");
        assert!(!pool.get(get).copied().unwrap_or(true));
    }
}
