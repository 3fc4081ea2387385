//! A lightweight Rust parser layered on [`crate::lexer`].
//!
//! This is deliberately *not* an AST: it recovers exactly the structure
//! the interprocedural passes (L6–L8) need and nothing more —
//!
//! * items: `impl`/`trait` regions with their owning type name, and every
//!   `fn` with its name, visibility, parameter types, return-type idents
//!   and body token range;
//! * per-token derived maps: delimiter matching, loop-nesting depth, the
//!   innermost enclosing block;
//! * per-function **events**: call expressions (with receiver/path hints
//!   for resolution), panic sites, allocation sites, and lock
//!   acquisitions with their held region.
//!
//! Like the lexer it is total: any token stream produces a (possibly
//! empty) parse, so a broken file degrades analysis instead of aborting
//! it.  Resolution of calls to workspace functions happens in
//! [`crate::graph`]; this module only records what each site looks like.

use crate::lexer::{lex, Lexed, TokKind};
use crate::rules::test_mask;
use std::collections::BTreeMap;

/// Maps a repo-relative path to the crate the interprocedural passes
/// analyze (`crates/{core,index,xml,obs}` only).
pub fn crate_of(rel: &str) -> Option<&'static str> {
    for (prefix, name) in [
        ("crates/core/src/", "xtk_core"),
        ("crates/index/src/", "xtk_index"),
        ("crates/xml/src/", "xtk_xml"),
        ("crates/obs/src/", "xtk_obs"),
    ] {
        if rel.starts_with(prefix) {
            return Some(name);
        }
    }
    None
}

/// One parsed function.
#[derive(Debug)]
pub struct FnDef {
    /// Bare name (`run`, `execute`).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`Engine`).
    pub owner: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` (`Executor`).
    pub trait_name: Option<String>,
    pub is_pub: bool,
    pub line: u32,
    /// Idents of the return type, in order (`["io", "Result", "QueryResponse"]`).
    pub ret: Vec<String>,
    /// Parameter and `let` binding types: name → type idents, last
    /// binding wins.
    pub locals: BTreeMap<String, Vec<String>>,
    /// Token range `(open_brace, close_brace)` of the body.
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]` — excluded from every pass.
    pub in_test: bool,
}

/// What a panic site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!`.
    Macro,
    /// `.unwrap()` / `.expect(...)`.
    Unwrap,
    /// Slice/array indexing `x[i]`.
    Index,
    /// `/` or `%` with a non-literal divisor, in a designated hot module.
    Div,
}

/// One body event, in token order.
#[derive(Debug)]
pub enum Event {
    /// A call expression.
    Call {
        /// Callee name (`run_in_memory`, `execute`).
        name: String,
        /// For method calls: the last receiver ident (`self`, `cache`).
        /// `None` with `method: true` means a chained call (`...).find(`)
        /// whose receiver has no simple name.
        recv: Option<String>,
        /// For path calls `Qual::name(...)`: the qualifier ident.
        qual: Option<String>,
        /// True for `.name(...)` method syntax.
        method: bool,
        /// Token index of the callee ident.
        pos: usize,
        line: u32,
    },
    /// A remaining (non-allowed) panic site.
    Panic { kind: PanicKind, line: u32 },
    /// An allocation site.
    Alloc {
        what: &'static str,
        line: u32,
        /// Loop nesting depth at the site (0 = straight-line code).
        depth: u32,
        /// `lint:allow(L8, …)` covers the line; `reason` is its text.
        allowed: bool,
        reason: Option<String>,
    },
    /// A lock acquisition with its held region `(pos, end]` in tokens.
    Acquire { lock: String, line: u32, pos: usize, end: usize },
}

/// One parsed source file plus the derived per-token maps.
pub struct ParsedFile {
    pub rel: String,
    pub krate: Option<&'static str>,
    pub src: String,
    pub lx: Lexed,
    pub fns: Vec<FnDef>,
    /// Declared lock fields/params: name → inner type (`shards` → `Shard`).
    pub lock_decls: BTreeMap<String, String>,
    /// All `name: Type` declarations seen: name → type idents.
    pub field_types: BTreeMap<String, Vec<String>>,
    /// Loop nesting depth per token.
    pub loop_depth: Vec<u32>,
    /// Matching close index per open-delimiter token.
    pub close: Vec<usize>,
    /// Close index of the innermost enclosing `{ }` per token.
    pub encl_block: Vec<usize>,
    masked: Vec<bool>,
}

const NO_MATCH: usize = usize::MAX;

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Std generic containers that make a poor lock identity: two
/// `Mutex<BTreeMap<…>>` fields are *different* locks.
fn is_std_container(s: &str) -> bool {
    matches!(
        s,
        "BTreeMap" | "BTreeSet" | "HashMap" | "HashSet" | "Vec" | "VecDeque" | "String"
            | "Option" | "Box" | "Arc"
    )
}

impl ParsedFile {
    pub fn kind(&self, i: usize) -> Option<TokKind> {
        self.lx.tokens.get(i).map(|t| t.kind)
    }

    pub fn text(&self, i: usize) -> &str {
        self.lx.text(&self.src, i)
    }

    pub fn line(&self, i: usize) -> u32 {
        self.lx.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Ident text at `i`, or `None` for any other token kind.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.kind(i) {
            Some(TokKind::Ident) => Some(self.text(i)),
            _ => None,
        }
    }

    /// True when token `i` is inside a `#[cfg(test)]` / `#[test]` item.
    pub fn is_masked(&self, i: usize) -> bool {
        self.masked.get(i).copied().unwrap_or(false)
    }
}

/// Parses one file: items, signatures, declarations and derived maps.
/// Events are built separately by [`events`] once workspace-global lock
/// tables exist.
pub fn parse(rel: &str, src: String) -> ParsedFile {
    let lx = lex(&src);
    let masked = test_mask(&src, &lx);
    let n = lx.tokens.len();
    let mut pf = ParsedFile {
        rel: rel.to_string(),
        krate: crate_of(rel),
        close: vec![NO_MATCH; n],
        encl_block: vec![NO_MATCH; n],
        loop_depth: vec![0; n],
        src,
        lx,
        fns: Vec::new(),
        lock_decls: BTreeMap::new(),
        field_types: BTreeMap::new(),
        masked,
    };
    build_maps(&mut pf);
    let owners = owner_regions(&pf);
    collect_decls(&mut pf);
    collect_fns(&mut pf, &owners);
    pf
}

/// Fills `close`, `encl_block` and `loop_depth` in one pass.
fn build_maps(pf: &mut ParsedFile) {
    let n = pf.lx.tokens.len();
    // Delimiter matching.
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..n {
        match pf.kind(i) {
            Some(TokKind::Delim(b'(' | b'[' | b'{')) => stack.push(i),
            Some(TokKind::Delim(b')' | b']' | b'}')) => {
                if let Some(open) = stack.pop() {
                    if let Some(slot) = pf.close.get_mut(open) {
                        *slot = i;
                    }
                }
            }
            _ => {}
        }
    }
    // Enclosing block + loop depth: a `for`/`while`/`loop` ident arms the
    // next `{` at the same or deeper position to raise the loop depth.
    let mut blocks: Vec<(usize, bool)> = Vec::new(); // (close_idx, is_loop)
    let mut depth = 0u32;
    let mut armed = false;
    for i in 0..n {
        match pf.kind(i) {
            Some(TokKind::Ident) => {
                if matches!(pf.text(i), "for" | "while" | "loop") {
                    armed = true;
                }
            }
            Some(TokKind::Delim(b'{')) => {
                let close = pf.close.get(i).copied().unwrap_or(NO_MATCH);
                blocks.push((close, armed));
                if armed {
                    depth += 1;
                }
                armed = false;
            }
            Some(TokKind::Delim(b'}')) => {
                if let Some((_, was_loop)) = blocks.pop() {
                    if was_loop {
                        depth = depth.saturating_sub(1);
                    }
                }
            }
            Some(TokKind::Punct(b';')) => armed = false,
            _ => {}
        }
        if let Some(slot) = pf.loop_depth.get_mut(i) {
            *slot = depth;
        }
        if let Some(slot) = pf.encl_block.get_mut(i) {
            *slot = blocks.last().map(|&(c, _)| c).unwrap_or(NO_MATCH);
        }
    }
}

/// An `impl`/`trait` body region with its owning type name.
struct OwnerRegion {
    open: usize,
    close: usize,
    owner: String,
    trait_name: Option<String>,
}

/// Finds every `impl`/`trait` body and the type it attaches functions to.
fn owner_regions(pf: &ParsedFile) -> Vec<OwnerRegion> {
    let n = pf.lx.tokens.len();
    let mut out = Vec::new();
    for i in 0..n {
        let head = match pf.ident(i) {
            Some("impl") => "impl",
            Some("trait") => "trait",
            _ => continue,
        };
        // `trait` must be a declaration, not `dyn Trait` / `impl Trait`
        // in type position: require the previous token to not be `dyn`.
        if head == "trait" && pf.ident(i + 1).is_none() {
            continue;
        }
        // Scan the header to the body `{`, tracking angle depth.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut after_for: Vec<usize> = Vec::new(); // idents at angle depth 0 after `for`
        let mut base: Vec<usize> = Vec::new(); // idents at angle depth 0
        let mut saw_for = false;
        let mut open = NO_MATCH;
        let mut steps = 0;
        while steps < 300 {
            match pf.kind(j) {
                Some(TokKind::Punct(b'<')) => angle += 1,
                Some(TokKind::Punct(b'>')) => angle -= 1,
                Some(TokKind::Delim(b'{')) if angle <= 0 => {
                    open = j;
                    break;
                }
                Some(TokKind::Punct(b';')) | None => break,
                Some(TokKind::Ident) if angle <= 0 => match pf.text(j) {
                    "for" => saw_for = true,
                    "where" => break,
                    t if is_keyword(t) => {}
                    _ => {
                        if saw_for {
                            after_for.push(j);
                        } else {
                            base.push(j);
                        }
                    }
                },
                _ => {}
            }
            j += 1;
            steps += 1;
        }
        // The where clause may still precede the `{`.
        if open == NO_MATCH {
            let mut k = j;
            let mut steps = 0;
            while steps < 300 {
                match pf.kind(k) {
                    Some(TokKind::Delim(b'{')) => {
                        open = k;
                        break;
                    }
                    Some(TokKind::Punct(b';')) | None => break,
                    _ => {}
                }
                k += 1;
                steps += 1;
            }
        }
        let Some(close) = (open != NO_MATCH)
            .then(|| pf.close.get(open).copied().unwrap_or(NO_MATCH))
            .filter(|&c| c != NO_MATCH)
        else {
            continue;
        };
        // `impl Trait for Type` — the owner is the type after `for`, and
        // the last base path segment names the trait.  Otherwise the last
        // base ident is the owner.
        let (owner_idx, trait_idx) = if head == "impl" && saw_for {
            (after_for.last().copied(), base.last().copied())
        } else {
            (base.last().copied(), None)
        };
        // For `trait Foo`, the *first* ident is the name (supertraits
        // follow a `:`), so prefer it.
        let owner_idx = if head == "trait" { base.first().copied() } else { owner_idx };
        let Some(owner_idx) = owner_idx else { continue };
        out.push(OwnerRegion {
            open,
            close,
            owner: pf.text(owner_idx).to_string(),
            trait_name: trait_idx.map(|t| pf.text(t).to_string()),
        });
    }
    out
}

/// Type names whose `<Inner>` argument is a lock identity: the std locks
/// and `xtk_index::cache::Sharded`, the mutex-shard set every cache locks
/// through (`.lock(hash)` for one shard, `.lock_all()` for each in turn).
fn is_lock_type(t: &str) -> bool {
    matches!(t, "Mutex" | "RwLock" | "Sharded")
}

/// Harvests `name: Type` declarations file-wide: the lock table (types
/// containing `Mutex<…>`/`RwLock<…>`/`Sharded<…>`) and the broader
/// field-type map used for receiver resolution.
fn collect_decls(pf: &mut ParsedFile) {
    let n = pf.lx.tokens.len();
    let mut lock_decls = BTreeMap::new();
    let mut field_types: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for i in 0..n {
        let Some(name) = pf.ident(i) else { continue };
        if is_keyword(name) || pf.kind(i + 1) != Some(TokKind::Punct(b':')) {
            continue;
        }
        let mut idents: Vec<String> = Vec::new();
        let mut lock_inner: Option<String> = None;
        let mut angle = 0i32;
        let mut j = i + 2;
        let mut steps = 0;
        while steps < 40 {
            match pf.kind(j) {
                Some(TokKind::Punct(b'<')) => angle += 1,
                Some(TokKind::Punct(b'>')) => angle -= 1,
                Some(TokKind::Punct(b',' | b';' | b'=')) | Some(TokKind::Delim(_))
                    if angle <= 0 =>
                {
                    break
                }
                Some(TokKind::Ident) => {
                    let t = pf.text(j);
                    if !is_keyword(t) {
                        // A lock type in *type position* is `Mutex<Inner>` —
                        // the `<` right after distinguishes it from the
                        // constructor call `Mutex::new(…)`.
                        if is_lock_type(t)
                            && pf.kind(j + 1) == Some(TokKind::Punct(b'<'))
                        {
                            if let Some(inner) = pf.ident(j + 2) {
                                lock_inner = Some(inner.to_string());
                            }
                        }
                        idents.push(t.to_string());
                    }
                }
                None => break,
                _ => {}
            }
            j += 1;
            steps += 1;
        }
        if let Some(inner) = lock_inner {
            // A single-char inner is a type parameter (`fn lock<T>(m:
            // &Mutex<T>)`): the helper itself acquires nothing concrete —
            // call sites resolve the real lock through the arguments.  A
            // std-container inner (`Mutex<BTreeMap<…>>`) would alias every
            // such field to one identity, so use the field name instead.
            if inner.chars().count() > 1 {
                let identity = if is_std_container(&inner) { name.to_string() } else { inner };
                lock_decls.entry(name.to_string()).or_insert(identity);
            }
        }
        if !idents.is_empty() {
            field_types.entry(name.to_string()).or_insert(idents);
        }
    }
    pf.lock_decls = lock_decls;
    pf.field_types = field_types;
}

/// Collects every `fn` (including nested and trait-declared ones).
fn collect_fns(pf: &mut ParsedFile, owners: &[OwnerRegion]) {
    let n = pf.lx.tokens.len();
    let mut fns = Vec::new();
    for i in 0..n {
        if pf.ident(i) != Some("fn") {
            continue;
        }
        let Some(name) = pf.ident(i + 1).filter(|t| !is_keyword(t)) else { continue };
        let name = name.to_string();
        // Innermost enclosing impl/trait region.
        let region = owners
            .iter()
            .filter(|r| r.open < i && i < r.close)
            .min_by_key(|r| r.close - r.open);
        let mut j = i + 2;
        // Generics.
        if pf.kind(j) == Some(TokKind::Punct(b'<')) {
            let mut angle = 0i32;
            let mut steps = 0;
            while steps < 200 {
                match pf.kind(j) {
                    Some(TokKind::Punct(b'<')) => angle += 1,
                    Some(TokKind::Punct(b'>')) => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    None => break,
                    _ => {}
                }
                j += 1;
                steps += 1;
            }
        }
        if pf.kind(j) != Some(TokKind::Delim(b'(')) {
            continue;
        }
        let params_close = pf.close.get(j).copied().unwrap_or(NO_MATCH);
        if params_close == NO_MATCH {
            continue;
        }
        let mut locals = BTreeMap::new();
        parse_params(pf, j + 1, params_close, &mut locals);
        // Return type.
        let mut ret: Vec<String> = Vec::new();
        let mut k = params_close + 1;
        if pf.kind(k) == Some(TokKind::Op2([b'-', b'>'])) {
            k += 1;
            let mut depth = 0i32;
            let mut steps = 0;
            while steps < 120 {
                match pf.kind(k) {
                    Some(TokKind::Delim(b'{')) if depth == 0 => break,
                    Some(TokKind::Punct(b';')) if depth == 0 => break,
                    Some(TokKind::Delim(b'(' | b'[')) => depth += 1,
                    Some(TokKind::Delim(b')' | b']')) => depth -= 1,
                    Some(TokKind::Ident) => {
                        let t = pf.text(k);
                        if t == "where" && depth == 0 {
                            break;
                        }
                        if !is_keyword(t) {
                            ret.push(t.to_string());
                        }
                    }
                    None => break,
                    _ => {}
                }
                k += 1;
                steps += 1;
            }
        }
        // Body: the next `{` before a `;` (skipping the where clause).
        let mut body = None;
        let mut steps = 0;
        while steps < 200 {
            match pf.kind(k) {
                Some(TokKind::Delim(b'{')) => {
                    let close = pf.close.get(k).copied().unwrap_or(NO_MATCH);
                    if close != NO_MATCH {
                        body = Some((k, close));
                    }
                    break;
                }
                Some(TokKind::Punct(b';')) | None => break,
                _ => {}
            }
            k += 1;
            steps += 1;
        }
        if let Some((open, close)) = body {
            collect_lets(pf, open + 1, close, &mut locals);
        }
        fns.push(FnDef {
            is_pub: is_pub_before(pf, i),
            line: pf.line(i + 1),
            owner: region.map(|r| r.owner.clone()),
            trait_name: region.and_then(|r| r.trait_name.clone()),
            name,
            ret,
            locals,
            body,
            in_test: pf.is_masked(i),
        });
    }
    pf.fns = fns;
}

/// `pub` (possibly `pub(crate)`) looking back from the `fn` keyword over
/// `const`/`async`/`unsafe`/`extern "abi"` qualifiers.
fn is_pub_before(pf: &ParsedFile, fn_idx: usize) -> bool {
    let mut i = fn_idx;
    let mut steps = 0;
    while i > 0 && steps < 8 {
        i -= 1;
        steps += 1;
        match pf.kind(i) {
            Some(TokKind::Ident) => match pf.text(i) {
                "pub" => return true,
                "const" | "async" | "unsafe" | "extern" | "crate" | "super" | "in" | "self" => {}
                _ => return false,
            },
            Some(TokKind::Delim(b'(' | b')')) | Some(TokKind::StrLike) => {}
            _ => return false,
        }
    }
    false
}

/// Parses `name: Type` parameters between `open..close` into `locals`.
fn parse_params(pf: &ParsedFile, open: usize, close: usize, locals: &mut BTreeMap<String, Vec<String>>) {
    let mut i = open;
    while i < close {
        // One parameter: up to the next top-level comma.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut colon = None;
        let mut end = close;
        let mut j = i;
        while j < close {
            match pf.kind(j) {
                Some(TokKind::Delim(b'(' | b'[' | b'{')) => depth += 1,
                Some(TokKind::Delim(b')' | b']' | b'}')) => depth -= 1,
                Some(TokKind::Punct(b'<')) => angle += 1,
                Some(TokKind::Punct(b'>')) => angle -= 1,
                Some(TokKind::Punct(b':')) if depth == 0 && angle == 0 && colon.is_none() => {
                    colon = Some(j);
                }
                Some(TokKind::Punct(b',')) if depth == 0 && angle <= 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(c) = colon {
            let name = (i..c).rev().find_map(|k| pf.ident(k).filter(|t| !is_keyword(t)));
            if let Some(name) = name {
                let tys: Vec<String> = (c + 1..end)
                    .filter_map(|k| pf.ident(k).filter(|t| !is_keyword(t)).map(str::to_string))
                    .collect();
                if !tys.is_empty() {
                    locals.insert(name.to_string(), tys);
                }
            }
        }
        i = end + 1;
    }
}

/// Records `let [mut] name: Type = …` and `let [mut] name = Type::…`
/// bindings inside a body.
fn collect_lets(pf: &ParsedFile, open: usize, close: usize, locals: &mut BTreeMap<String, Vec<String>>) {
    for i in open..close {
        if pf.ident(i) != Some("let") {
            continue;
        }
        let mut j = i + 1;
        if pf.ident(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = pf.ident(j).filter(|t| !is_keyword(t)) else { continue };
        match pf.kind(j + 1) {
            Some(TokKind::Punct(b':')) => {
                let mut tys = Vec::new();
                let mut k = j + 2;
                let mut angle = 0i32;
                let mut steps = 0;
                while steps < 40 {
                    match pf.kind(k) {
                        Some(TokKind::Punct(b'<')) => angle += 1,
                        Some(TokKind::Punct(b'>')) => angle -= 1,
                        Some(TokKind::Punct(b'=' | b';')) if angle <= 0 => break,
                        Some(TokKind::Ident) => {
                            let t = pf.text(k);
                            if !is_keyword(t) {
                                tys.push(t.to_string());
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    k += 1;
                    steps += 1;
                }
                if !tys.is_empty() {
                    locals.insert(name.to_string(), tys);
                }
            }
            Some(TokKind::Punct(b'=')) => {
                // `let x = Type::new(…)` — a constructor path names the type.
                if let Some(t) = pf.ident(j + 2).filter(|t| !is_keyword(t)) {
                    if pf.kind(j + 3) == Some(TokKind::Op2([b':', b':'])) {
                        locals.insert(name.to_string(), vec![t.to_string()]);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Workspace-global context needed to classify body events.
pub struct EventCtx<'a> {
    /// Lock name → inner type, merged across all files.
    pub lock_decls: &'a BTreeMap<String, String>,
    /// Guard-returning fn name → inner type (`lock_shard` → `Shard`).
    pub guard_fns: &'a BTreeMap<String, String>,
    /// This file is a designated hot module (division counts as a panic
    /// site).
    pub hot: bool,
}

/// Builds the event stream for function `fi` of `pf`, skipping any nested
/// function bodies (they get their own event streams).
pub fn events(pf: &ParsedFile, fi: usize, ctx: &EventCtx) -> Vec<Event> {
    let Some(f) = pf.fns.get(fi) else { return Vec::new() };
    let Some((open, close)) = f.body else { return Vec::new() };
    // Nested fn body ranges to skip.
    let nested: Vec<(usize, usize)> = pf
        .fns
        .iter()
        .filter_map(|g| g.body)
        .filter(|&(o, c)| o > open && c < close)
        .collect();
    let base_depth = pf.loop_depth.get(open).copied().unwrap_or(0);
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, c)) = nested.iter().find(|&&(o, c)| o <= i && i <= c) {
            i = c + 1;
            continue;
        }
        if pf.is_masked(i) {
            i += 1;
            continue;
        }
        scan_token(pf, f, ctx, base_depth, i, close, &mut out);
        i += 1;
    }
    out
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];
const ALLOC_MACROS: &[(&str, &str)] = &[("format", "format!"), ("vec", "vec![…]")];

fn scan_token(
    pf: &ParsedFile,
    f: &FnDef,
    ctx: &EventCtx,
    base_depth: u32,
    i: usize,
    body_close: usize,
    out: &mut Vec<Event>,
) {
    let line = pf.line(i);
    let depth = pf.loop_depth.get(i).copied().unwrap_or(0).saturating_sub(base_depth);
    match pf.kind(i) {
        Some(TokKind::Ident) => {
            let t = pf.text(i);
            if is_keyword(t) {
                return;
            }
            // Macros: panic family and allocating family.
            if pf.kind(i + 1) == Some(TokKind::Punct(b'!')) {
                if PANIC_MACROS.contains(&t) && !pf.lx.allowed(line, "panic") {
                    out.push(Event::Panic { kind: PanicKind::Macro, line });
                }
                if let Some(&(_, what)) = ALLOC_MACROS.iter().find(|&&(m, _)| m == t) {
                    let allow = pf.lx.allow_for(line, "L8");
                    out.push(Event::Alloc {
                        what,
                        line,
                        depth,
                        allowed: allow.is_some(),
                        reason: allow.and_then(|a| a.reason.clone()),
                    });
                }
                return;
            }
            let is_method = i > 0 && pf.kind(i - 1) == Some(TokKind::Punct(b'.'));
            let called = pf.kind(i + 1) == Some(TokKind::Delim(b'('))
                || (pf.kind(i + 1) == Some(TokKind::Op2([b':', b':']))
                    && is_method
                    && pf.kind(i + 2) == Some(TokKind::Punct(b'<')));
            if !called {
                return;
            }
            if is_method {
                if (t == "unwrap" || t == "expect") && !pf.lx.allowed(line, "panic") {
                    out.push(Event::Panic { kind: PanicKind::Unwrap, line });
                    return;
                }
                if t == "to_vec" || t == "collect" {
                    let allow = pf.lx.allow_for(line, "L8");
                    out.push(Event::Alloc {
                        what: if t == "to_vec" { ".to_vec()" } else { ".collect()" },
                        line,
                        depth,
                        allowed: allow.is_some(),
                        reason: allow.and_then(|a| a.reason.clone()),
                    });
                    return;
                }
                let recv = pf.ident(i.saturating_sub(2)).map(str::to_string);
                // A lock acquisition: `.lock()` / `.lock_all()` /
                // `.read()` / `.write()` on a receiver whose declared
                // type is a lock.
                if matches!(t, "lock" | "lock_all" | "read" | "write") {
                    if let Some(inner) = recv.as_deref().and_then(|r| lock_inner(pf, f, ctx, r)) {
                        let end = held_region_end(pf, i, body_close);
                        out.push(Event::Acquire { lock: inner, line, pos: i, end });
                        return;
                    }
                }
                out.push(Event::Call {
                    name: t.to_string(),
                    recv,
                    qual: None,
                    method: true,
                    pos: i,
                    line,
                });
            } else {
                // Skip definitions (`fn name(`) and struct-ish heads.
                if pf.ident(i.saturating_sub(1)) == Some("fn") {
                    return;
                }
                let qual = (i >= 2
                    && pf.kind(i - 1) == Some(TokKind::Op2([b':', b':'])))
                .then(|| pf.ident(i.saturating_sub(2)))
                .flatten()
                .map(str::to_string);
                // Allocation constructors: `Vec::new()`.
                if t == "new" && qual.as_deref() == Some("Vec") {
                    let allow = pf.lx.allow_for(line, "L8");
                    out.push(Event::Alloc {
                        what: "Vec::new()",
                        line,
                        depth,
                        allowed: allow.is_some(),
                        reason: allow.and_then(|a| a.reason.clone()),
                    });
                    return;
                }
                // Guard-returning helper: acquiring call.
                if let Some(inner) = guard_call_inner(pf, f, ctx, i, t) {
                    let end = held_region_end(pf, i, body_close);
                    out.push(Event::Acquire { lock: inner, line, pos: i, end });
                }
                out.push(Event::Call {
                    name: t.to_string(),
                    recv: None,
                    qual,
                    method: false,
                    pos: i,
                    line,
                });
            }
        }
        Some(TokKind::Delim(b'[')) if i > 0 => {
            let indexes = match pf.kind(i - 1) {
                Some(TokKind::Delim(b')' | b']')) => true,
                Some(TokKind::Ident) => !is_keyword(pf.text(i - 1)),
                _ => false,
            };
            if indexes && !pf.lx.allowed(line, "index") {
                out.push(Event::Panic { kind: PanicKind::Index, line });
            }
        }
        Some(TokKind::Punct(b'/' | b'%')) if ctx.hot => {
            // Division by a non-literal divisor can panic on zero.  A
            // literal nonzero divisor cannot; neither can `/` in paths
            // (none exist post-lexing).
            let safe_literal = match pf.kind(i + 1) {
                Some(TokKind::Num { .. }) => pf.text(i + 1).chars().any(|c| c != '0' && c.is_ascii_digit()),
                _ => false,
            };
            if !safe_literal && !pf.lx.allowed(line, "div") {
                out.push(Event::Panic { kind: PanicKind::Div, line });
            }
        }
        _ => {}
    }
}

/// Resolves the receiver of `.lock()/.read()/.write()` to a lock's inner
/// type via the fn's own bindings, then the workspace lock table.
fn lock_inner(pf: &ParsedFile, f: &FnDef, ctx: &EventCtx, recv: &str) -> Option<String> {
    if let Some(tys) = f.locals.get(recv) {
        if let Some(p) = tys.iter().position(|t| is_lock_type(t)) {
            // Same identity normalization as `collect_decls`: skip bare
            // type parameters, name std-container inners after the binding.
            return match tys.get(p + 1) {
                Some(inner) if inner.chars().count() <= 1 => None,
                Some(inner) if is_std_container(inner) => Some(recv.to_string()),
                Some(inner) => Some(inner.clone()),
                None => None,
            };
        }
    }
    if let Some(inner) = pf.lock_decls.get(recv) {
        return Some(inner.clone());
    }
    ctx.lock_decls.get(recv).cloned()
}

/// A free call to a guard-returning helper acquires that helper's lock.
/// Generic helpers (`MutexGuard<'_, T>`) are resolved through the call's
/// argument idents against the lock table.
fn guard_call_inner(
    pf: &ParsedFile,
    f: &FnDef,
    ctx: &EventCtx,
    i: usize,
    name: &str,
) -> Option<String> {
    let declared = ctx.guard_fns.get(name)?;
    // Concrete inner type (more than one char => not a bare generic).
    if declared.chars().count() > 1 {
        return Some(declared.clone());
    }
    // Generic: scan the argument tokens for a known lock name.  File-local
    // declarations win over the merged workspace table — field names like
    // `inner` repeat across crates with different lock identities.
    let open = i + 1;
    let close = pf.close.get(open).copied().filter(|&c| c != NO_MATCH)?;
    for global in [false, true] {
        for k in open + 1..close {
            let Some(arg) = pf.ident(k) else { continue };
            let hit = if global {
                lock_inner(pf, f, ctx, arg)
            } else {
                f.locals
                    .get(arg)
                    .and_then(|tys| {
                        tys.iter()
                            .position(|t| is_lock_type(t))
                            .and_then(|p| tys.get(p + 1))
                            .filter(|inner| inner.chars().count() > 1)
                            .map(|inner| {
                                if is_std_container(inner) {
                                    arg.to_string()
                                } else {
                                    inner.clone()
                                }
                            })
                    })
                    .or_else(|| pf.lock_decls.get(arg).cloned())
            };
            if let Some(inner) = hit {
                return Some(inner);
            }
        }
    }
    // Unresolvable generic: better to drop the acquisition than to invent
    // a `T` identity that aliases every generic helper in the workspace.
    None
}

/// Where an acquisition stops being held: bound guards (`let g = …` or an
/// assignment) live to the end of the enclosing block, temporaries to the
/// end of their statement.
fn held_region_end(pf: &ParsedFile, i: usize, body_close: usize) -> usize {
    // Walk back over the receiver chain to the expression head.
    let mut head = i;
    let mut k = i;
    let mut steps = 0;
    while k > 0 && steps < 40 {
        k -= 1;
        steps += 1;
        match pf.kind(k) {
            Some(TokKind::Punct(b'.')) | Some(TokKind::Op2([b':', b':'])) => {}
            Some(TokKind::Ident) if !is_keyword(pf.text(k)) || pf.text(k) == "self" => head = k,
            Some(TokKind::Punct(b'&')) => head = k,
            _ => break,
        }
    }
    let bound = head > 0 && pf.kind(head - 1) == Some(TokKind::Punct(b'='));
    if bound {
        return pf.encl_block.get(i).copied().unwrap_or(body_close).min(body_close);
    }
    // Temporary: next `;` at delimiter depth 0 relative to here.
    let mut depth = 0i32;
    let mut j = i;
    while j < body_close {
        match pf.kind(j) {
            Some(TokKind::Delim(b'(' | b'[' | b'{')) => depth += 1,
            Some(TokKind::Delim(b')' | b']' | b'}')) => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            Some(TokKind::Punct(b';')) if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    body_close
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_s(rel: &str, src: &str) -> ParsedFile {
        parse(rel, src.to_string())
    }

    fn fn_named<'a>(pf: &'a ParsedFile, name: &str) -> &'a FnDef {
        pf.fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn crate_mapping() {
        assert_eq!(crate_of("crates/core/src/engine.rs"), Some("xtk_core"));
        assert_eq!(crate_of("crates/obs/src/trace.rs"), Some("xtk_obs"));
        assert_eq!(crate_of("crates/lint/src/lexer.rs"), None);
        assert_eq!(crate_of("src/main.rs"), None);
    }

    #[test]
    fn fn_signatures_and_owners() {
        let src = r#"
            pub struct Engine { ix: u32 }
            impl Engine {
                pub fn run(&self, q: &Query, req: &QueryRequest) -> QueryResponse {
                    run_in_memory(self.ix, q, req)
                }
                fn helper(&self) {}
            }
            impl Executor for Engine {
                fn execute(&self, q: &Query) -> io::Result<QueryResponse> {
                    Ok(self.run(q, &Default::default()))
                }
            }
            pub fn free(x: usize) -> usize { x }
        "#;
        let pf = parse_s("crates/core/src/engine.rs", src);
        let run = fn_named(&pf, "run");
        assert!(run.is_pub);
        assert_eq!(run.owner.as_deref(), Some("Engine"));
        assert_eq!(run.trait_name, None);
        assert_eq!(run.ret, vec!["QueryResponse"]);
        assert_eq!(run.locals.get("q"), Some(&vec!["Query".to_string()]));
        let exec = fn_named(&pf, "execute");
        assert_eq!(exec.owner.as_deref(), Some("Engine"));
        assert_eq!(exec.trait_name.as_deref(), Some("Executor"));
        assert_eq!(exec.ret, vec!["io", "Result", "QueryResponse"]);
        assert!(!exec.is_pub);
        let free = fn_named(&pf, "free");
        assert!(free.is_pub && free.owner.is_none());
    }

    #[test]
    fn trait_decl_and_generics() {
        let src = r#"
            pub trait Executor {
                fn execute(&self, q: &Query) -> io::Result<QueryResponse>;
                fn generation(&self) -> u64 { 0 }
            }
            impl<E: Executor + ?Sized> Executor for &E {
                fn execute(&self, q: &Query) -> io::Result<QueryResponse> {
                    (**self).execute(q)
                }
            }
            pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
            where
                F: Fn(usize, &I) -> O,
            {
                Vec::new()
            }
        "#;
        let pf = parse_s("crates/xml/src/pool.rs", src);
        let decls: Vec<_> = pf.fns.iter().filter(|f| f.name == "execute").collect();
        assert_eq!(decls.len(), 2);
        assert_eq!(decls.first().map(|f| f.owner.as_deref()), Some(Some("Executor")));
        assert!(decls.first().is_some_and(|f| f.body.is_none()), "trait decl has no body");
        let gen = fn_named(&pf, "generation");
        assert!(gen.body.is_some(), "default trait method has a body");
        let pm = fn_named(&pf, "parallel_map");
        assert!(pm.body.is_some(), "where clause precedes the body");
        assert_eq!(pm.ret, vec!["Vec", "O"]);
    }

    #[test]
    fn loop_depths_and_events() {
        let src = r#"
            pub fn hot(xs: &[u32]) -> Vec<u32> {
                let mut out = Vec::new();
                for x in xs {
                    let v = format!("{x}");
                    let w: Vec<u32> = xs.iter().copied().collect();
                    out.extend(w);
                    helper(*x);
                }
                out
            }
            fn helper(x: u32) {}
        "#;
        let pf = parse_s("crates/core/src/topk.rs", src);
        let ctx = EventCtx {
            lock_decls: &BTreeMap::new(),
            guard_fns: &BTreeMap::new(),
            hot: false,
        };
        let fi = pf.fns.iter().position(|f| f.name == "hot").expect("hot");
        let evs = events(&pf, fi, &ctx);
        let allocs: Vec<(&str, u32)> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Alloc { what, depth, .. } => Some((*what, *depth)),
                _ => None,
            })
            .collect();
        assert!(allocs.contains(&("Vec::new()", 0)), "{allocs:?}");
        assert!(allocs.contains(&("format!", 1)), "{allocs:?}");
        assert!(allocs.contains(&(".collect()", 1)), "{allocs:?}");
        let calls: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Call { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&"helper"), "{calls:?}");
    }

    #[test]
    fn lock_acquisition_and_regions() {
        let src = r#"
            pub struct Cache {
                shards: Vec<Mutex<Shard>>,
                inner: Mutex<CacheInner>,
                memo: Sharded<Lru<u64, Entry>>,
            }
            fn lock_shard<'a>(m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
                m.lock().unwrap_or_else(|p| p.into_inner())
            }
            impl Cache {
                fn get(&self, key: u64) -> u64 {
                    let mut shard = lock_shard(self.pick(key));
                    shard.touch(key);
                    key
                }
                fn quick(&self) -> usize {
                    lock_shard(self.pick(0)).len();
                    0
                }
                fn sharded(&self, fp: u64) -> usize {
                    let one = self.memo.lock(fp).len();
                    one + self.memo.lock_all().map(|shard| shard.len()).sum()
                }
            }
        "#;
        let pf = parse_s("crates/index/src/cache.rs", src);
        assert_eq!(pf.lock_decls.get("shards"), Some(&"Shard".to_string()));
        assert_eq!(pf.lock_decls.get("inner"), Some(&"CacheInner".to_string()));
        assert_eq!(pf.lock_decls.get("memo"), Some(&"Lru".to_string()));
        let mut guard_fns = BTreeMap::new();
        guard_fns.insert("lock_shard".to_string(), "Shard".to_string());
        let ctx = EventCtx { lock_decls: &pf.lock_decls.clone(), guard_fns: &guard_fns, hot: false };
        // Direct `.lock()` inside the helper resolves through the param type.
        let hi = pf.fns.iter().position(|f| f.name == "lock_shard").expect("helper");
        let hevs = events(&pf, hi, &ctx);
        assert!(
            hevs.iter().any(|e| matches!(e, Event::Acquire { lock, .. } if lock == "Shard")),
            "direct .lock() resolved"
        );
        // Bound guard: held to end of block; temporary: held to its statement.
        let gi = pf.fns.iter().position(|f| f.name == "get").expect("get");
        let gevs = events(&pf, gi, &ctx);
        let bound = gevs.iter().find_map(|e| match e {
            Event::Acquire { lock, pos, end, .. } if lock == "Shard" => Some((*pos, *end)),
            _ => None,
        });
        let (pos, end) = bound.expect("guard acquire");
        let body_close = pf.fns.get(gi).and_then(|f| f.body).map(|(_, c)| c).unwrap_or(0);
        assert_eq!(end, body_close, "bound guard lives to the block end");
        assert!(pos < end);
        let qi = pf.fns.iter().position(|f| f.name == "quick").expect("quick");
        let qevs = events(&pf, qi, &ctx);
        let temp = qevs.iter().find_map(|e| match e {
            Event::Acquire { pos, end, .. } => Some((*pos, *end)),
            _ => None,
        });
        let (pos, end) = temp.expect("temp acquire");
        let qclose = pf.fns.get(qi).and_then(|f| f.body).map(|(_, c)| c).unwrap_or(0);
        assert!(end < qclose, "temporary guard ends at its statement");
        assert!(pos < end);
        // The shard set: `.lock(hash)` and `.lock_all()` both acquire the
        // identity declared inside `Sharded<…>`.
        let si = pf.fns.iter().position(|f| f.name == "sharded").expect("sharded");
        let acquired = events(&pf, si, &ctx)
            .iter()
            .filter(|e| matches!(e, Event::Acquire { lock, .. } if lock == "Lru"))
            .count();
        assert_eq!(acquired, 2);
    }

    #[test]
    fn panic_sites_and_div_in_hot_modules() {
        let src = r#"
            pub fn f(v: &[u32], o: Option<u32>, n: usize) -> u32 {
                let a = o.unwrap();
                let b = v[0];
                let c = v.len() / n;
                let d = v.len() / 2;
                if n == 0 { panic!("zero"); }
                a + b + (c + d) as u32
            }
        "#;
        let pf = parse_s("crates/core/src/joinbased.rs", src);
        let ctx = EventCtx { lock_decls: &BTreeMap::new(), guard_fns: &BTreeMap::new(), hot: true };
        let evs = events(&pf, 0, &ctx);
        let kinds: Vec<PanicKind> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Panic { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&PanicKind::Unwrap), "{kinds:?}");
        assert!(kinds.contains(&PanicKind::Index), "{kinds:?}");
        assert!(kinds.contains(&PanicKind::Macro), "{kinds:?}");
        assert_eq!(kinds.iter().filter(|&&k| k == PanicKind::Div).count(), 1, "literal divisor is safe");
        // The same file in a cold module reports no Div sites.
        let cold = EventCtx { lock_decls: &BTreeMap::new(), guard_fns: &BTreeMap::new(), hot: false };
        let evs = events(&pf, 0, &cold);
        assert!(evs.iter().all(|e| !matches!(e, Event::Panic { kind: PanicKind::Div, .. })));
    }

    #[test]
    fn nested_fns_do_not_leak_events() {
        let src = r#"
            pub fn outer() -> u32 {
                fn inner(o: Option<u32>) -> u32 { o.unwrap() }
                inner(Some(1))
            }
        "#;
        let pf = parse_s("crates/core/src/engine.rs", src);
        let ctx = EventCtx { lock_decls: &BTreeMap::new(), guard_fns: &BTreeMap::new(), hot: false };
        let oi = pf.fns.iter().position(|f| f.name == "outer").expect("outer");
        let oevs = events(&pf, oi, &ctx);
        assert!(
            oevs.iter().all(|e| !matches!(e, Event::Panic { .. })),
            "inner fn's unwrap stays out of outer's events"
        );
        let ii = pf.fns.iter().position(|f| f.name == "inner").expect("inner");
        let ievs = events(&pf, ii, &ctx);
        assert!(ievs.iter().any(|e| matches!(e, Event::Panic { kind: PanicKind::Unwrap, .. })));
    }

    #[test]
    fn test_items_are_skipped() {
        let src = r#"
            pub fn lib_fn() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                fn t(o: Option<u32>) -> u32 { o.unwrap() }
            }
        "#;
        let pf = parse_s("crates/core/src/engine.rs", src);
        let t = fn_named(&pf, "t");
        assert!(t.in_test);
        assert!(!fn_named(&pf, "lib_fn").in_test);
    }
}
