#!/bin/sh
# Tier-1 gate, fully offline: release build, grep gates, workspace tests,
# clippy.  Run from the repo root.  Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")"

# Captured output goes to files of this run alone, so two concurrent runs
# never read each other's.
tier1_out=$(mktemp)
trap 'rm -f "$tier1_out"' EXIT

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== one mechanism per static rule: rustc and clippy lints, the debug lock-rank check"
# Each rule of DESIGN.md section 7 has one mechanism: L1-L6 and L9 are
# rustc/clippy lints, L7 is the lock ranks of xtk_obs::locks (checked in
# debug builds), L8 has none.  The in-tree checker that ran L6-L9 as a
# second mechanism is gone; its crate, its JSON files or its suppression
# comments coming back means a second answer to the same question.
for path in crates/lint lint-baseline.json lint-report.json; do
    if [ -e "$path" ]; then
        echo "ERROR: $path is back" >&2; exit 1
    fi
done
if grep -rn 'lint[:]allow(' --include='*.rs' crates src tests examples >&2; then
    echo "ERROR: a suppression comment of the retired checker is back (lines above)" >&2; exit 1
fi

echo "== temp-path hygiene: no bare temp_dir() outside xtk_xml::testutil"
# Tests and bins that need the filesystem go through
# testutil::TempPath (unique per call, removed on drop); image-based ones
# through write_index_to + open_bytes and touch no file.
if grep -rn "temp_dir()" --include='*.rs' crates src examples tests \
    | grep -v "^crates/xml/src/testutil.rs:" >&2; then
    echo "ERROR: bare temp_dir() sites — use xtk_xml::testutil::TempPath" >&2; exit 1
fi

echo "== the baselines live in xtk-baselines: the serving crates keep none of their structures"
# RDIL and the index-based algorithm run from crates/baselines, over the
# subtree sizes and score orders its BaselineIndex derives on demand; the
# serving index keeps no Dewey ids, subtree sizes or RDIL permutation.
# Table I's size accounting (index/src/sizes.rs) derives the Dewey ids it
# prices, once per run.  Any of these names under the two serving crates
# means a baseline, or a structure only a baseline reads, came back.
if grep -rnw -e score_rows -e subtree_size -e rdil -e indexed_search \
        --include='*.rs' crates/core/src crates/index/src >&2; then
    echo "ERROR: a baseline name is back under crates/core/src + crates/index/src" >&2; exit 1
fi
if grep -rnw DeweyIndex --include='*.rs' crates/core/src crates/index/src \
        | grep -v "^crates/index/src/sizes.rs:" >&2; then
    echo "ERROR: DeweyIndex under crates/core/src + crates/index/src outside sizes.rs" >&2; exit 1
fi

echo "== one LRU: one recency order, one poison-recovering lock helper"
# Every cache (block, plan, result) sits on xtk_index::cache::Lru behind
# Sharded, and every mutex of the library crates is taken through
# xtk_obs::locks, the only place a poisoned guard is recovered.  Lru keeps
# recency in a linked slot arena; a second `struct Lru` or a
# `BTreeMap<u64, _>` stamp order in the two crates that hold caches means
# a cache grew its own again, and a second `into_inner()` under any
# crate's sources a second lock helper.
expect_sites() {
    sites=$(grep -rnF "$3" --include='*.rs' $2 | wc -l)
    [ "$sites" -eq "$1" ] || {
        echo "ERROR: $sites sites of '$3' under $2, expected $1:" >&2
        grep -rnF "$3" --include='*.rs' $2 >&2
        exit 1; }
}
expect_sites 1 'crates/index/src crates/core/src' 'struct Lru'
expect_sites 0 'crates/index/src crates/core/src' 'BTreeMap<u64,'
expect_sites 1 'crates/*/src' 'into_inner()'

echo "== one block directory: one parse, no format without row counts"
# What a directory entry is and which files are valid is decided by
# disk::parse_directory alone — the store's open goes through it — and
# format v1 (entries without row count and last value) is gone with the
# structures that mirrored its directory.  A second "block offset" read
# means a second parser; any of the three names means a v1 path or the
# SparseIndex clone came back.
sites=$(grep -rnF '"block offset"' --include='*.rs' crates/index/src crates/core/src | wc -l)
[ "$sites" -eq 1 ] || {
    echo "ERROR: $sites parse sites of \"block offset\" under crates/index/src + crates/core/src, expected 1:" >&2
    grep -rnF '"block offset"' --include='*.rs' crates/index/src crates/core/src >&2
    exit 1; }
for name in MAGIC_V1 has_footers SparseIndex; do
    if grep -rnw "$name" --include='*.rs' crates/index/src crates/core/src >&2; then
        echo "ERROR: $name is back under crates/index/src + crates/core/src" >&2; exit 1
    fi
done

echo "== one on-disk format: one block layout, encoder, decoder, magic and reader"
# xtk-index writes and reads the bit-packed layout with short lists inline
# (file version 5), and DiskColumnStore is its one reader.  The varint
# layout, its magic and the eager reader that decoded whole files are
# gone; any of these names under the source trees means a second format
# or reader came back, and a version-4 magic one more.
if grep -rnw -e MAGIC_V2 -e BlockLayout -e decode_block_varint -e encode_column_packed \
        -e read_index -e read_index_bytes -e PersistedIndex -e 'FormatVersion::V2' \
        --include='*.rs' crates src tests examples >&2; then
    echo "ERROR: a second on-disk format or reader is back (lines above)" >&2; exit 1
fi
if grep -rniE '0x5854_?4B04' --include='*.rs' crates src tests examples >&2; then
    echo "ERROR: a version-4 magic is back (lines above): the writer writes version 5" >&2; exit 1
fi
# A term's lists go inline by one threshold, a constant of the format: one
# definition, and no write option, flag or environment variable that
# would let two files of one version differ in it.  An inline record has
# one decoder (disk::InlineWalk, fed by parse_directory's one read of its
# length): a second read of either field means a second parser.
expect_sites 1 'crates/*/src' 'const INLINE_MAX_POSTINGS'
options=$(sed -n '/pub struct WriteIndexOptions/,/^}/p' crates/index/src/disk.rs)
[ -n "$options" ] || { echo "ERROR: WriteIndexOptions not found in crates/index/src/disk.rs" >&2; exit 1; }
if printf '%s\n' "$options" | grep -ni inline >&2; then
    echo "ERROR: WriteIndexOptions names the inline threshold (lines above)" >&2; exit 1
fi
expect_sites 1 'crates/index/src crates/core/src' '"inline record length"'
expect_sites 1 'crates/index/src crates/core/src' '"inline shared count"'

echo "== a sharded request is one pass over the corpus store: no shard index, no ranges"
# write_sharded_with writes the one corpus store and nothing else, and
# ShardedEngine answers with one Algorithm-1 pass over it from level 2
# down (DESIGN §11).  A shard index, its score stamping, its subforest or
# a per-shard store writer under a crate's sources means per-shard stores
# came back; a document range, its row window, the TA stop between
# ranges, its trace events or the EXPLAIN merge node means the ranges did.
if grep -rnw -e build_shard_index -e override_scores -e subforest -e write_slice_to \
        --include='*.rs' crates/*/src >&2; then
    echo "ERROR: a per-shard index build or store is back under crates/*/src (lines above)" >&2; exit 1
fi
if grep -rnw -e DocRange -e with_pruning -e ShardScatter -e ShardGather -e ShardStop \
        -e ExecMerge -e LogicalMerge --include='*.rs' crates/*/src >&2 \
    || grep -rnF -e 'fn window(' -e 'pub struct Slice' --include='*.rs' crates/*/src >&2; then
    echo "ERROR: document ranges or their TA merge are back under crates/*/src (lines above)" >&2; exit 1
fi
# shard_dir_name names the v1/v2 per-shard directories; it stays public
# for callers outside the workspace, and its definition is its one site.
dirs=$(grep -rnw shard_dir_name --include='*.rs' crates/*/src || true)
if [ "$(printf '%s\n' "$dirs" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$dirs" | grep -q "pub fn shard_dir_name"; then
    printf '%s\n' "$dirs" >&2
    echo "ERROR: shard_dir_name must have exactly one site under crates/*/src: its definition" >&2; exit 1
fi

echo "== one arena per index: per-term, per-level structures live in flat arrays"
# XmlIndex keeps every term's postings, scores, runs, segment rows, row
# directories and histograms in a few CSR arrays (index/src/terms.rs), the
# disk store one flat block directory for the whole file, and PlanStats one
# LevelStats array on the index's column offsets.  Any of these shapes under
# the two serving crates means a Vec per term or per level came back.
# `Column`, `Segment` and `ColumnDirectory` are borrowed views now, so the
# match takes them with or without a lifetime.  One list of views stays
# allowed: a top-K query's cursors resolve one term's segments once per
# query (`Vec<Segment<'a>>` in core/src/topk.rs).
if grep -rnE "Vec<(Column|Segment|ColumnDirectory)(<|>)|Vec<Option<Histogram>>|HashMap<String, Vec<|Vec<Vec<LevelStats>>" \
        --include='*.rs' crates/index/src crates/core/src \
        | grep -v "^crates/core/src/topk.rs:[0-9]*: .*Vec<Segment<'a>>" >&2; then
    echo "ERROR: a Vec per term or per level is back under crates/index/src + crates/core/src" >&2; exit 1
fi

echo "== one row -> number lookup per column: the row directory or the plain search"
# The top-K drain reads a retrieved row's JDewey number through the
# column's RowDirectory, or by Column::value_of_row where the column is too
# short to carry one.  The hinted search between the two is gone; its name
# coming back means a third way to answer the same question.
if grep -rn "value_of_row_hinted" --include='*.rs' crates >&2; then
    echo "ERROR: value_of_row_hinted is back under crates/" >&2; exit 1
fi

echo "== one thread per query, one pool caller: the batch workers"
# Intra-query parallelism was measured on perfbench's op lists and deleted
# (DESIGN §6): a request runs on the thread that calls it, a sharded one
# included, and the index builds on one thread.  The batch executor is
# the pool's one caller; a second file calling parallel_map( means a
# build, a scatter or a query phase grew threads again.
if grep -rnE 'PAR_JOIN_MIN|PAR_MATCH_MIN|phase_chunks|pool\.(join|match|refill)_' crates >&2; then
    echo "ERROR: an intra-query pool name is back under crates/" >&2; exit 1
fi
pool_callers=$(grep -rlF 'parallel_map(' --include='*.rs' crates/*/src \
    | grep -v '^crates/core/src/pool.rs$' | sort | tr '\n' ' ')
[ "$pool_callers" = "crates/core/src/batch.rs " ] || {
    echo "ERROR: parallel_map( is called from: $pool_callers" >&2
    echo "       expected exactly crates/core/src/batch.rs" >&2
    exit 1; }
# The parallel build, the threaded scatter and the pool's hardware-thread
# setting are gone; any of their names back means a second fork came back.
if grep -rnE -e 'chunk_ranges|SCATTER_WAVE|PASS3_TASK|ChunkTokens' \
        -e 'Parallelism::Auto|fn with_parallelism' --include='*.rs' crates/*/src >&2; then
    echo "ERROR: a deleted parallel fork is back under crates/*/src (lines above)" >&2; exit 1
fi
# The pool hands results back through join handles; a channel in it means
# the per-item send and wake-up are back.
if grep -n mpsc crates/core/src/pool.rs >&2; then
    echo "ERROR: crates/core/src/pool.rs mentions mpsc" >&2; exit 1
fi

echo "== one pipeline per request: no rule switches, no strawman disk paths, no batch pins"
# Every request is planned by all three rewrite rules, a disk join step
# always skips blocks by their footers and its driver always reads whole,
# and a batch executes what it must without warming or pinning blocks
# first.  Any of these names under a crate's sources means a per-request
# switch, a whole-sequence prescan or the prefetch/pin pass came back.
if grep -rnw -e RuleSet -e with_rules -e DiskJoinSpec -e prescan -e block_skip \
        -e prefetch_term -e unpin_term -e pinned_blocks -e BatchPrefetch \
        --include='*.rs' crates/*/src >&2; then
    echo "ERROR: a per-request switch or the batch pin pass is back under crates/*/src (lines above)" >&2; exit 1
fi
if grep -rnF 'fn begin(' --include='*.rs' crates/*/src >&2; then
    echo "ERROR: a ColumnSource pre-pass (fn begin) is back under crates/*/src (lines above)" >&2; exit 1
fi
if grep -nF '"rules"' crates/core/src/plan/parse.rs >&2; then
    echo "ERROR: a rules= knob is back in crates/core/src/plan/parse.rs (lines above)" >&2; exit 1
fi

echo "== one top-K stop: Algorithm 1 holds the level bound, no executor a copy"
# A request cut at k stops climbing inside algorithm1 (core/src/joinbased.rs)
# once no shallower result can enter the k kept, by the one level bound
# over the segment heads (DESIGN "Algorithm 1 with a top-K stop").  A
# second definition, or segment maxima read by an executor that runs the
# driver, means a second stop rule that the exactness tests do not see.
expect_sites 1 'crates/*/src' 'fn level_bound('
if grep -nw -e max_score -e segment_heads crates/core/src/diskexec.rs crates/core/src/shard.rs \
        crates/core/src/hybrid.rs crates/core/src/batch.rs crates/core/src/plan/*.rs >&2; then
    echo "ERROR: an executor reads segment maxima (lines above): the stop lives in algorithm1" >&2; exit 1
fi

echo "== one erased-row test in the star join: a bitmap, and a bucket that outlives the query"
# The top-K stream tests erasure by its per-keyword erased-row bitmap
# (core/src/rowbits.rs); Algorithm 1's interval Eraser stays out of its hot
# loop.  The bucket's table and the stream's buffers come from topk.rs's one
# per-thread scratch, so Bucket::new builds no HashMap and the core crate's
# sources declare exactly one thread-local.  Either name in topk.rs outside
# its tests means a second erasure test is back in the loop.
topk_lib=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/topk.rs)
if printf '%s\n' "$topk_lib" | grep -nE 'Eraser|is_erased\(' >&2; then
    echo "ERROR: crates/core/src/topk.rs tests erasure outside its bitmap (lines above)" >&2; exit 1
fi
bucket_new=$(sed -n '/^    pub fn new(k: usize) -> Self {/,/^    }/p' crates/core/src/starjoin.rs)
[ -n "$bucket_new" ] || { echo "ERROR: Bucket::new not found in crates/core/src/starjoin.rs" >&2; exit 1; }
if printf '%s\n' "$bucket_new" | grep -nE 'HashMap::(default|new)\(' >&2; then
    echo "ERROR: Bucket::new builds a HashMap (line above): its table is reused, not rebuilt" >&2; exit 1
fi
expect_sites 1 'crates/core/src' 'thread_local!'

echo "== one timing authority: crates/bench keeps experiments and counter goldens only"
# Wall time is measured by perfbench alone.  crates/bench holds the figure
# generator (`experiments`) and tests/goldens.rs, whose goldens are counts
# that tier-1 checks exactly.  Another bin, a bench target or a clock under
# its tests means a second timing harness, or a timed golden, came back.
bins=$(ls crates/bench/src/bin)
[ "$bins" = "experiments.rs" ] || {
    echo "ERROR: crates/bench/src/bin holds more than experiments.rs:" >&2
    echo "$bins" >&2; exit 1; }
if [ -e crates/bench/benches ]; then
    echo "ERROR: crates/bench/benches is back (cargo runs its files as bench targets):" >&2
    ls crates/bench/benches >&2; exit 1
fi
if grep -n '^\[\[bench\]\]' crates/bench/Cargo.toml >&2; then
    echo "ERROR: crates/bench/Cargo.toml declares a [[bench]] target (line above)" >&2; exit 1
fi
if grep -rn 'std::time' crates/bench/tests >&2; then
    echo "ERROR: a clock under crates/bench/tests (lines above): goldens pin counts only" >&2; exit 1
fi

echo "== tier-1 as ROADMAP.md spells it: cargo build --release && cargo test -q"
# The literal line, no --workspace: `default-members` in Cargo.toml is what
# makes it cover every crate, the regression goldens included
# (crates/bench/tests/goldens.rs: the BENCH_* files at the root, compared
# exactly; bless an intended change with
# `XTK_BLESS=1 cargo test -p xtk-bench --test goldens`).  Each test binary
# and doc-test pass prints one `test result:` line — the whole workspace
# about 50, the facade package alone a handful.  Captured to a file (plain
# sh has no pipefail).
if ! (cargo build --release --offline && cargo test -q --offline) >"$tier1_out" 2>&1; then
    cat "$tier1_out" >&2
    exit 1
fi
cat "$tier1_out"
tier1_results=$(grep -c "^test result:" "$tier1_out")
[ "$tier1_results" -ge 40 ] || {
    echo "ERROR: tier-1 reported $tier1_results 'test result:' lines, expected >= 40 —" >&2
    echo "       is default-members still in the root Cargo.toml?" >&2; exit 1; }

echo "== perfbench smoke + determinism tests (the benchmark's own guards)"
# perfbench is a workspace of its own, so the step above does not see it.
# Its tests run every workload at --smoke scale and fail on a broken
# workload-shape guard, a wrong answer or a run that does not repeat — so
# an engine change that breaks the benchmark fails here, not in the
# benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo clippy --all-targets -- -D warnings (L1-L3, L5, L6, L9; DESIGN.md section 7)"
# Unconditional: the panic, hash-order, wall-clock and discarded-Result
# rules are clippy lints, so a missing clippy fails here rather than
# skipping them.
cargo clippy --offline --workspace --all-targets -q -- -D warnings

echo "== ci.sh: all green"
