#!/bin/sh
# Tier-1 gate, fully offline: release build, workspace tests, in-tree
# static analysis (xtk-lint), clippy.  Run from the repo root.  Fails
# fast on the first broken step.
set -eu

cd "$(dirname "$0")"

# Captured output goes to files of this run alone, so two concurrent runs
# never read each other's.
lint_out=$(mktemp)
tier1_out=$(mktemp)
trap 'rm -f "$lint_out" "$tier1_out"' EXIT

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo run -q -p xtk-lint (interprocedural passes L6-L9)"
# Unconditional: xtk-lint is a workspace crate with no external deps, so
# there is no environment where this step may be skipped.  It enforces
# the lint-baseline.json L6 ratchet (panic sites reachable per query entry
# point), the L7 lock-order gate, the L8 hot-loop allocation gate and L9
# (discarded Results).  L1-L5 are rustc/clippy lints: the build and the
# clippy step below enforce them.  The output is captured to a file (not
# a pipe: plain sh has no pipefail) so the one-line L6 ratchet delta can
# be asserted on and still land in the CI log.
if ! cargo run -q --offline -p xtk-lint >"$lint_out" 2>&1; then
    cat "$lint_out" >&2
    exit 1
fi
cat "$lint_out"
grep "L6 ratchet" "$lint_out" >/dev/null || {
    echo "ERROR: xtk-lint did not report the L6 ratchet delta" >&2; exit 1; }

echo "== temp-path hygiene: no bare temp_dir() outside xtk_xml::testutil"
# Tests, bins and the CLI's --shards that need the filesystem go through
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
# Sharded, whose `relock` is the only place a poisoned guard is recovered.
# Lru keeps recency in a linked slot arena; a second `struct Lru`, a
# `BTreeMap<u64, _>` stamp order or a second `into_inner()` in the two
# crates that hold caches means a cache grew its own again.
expect_sites() {
    sites=$(grep -rnF "$2" --include='*.rs' crates/index/src crates/core/src | wc -l)
    [ "$sites" -eq "$1" ] || {
        echo "ERROR: $sites sites of '$2' under crates/index/src + crates/core/src, expected $1:" >&2
        grep -rnF "$2" --include='*.rs' crates/index/src crates/core/src >&2
        exit 1; }
}
expect_sites 1 'struct Lru'
expect_sites 0 'BTreeMap<u64,'
expect_sites 1 'into_inner()'

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
# xtk-index writes and reads the bit-packed layout alone (file version 4),
# and DiskColumnStore is its one reader.  The varint layout, its magic and
# the eager reader that decoded whole files are gone; any of these names
# under the source trees means a second format or reader came back.
if grep -rnw -e MAGIC_V2 -e BlockLayout -e decode_block_varint -e encode_column_packed \
        -e read_index -e read_index_bytes -e PersistedIndex -e 'FormatVersion::V2' \
        --include='*.rs' crates src tests examples >&2; then
    echo "ERROR: a second on-disk format or reader is back (lines above)" >&2; exit 1
fi

echo "== a shard is a row range of the corpus store: no shard index, no shard store"
# write_sharded_with writes the one corpus store plus a manifest of
# document ranges, and ShardedEngine reads each range through a row
# window of that store.  Any of these names under a crate's sources means
# a shard index, its score stamping, its subforest or a per-shard store
# writer came back.
if grep -rnw -e build_shard_index -e override_scores -e subforest -e write_slice_to \
        --include='*.rs' crates/*/src >&2; then
    echo "ERROR: a per-shard index build or store is back under crates/*/src (lines above)" >&2; exit 1
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
# build, a scatter or a query phase grew threads again.  (crates/lint
# holds fixture sources that spell the name.)
if grep -rnE 'PAR_JOIN_MIN|PAR_MATCH_MIN|phase_chunks|pool\.(join|match|refill)_' crates >&2; then
    echo "ERROR: an intra-query pool name is back under crates/" >&2; exit 1
fi
pool_callers=$(grep -rlF 'parallel_map(' --include='*.rs' crates/*/src \
    | grep -v -e '^crates/core/src/pool.rs$' -e '^crates/lint/' | sort | tr '\n' ' ')
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

echo "== lint-report.json: schema + L7 acyclicity check"
# The machine-readable report must exist, carry every section of the
# stable schema, and record zero lock-order cycles (the binary already
# hard-fails on cycles; this guards against the report going stale or
# the schema drifting under a consumer).
test -s lint-report.json || { echo "ERROR: lint-report.json missing" >&2; exit 1; }
for key in '"version"' '"l6"' '"l7"' '"l8"' '"l9"'; do
    grep -q "$key" lint-report.json || {
        echo "ERROR: lint-report.json lacks the $key section" >&2; exit 1; }
done
grep -q '"cycles": \[\]' lint-report.json || {
    echo "ERROR: lint-report.json records L7 lock-order cycles" >&2; exit 1; }

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

echo "== cargo clippy --all-targets -- -D warnings (L1-L3, L5; DESIGN.md section 7)"
# Unconditional: the panic, hash-order and wall-clock rules are clippy
# lints, so a missing clippy fails here rather than skipping them.
cargo clippy --offline --workspace --all-targets -q -- -D warnings

echo "== ci.sh: all green"
