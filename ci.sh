#!/bin/sh
# Tier-1 gate, fully offline: release build, workspace tests, in-tree
# static analysis (xtk-lint), clippy.  Run from the repo root.  Fails
# fast on the first broken step.
set -eu

cd "$(dirname "$0")"

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo run -q -p xtk-lint (panic/determinism ratchet + interprocedural passes)"
# Unconditional: xtk-lint is a workspace crate with no external deps, so
# there is no environment where this step may be skipped.  It enforces
# the lint-baseline.json ratchets (L1 per file, L6 per query entry
# point), the hard rules (hash-order output, float ==, wall-clock in
# query paths, forbid(unsafe_code)), the L7 lock-order gate and the L8
# hot-loop allocation gate.  The output is captured to a file (not a
# pipe: plain sh has no pipefail) so the one-line L6 ratchet delta can
# be asserted on and still land in the CI log.
lint_out=/tmp/xtk-lint-out.txt
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
# disk::parse_directory alone — the store's open and the eager read_index
# both go through it — and format v1 (entries without row count and last
# value) is gone with the structures that mirrored its directory.  A
# second "block offset" read means a second parser; any of the three
# names means a v1 path or the SparseIndex clone came back.
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

echo "== one row -> number lookup per column: the row directory or the plain search"
# The top-K drain reads a retrieved row's JDewey number through the
# column's RowDirectory, or by Column::value_of_row where the column is too
# short to carry one.  The hinted search between the two is gone; its name
# coming back means a third way to answer the same question.
if grep -rn "value_of_row_hinted" --include='*.rs' crates >&2; then
    echo "ERROR: value_of_row_hinted is back under crates/" >&2; exit 1
fi

echo "== one thread per query: threads only around it (build, batch workers, shard scatter)"
# Intra-query parallelism was measured on perfbench's op lists and deleted
# (DESIGN §6): a request runs on the thread that calls it.  The pool keeps
# three callers — the index build, the batch workers and the shard scatter;
# a fourth file calling parallel_map( means a query phase grew threads
# again.  (crates/lint holds fixture sources that spell the name.)
if grep -rnE 'PAR_JOIN_MIN|PAR_MATCH_MIN|phase_chunks|pool\.(join|match|refill)_' crates >&2; then
    echo "ERROR: an intra-query pool name is back under crates/" >&2; exit 1
fi
pool_callers=$(grep -rlF 'parallel_map(' --include='*.rs' crates/*/src \
    | grep -v -e '^crates/xml/src/pool.rs$' -e '^crates/lint/' | sort | tr '\n' ' ')
[ "$pool_callers" = "crates/core/src/batch.rs crates/core/src/shard.rs crates/index/src/builder.rs " ] || {
    echo "ERROR: parallel_map( is called from: $pool_callers" >&2
    echo "       expected exactly core/src/batch.rs, core/src/shard.rs, index/src/builder.rs" >&2
    exit 1; }
# The pool hands results back through join handles; a channel in it means
# the per-item send and wake-up are back.
if grep -n mpsc crates/xml/src/pool.rs >&2; then
    echo "ERROR: crates/xml/src/pool.rs mentions mpsc" >&2; exit 1
fi

echo "== lint-report.json: schema + L7 acyclicity check"
# The machine-readable report must exist, carry every section of the
# stable schema, and record zero lock-order cycles (the binary already
# hard-fails on cycles; this guards against the report going stale or
# the schema drifting under a consumer).
test -s lint-report.json || { echo "ERROR: lint-report.json missing" >&2; exit 1; }
for key in '"version"' '"l1"' '"hard"' '"l6"' '"l7"' '"l8"' '"l9"'; do
    grep -q "$key" lint-report.json || {
        echo "ERROR: lint-report.json lacks the $key section" >&2; exit 1; }
done
grep -q '"cycles": \[\]' lint-report.json || {
    echo "ERROR: lint-report.json records L7 lock-order cycles" >&2; exit 1; }

echo "== tier-1 as ROADMAP.md spells it: cargo build --release && cargo test -q"
# The literal line, no --workspace: `default-members` in Cargo.toml is what
# makes it cover every crate.  Each test binary and doc-test pass prints
# one `test result:` line — the whole workspace about 50, the facade
# package alone a handful.  Captured to a file (plain sh has no pipefail).
tier1_out=/tmp/xtk-tier1-out.txt
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

echo "== bench smoke: query-path I/O trajectory vs committed baseline"
# Deterministic cold-decode counts (seeded corpus, serial execution):
# fails on a >20 % regression against BENCH_query.json, and the run
# itself asserts result-set equality across cache capacities.  Refresh
# the baseline after an intentional change with:
#   query_io --check BENCH_query.json --update
cargo run -q --offline --release -p xtk-bench --bin query_io -- --check BENCH_query.json

echo "== bench smoke: EXPLAIN plans vs committed golden (exact match)"
# Renders the logical plan, rewrite log and physical plan for a fixed
# query grid on every target (memory/disk/sharded); the report contains
# nothing machine-dependent, so the comparison is byte-for-byte.  Any
# diff is a real planner change — review it, then refresh with:
#   explain_snapshot --check BENCH_explain.snap --update
cargo run -q --offline --release -p xtk-bench --bin explain_snapshot -- --check BENCH_explain.snap

echo "== bench smoke: unified metrics snapshot vs committed golden (exact match)"
# Every counter in the snapshot is a logical count (no wall-clock), so
# the comparison is byte-for-byte.  The run also asserts two cold passes
# produce identical metrics and the per-store decode==miss invariant.
# Refresh after an intentional change with:
#   metrics_snapshot --check BENCH_metrics.json --update
cargo run -q --offline --release -p xtk-bench --bin metrics_snapshot -- --check BENCH_metrics.json

echo "== bench smoke: batched serving vs committed baseline"
# Replays the skewed serving mix sequentially and batched; the run itself
# asserts byte-identical results, replay-stable decode/hit counters and
# zero-decode warm result-cache hits; the batched speedup is printed only.
# The --check compares the deterministic counters (decodes, result-cache
# misses, result counts) with a 20 % ratchet.  Refresh after an
# intentional change with:  serve_bench --check BENCH_serve.json --update
cargo run -q --offline --release -p xtk-bench --bin serve_bench -- --check BENCH_serve.json

echo "== bench smoke: sharded scatter-gather vs committed baseline"
# Replays the mixed top-K/complete workload at 1/2/4/8 shards; the run
# itself asserts byte-identical results across every topology and vs the
# unsharded reference, and that the TA early-stop changes nothing bit for
# bit.  The --check compares the deterministic counters (result counts,
# decodes, shards executed) with a 20 % ratchet.  Refresh after an
# intentional change with:  shard_bench --check BENCH_shard.json --update
cargo run -q --offline --release -p xtk-bench --bin shard_bench -- --check BENCH_shard.json

echo "== bench smoke: block decode vs committed baseline"
# Times cold column decodes in the varint (v2) and bit-packed (v3) block
# layouts; the run itself asserts that both layouts reproduce the
# in-memory runs bit for bit and that packed delta lanes decode >=1.5x
# faster than varints.  The --check compares the deterministic counters
# (payload bytes, cold decode counts, file sizes) with a 20 % ratchet;
# timings are recorded in the trajectory but never compared.  Refresh
# after an intentional change with:
#   decode_bench --check BENCH_decode.json --update
cargo run -q --offline --release -p xtk-bench --bin decode_bench -- --check BENCH_decode.json

echo "== bench smoke: plan cache vs committed baseline"
# Times the planning pipeline cold vs served from the cross-query plan
# cache; the run itself asserts a >=3x cached planning speedup.  The
# --check compares the plan cache's hit and miss counts exactly;
# planning times are recorded in the trajectory but never compared.
# Refresh after an intentional change with:
#   plan_bench --check BENCH_plan.json --update
cargo run -q --offline --release -p xtk-bench --bin plan_bench -- --check BENCH_plan.json

if [ "${XTK_SKIP_CLIPPY:-0}" = "1" ]; then
    echo "== clippy skipped (XTK_SKIP_CLIPPY=1)"
elif cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --all-targets -- -D warnings"
    cargo clippy --offline --workspace --all-targets -q -- -D warnings
else
    echo "== ERROR: clippy is not installed and XTK_SKIP_CLIPPY is not set" >&2
    echo "   Install the clippy component (rustup component add clippy) or" >&2
    echo "   explicitly opt out with XTK_SKIP_CLIPPY=1 ci.sh" >&2
    exit 1
fi

echo "== ci.sh: all green"
