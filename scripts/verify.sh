#!/usr/bin/env bash
# Tier-1 verification: hermetic release build + full test suite.
#
# Runs entirely offline — the workspace has no registry dependencies, so
# this must succeed on a machine with no network and no cargo registry
# cache. The workspace_guard test enforces that property; this script is
# the one-command wrapper CI and contributors run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Warnings are errors everywhere in verification. Exported once so every
# cargo invocation below shares the same flags (and therefore the same
# build fingerprints — no mid-script rebuilds).
export RUSTFLAGS="-D warnings"

cargo build --release --offline

# Documentation is part of the contract: every public item across the
# workspace must have rustdoc, and rustdoc warnings (broken intra-doc
# links, missing docs where denied) fail verification.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline

# Static analysis: the in-tree determinism & safety lint, flow-aware
# since v2 (DESIGN.md "Static analysis"). Fails on any deny-severity
# diagnostic (including panic-capable code reachable from the serving
# entry points) and on any rule whose warn count exceeds the committed
# baseline at results/lint_baseline.json. Writes the machine-readable
# report to results/lint_report.json; the same bar runs as
# tests/lint_guard.rs; this surfaces file:line output.
cargo run -q --release --offline -p nlidb-lint -- --format=json

# The full suite twice: once pinned to the exact serial path, once with
# the pool at its default width. The threading contract (DESIGN.md
# "Threading & determinism") promises bitwise-identical results either
# way, so both runs must be green. Execution-guided decoding is covered
# here too: crates/core/tests/guided_decode.rs pins the guidance-off
# identity, the pure-filter and never-fails contracts, and
# crates/core/tests/guided_trace.rs pins the decode.guide.* trace
# families and lazy judging (DESIGN.md "Execution-guided decoding").
# The TCP server's wire contract is covered here as well:
# crates/serve/tests/server_determinism.rs replays a fixed request log
# (mid-log hot swap and shed flood included) serially and pipelined
# under different thread counts, connection counts and batch caps, and
# crates/serve/tests/server_trace.rs pins the server.* trace families
# (DESIGN.md "Multi-tenant serving").
NLIDB_THREADS=1 cargo test -q --offline --workspace
cargo test -q --offline --workspace

# Bench smoke: confirms the component benchmarks (including the
# serial-vs-parallel matmul / train-step entries) run end to end and
# write results/bench_components.json.
NLIDB_BENCH_SMOKE=1 cargo bench -q --offline -p nlidb-bench

# Bench-regression gate: the fresh smoke numbers must stay within 25% of
# the committed baseline's min_ns on every gated row, and the blocked
# matmul kernel must hold its improvement floor over the pre-blocked
# baseline (DESIGN.md "Kernel fast paths"). `cargo bench` writes the
# fresh results under the bench package dir; the baseline is committed
# at results/bench_baseline.json.
cargo run -q --release --offline -p nlidb-bench --bin bench_gate -- \
    crates/bench/results/bench_components.json results/bench_baseline.json

# Trace smoke: trains a tiny end-to-end system with NLIDB_TRACE off and
# on, asserts byte-identical parameters/predictions either way, and
# checks that results/trace_trace_smoke.json parses with nlidb-json and
# carries every promised instrument family (DESIGN.md "Observability").
NLIDB_TRACE=1 cargo run -q --release --offline -p nlidb-bench --bin trace_smoke

# Serve smoke: batched serving on a tiny dataset must produce outputs
# identical to the sequential per-example path (cache off / warm /
# capacity-1), emit the serve.* trace families, and beat cold batch-1
# serving by at least 2x per request on a repeated-table workload
# (DESIGN.md "Serving & batching").
NLIDB_TRACE=1 cargo run -q --release --offline -p nlidb-bench --bin serve_smoke

# Corpus smoke: the sharded corpus plane end to end. Writes a small
# corpus at two pool widths (byte-identical files), regenerates every
# shard in isolation (byte-identical to the fan-out's output), trains
# once streamed from disk (checkpoint byte-identical to the in-memory
# sharded source, peak example residency bounded by one shard), then
# repeats the isolation/residency checks on a ~1e5-question corpus
# (DESIGN.md "Sharded corpus plane").
cargo run -q --release --offline -p nlidb-bench --bin corpus_smoke

echo "verify: OK"
