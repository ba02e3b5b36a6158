#!/usr/bin/env sh
# Tier-1 gate: formatting, a warnings-denied release build, the full
# workspace test suite, and the golden manifest, all offline. The
# workspace has zero external dependencies, so this runs on a machine
# with no network and no registry cache.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline (RUSTFLAGS=-Dwarnings)"
RUSTFLAGS=-Dwarnings cargo build --release --offline

# The benchmark harness is a workspace of its own that builds against the
# crates by path; building it here catches a change that breaks an API it
# calls before anyone runs the benchmark.
echo "==> perfbench builds against the workspace crates"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> cargo test --offline (workspace)"
cargo test --offline -q

# The order-2 fork walk against its oracle over the whole pair space:
# every bucket of the first-fault class partition must tally exactly as
# the from-snapshot reference executor. Tier-1 checks a strided sample of
# representatives, whose classes differ from the full space's. Release
# only: a few seconds.
echo "==> order-2 fork walk = reference over the full pair space"
cargo test --release --offline -q -p gd-faultsim --test fork_walk -- --ignored

# Every experiment binary must regenerate its committed golden output
# byte for byte at GD_THREADS=1/2/8. Tier-1 (`cargo test`) walks the
# cheap rows of the golden manifest; its expensive rows (gd-multifault,
# table6, ablation) run here in release.
echo "==> golden manifest: expensive rows at GD_THREADS=1/2/8"
cargo test --release --offline -q -p gd-bench --test goldens -- --ignored

# The fully hardened boot image must survive --deny (zero
# missing-defense findings).
echo "==> gd-lint --deny on the fully hardened boot image"
./target/release/gd-lint --deny --config All > /dev/null

# CFG recovery + glitch reachability: the guard-domination gate (GL0302)
# must be clean on the fully hardened image, and the agreement sweep
# must stay sound — no fault the simulator proves Successful may be
# classified statically safe. The agreement tables committed to
# EXPERIMENTS.md must equal the regions inside the goldens, so the
# document cannot drift from the artifacts.
echo "==> gd-cfg --deny GL0302 on the fully hardened boot image"
./target/release/gd-cfg --deny GL0302 --config All > /dev/null

echo "==> gd-cfg --gate (soundness: statically safe implies simulated non-Success)"
./target/release/gd-cfg --gate > /dev/null

echo "==> EXPERIMENTS.md agreement tables match the committed goldens"
sed -n '/^---- agreement/,/^---- end agreement/p' \
    results/cfg_boot.txt results/cfg_ingest.txt > target/agree.golden.txt
sed -n '/^---- agreement/,/^---- end agreement/p' EXPERIMENTS.md > target/agree.doc.txt
cmp target/agree.golden.txt target/agree.doc.txt
rm -f target/agree.golden.txt target/agree.doc.txt

# Benchmark trajectory smoke: re-measure the fig2 sweep, table1 scan,
# and multifault campaign hot paths (few samples — this is a
# structure/regression gate, not a baseline regeneration) and compare
# against the committed BENCH_*.json: same stage set, fresh medians
# within GD_BENCH_TOLERANCE of the committed ones, every gated speedup
# at its committed floor — fig2 `sweep` (AND panel, predecoded vs
# interpreter) and `sweep_or` (OR panel, where trials slide through the
# zero fill), table1 `scan_cell_fast` (boot-once scan vs boot per
# attempt), multifault `order2_fork` (fork walk vs reference) — and the
# multifault pruning rates reproducing their committed milli-values
# exactly.
echo "==> gd-bench --check (benchmark trajectory)"
GD_BENCH_SAMPLES=5 ./target/release/gd-bench --check

# End-to-end smoke test of the campaign service: boot the HTTP server on
# an ephemeral port, submit Table I, require the bytes served back to
# equal results/table1.txt exactly, then scrape GET /metrics and assert
# the gd-obs metric families (http requests by route/status, the
# per-shard wall-time histogram, the engine cache counters, and the
# linter's gd_lint_findings_total{lint} series) are present.
echo "==> campaign service e2e (Table I over HTTP + /metrics scrape)"
cargo test --release --offline -q -p gd-campaign --test e2e_http

# Failure-path regressions in release: slowloris dribble -> 408 under
# the overall read deadline, failed campaign -> 409 (404 stays unknown-
# id only), and the cache/shard/duration metric families on /metrics.
echo "==> service failure paths + metrics families"
cargo test --release --offline -q -p gd-campaign --test service_failures

# Self-healing smoke test: Table I under a fixed deterministic fault
# schedule (shard panics, torn/dropped/corrupted store I/O, a whisper of
# worker-level panics — those compound across every nested sweep chunk,
# so their rate stays tiny). Every surviving run must be byte-identical
# to the committed golden. The chaos subcommand exits nonzero on any
# divergence or if no run survives.
echo "==> chaos smoke (Table I under a fault schedule, diffed against the golden)"
rm -rf target/chaos-smoke-store
./target/release/gd-campaign chaos table1 \
    --schedule '7:engine.shard_panic=0.1,store.torn_write=0.3,store.read_err=0.3,store.corrupt=0.3,exec.worker_panic=0.0005' \
    --runs 2 --store target/chaos-smoke-store --golden results/table1.txt
rm -rf target/chaos-smoke-store

echo "==> OK"
