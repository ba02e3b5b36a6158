#!/usr/bin/env sh
# Tier-1 gate: formatting, a warnings-denied release build, the full
# workspace test suite, and experiment self-checks, all offline. The
# workspace has zero external dependencies, so this runs on a machine
# with no network and no registry cache.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline (RUSTFLAGS=-Dwarnings)"
RUSTFLAGS=-Dwarnings cargo build --release --offline

echo "==> cargo test --offline (workspace)"
cargo test --offline -q

# The order-2 fork walk against its oracle over the whole pair space:
# every bucket of the first-fault class partition must tally exactly as
# the from-snapshot reference executor. Tier-1 checks a strided sample of
# representatives, whose classes differ from the full space's. Release
# only: a few seconds.
echo "==> order-2 fork walk = reference over the full pair space"
cargo test --release --offline -q -p gd-faultsim --test fork_walk -- --ignored

# Experiment binaries must regenerate their committed golden outputs
# byte for byte. table1 goes through the campaign engine (and therefore
# the sharded path); fig2 covers the emulation-side sweeps.
echo "==> table1 --check"
./target/release/table1 --check

echo "==> fig2 --check"
./target/release/fig2 --check

# Figure 2 and its instruction-class extension run each distinct
# perturbed halfword once and fan those trials out over workers: both
# must match their goldens at every worker count.
echo "==> fig2 + fig2_ext --check across GD_THREADS=1/2/8"
for t in 1 2 8; do
    GD_THREADS=$t ./target/release/fig2 --check
    GD_THREADS=$t ./target/release/fig2_ext --check
done

# Static glitch-surface analysis: the report over all Table IV defense
# configurations must match the committed golden byte for byte, stay
# byte-identical across worker counts, and the fully hardened boot image
# must survive --deny (zero missing-defense findings).
echo "==> gd-lint --check"
./target/release/gd-lint --check

echo "==> gd-lint determinism across GD_THREADS=1/2/8"
GD_THREADS=1 ./target/release/gd-lint > target/lint_boot.t1.txt
GD_THREADS=2 ./target/release/gd-lint > target/lint_boot.t2.txt
GD_THREADS=8 ./target/release/gd-lint > target/lint_boot.t8.txt
cmp target/lint_boot.t1.txt target/lint_boot.t2.txt
cmp target/lint_boot.t1.txt target/lint_boot.t8.txt
cmp target/lint_boot.t1.txt results/lint_boot.txt
rm -f target/lint_boot.t1.txt target/lint_boot.t2.txt target/lint_boot.t8.txt

echo "==> gd-lint --deny on the fully hardened boot image"
./target/release/gd-lint --deny --config All > /dev/null

# Exhaustive multi-fault campaign over firmware::boot, through the
# campaign engine's sharded path: the report (first-order sweeps of
# every registry fault model plus the second-order pair buckets, with
# the pruning ledger) must match the committed golden byte for byte and
# stay byte-identical across worker counts.
echo "==> gd-multifault --check"
./target/release/gd-multifault --check

echo "==> gd-multifault determinism across GD_THREADS=1/2/8"
GD_THREADS=1 ./target/release/gd-multifault > target/multifault_boot.t1.txt
GD_THREADS=2 ./target/release/gd-multifault > target/multifault_boot.t2.txt
GD_THREADS=8 ./target/release/gd-multifault > target/multifault_boot.t8.txt
cmp target/multifault_boot.t1.txt target/multifault_boot.t2.txt
cmp target/multifault_boot.t1.txt target/multifault_boot.t8.txt
cmp target/multifault_boot.t1.txt results/multifault_boot.txt
rm -f target/multifault_boot.t1.txt target/multifault_boot.t2.txt target/multifault_boot.t8.txt

# Third-party firmware ingestion: the committed demo dump must ingest,
# lint, and fault-sim to the committed goldens byte for byte, and the
# lint + divergence-campaign reports must stay byte-identical across
# worker counts (fixed-size chunk partition, order-preserving merge).
echo "==> gd-ingest --check (ingest report + GL02xx lints + divergence campaigns)"
./target/release/gd-ingest --check

echo "==> gd-ingest determinism across GD_THREADS=1/2/8"
for t in 1 2 8; do
    GD_THREADS=$t ./target/release/gd-ingest --lint > "target/lint_ingest.t$t.txt"
    GD_THREADS=$t ./target/release/gd-ingest --faultsim > "target/multifault_ingest.t$t.txt"
done
cmp target/lint_ingest.t1.txt target/lint_ingest.t2.txt
cmp target/lint_ingest.t1.txt target/lint_ingest.t8.txt
cmp target/lint_ingest.t1.txt results/lint_ingest.txt
cmp target/multifault_ingest.t1.txt target/multifault_ingest.t2.txt
cmp target/multifault_ingest.t1.txt target/multifault_ingest.t8.txt
cmp target/multifault_ingest.t1.txt results/multifault_ingest.txt
rm -f target/lint_ingest.t?.txt target/multifault_ingest.t?.txt

# CFG recovery + glitch reachability: both reports must match their
# committed goldens byte for byte and stay byte-identical across worker
# counts; the guard-domination gate (GL0302) must be clean on the fully
# hardened image; and the agreement sweep must stay sound — no fault the
# simulator proves Successful may be classified statically safe. The
# agreement tables committed to EXPERIMENTS.md must equal the regions
# inside the goldens, so the document cannot drift from the artifacts.
echo "==> gd-cfg --check (CFG recovery + GL03xx lints + agreement tables)"
./target/release/gd-cfg --check

echo "==> gd-cfg determinism across GD_THREADS=1/2/8"
for t in 1 2 8; do
    GD_THREADS=$t ./target/release/gd-cfg > "target/cfg_boot.t$t.txt"
    GD_THREADS=$t ./target/release/gd-cfg --ingest > "target/cfg_ingest.t$t.txt"
done
cmp target/cfg_boot.t1.txt target/cfg_boot.t2.txt
cmp target/cfg_boot.t1.txt target/cfg_boot.t8.txt
cmp target/cfg_boot.t1.txt results/cfg_boot.txt
cmp target/cfg_ingest.t1.txt target/cfg_ingest.t2.txt
cmp target/cfg_ingest.t1.txt target/cfg_ingest.t8.txt
cmp target/cfg_ingest.t1.txt results/cfg_ingest.txt
rm -f target/cfg_boot.t?.txt target/cfg_ingest.t?.txt

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

# Fleet smoke: Table I through a 2-worker loopback fleet must reproduce
# the committed golden byte for byte — fault-free first, then with
# dispatcher-side worker-boundary faults (dropped connections, corrupted
# results caught by the seal), then against workers whose own processes
# hang and crash mid-shard under GD_CHAOS. The dispatcher's retry /
# hedge / quarantine / local-fallback ladder absorbs all of it.
echo "==> fleet smoke (Table I through 2 loopback workers, then under worker chaos)"
./target/release/gd-campaign worker --addr 127.0.0.1:0 > target/fleet_worker1.log 2>&1 &
FLEET_W1_PID=$!
./target/release/gd-campaign worker --addr 127.0.0.1:0 > target/fleet_worker2.log 2>&1 &
FLEET_W2_PID=$!
for _ in $(seq 50); do
    grep -q 'worker on' target/fleet_worker1.log 2>/dev/null \
        && grep -q 'worker on' target/fleet_worker2.log 2>/dev/null && break
    sleep 0.1
done
FLEET_W1=$(sed -n 's|.*worker on http://||p' target/fleet_worker1.log | head -1)
FLEET_W2=$(sed -n 's|.*worker on http://||p' target/fleet_worker2.log | head -1)
./target/release/gd-campaign run table1 --workers "$FLEET_W1,$FLEET_W2" \
    > target/fleet_table1.txt
cmp target/fleet_table1.txt results/table1.txt
GD_CHAOS='31:fleet.conn_drop=0.2,fleet.corrupt_result=0.2' \
    ./target/release/gd-campaign run table1 --workers "$FLEET_W1,$FLEET_W2" \
    > target/fleet_table1_chaos.txt
cmp target/fleet_table1_chaos.txt results/table1.txt
kill "$FLEET_W1_PID" "$FLEET_W2_PID"
wait "$FLEET_W1_PID" "$FLEET_W2_PID" 2>/dev/null || true

GD_CHAOS='32:fleet.hang=0.2,fleet.worker_crash=0.2' \
    ./target/release/gd-campaign worker --addr 127.0.0.1:0 > target/fleet_worker3.log 2>&1 &
FLEET_W3_PID=$!
GD_CHAOS='33:fleet.hang=0.2,fleet.worker_crash=0.2' \
    ./target/release/gd-campaign worker --addr 127.0.0.1:0 > target/fleet_worker4.log 2>&1 &
FLEET_W4_PID=$!
for _ in $(seq 50); do
    grep -q 'worker on' target/fleet_worker3.log 2>/dev/null \
        && grep -q 'worker on' target/fleet_worker4.log 2>/dev/null && break
    sleep 0.1
done
FLEET_W3=$(sed -n 's|.*worker on http://||p' target/fleet_worker3.log | head -1)
FLEET_W4=$(sed -n 's|.*worker on http://||p' target/fleet_worker4.log | head -1)
./target/release/gd-campaign run table1 --workers "$FLEET_W3,$FLEET_W4" \
    > target/fleet_table1_sick.txt
cmp target/fleet_table1_sick.txt results/table1.txt
kill "$FLEET_W3_PID" "$FLEET_W4_PID"
wait "$FLEET_W3_PID" "$FLEET_W4_PID" 2>/dev/null || true
rm -f target/fleet_worker?.log target/fleet_table1*.txt

# Synthetic load with SLO assertions: concurrent clients against an
# in-process server fed by a 2-worker fleet. gd-load exits nonzero when
# p99 control-plane latency or sustained throughput miss the SLOs, when
# any campaign fails, or when /metrics lacks the gd_fleet_*/gd_http_*
# families that prove the fleet path served the load.
echo "==> gd-load SLO run (4 clients x 3 rounds over a 2-worker fleet)"
./target/release/gd-load --clients 4 --rounds 3 --spawn-workers 2 \
    --p99-ms 250 --min-rps 50 --require-fleet-metrics

echo "==> OK"
