//! `gd-bench` — the committed benchmark trajectory.
//!
//! Measures the hot paths behind Figure 2 (the 2^16-mask perturbation
//! sweep), Table I (the glitch parameter scan), and the multifault
//! campaign (enumeration/pruning plus shard execution), on both the
//! interpreter path and the predecoded fast path, and serializes the
//! results to `BENCH_fig2.json` / `BENCH_table1.json` /
//! `BENCH_multifault.json` at the repo root
//! (see [`gd_bench::trajectory`] for the schema). Committing each
//! regeneration gives the repo a performance history next to its output
//! goldens.
//!
//! * `gd-bench` — re-measure and rewrite the files (a new trajectory
//!   point).
//! * `gd-bench --check` — re-measure and compare against the committed
//!   files without touching them: same stage set, fresh medians within
//!   `GD_BENCH_TOLERANCE` (default 3.0×) of the committed ones, gated
//!   speedups at their floors. `scripts/ci.sh` runs this with
//!   `GD_BENCH_SAMPLES=5` as the bench smoke.

use std::path::PathBuf;
use std::process::ExitCode;

use gd_bench::glitch_tables::{guard_spec, post_mortem_reg};
use gd_bench::timing::{fmt_duration, Harness, Measurement};
use gd_bench::trajectory::{self, Metric, Speedup};
use gd_campaign::json::Json;
use gd_chipwhisperer::{scan_cell, scan_grid_serial, targets, Device, FaultModel};
use gd_emu::Config;
use gd_glitch_emu::masks::ChooseBits;
use gd_glitch_emu::{
    all_branch_cases, run_perturbed, sweep_case_with, sweep_k_serial, Direction, PerturbRunner,
    Tally,
};

/// Repo-root path of one trajectory file.
fn bench_path(artifact: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join(format!("BENCH_{artifact}.json"))
}

fn print_measurement(m: &Measurement) {
    println!(
        "{:<28} median {:>10}   [min {:>10}, max {:>10}]   ({} samples x {} iters)",
        m.name,
        fmt_duration(m.median),
        fmt_duration(m.min),
        fmt_duration(m.max),
        m.samples,
        m.iters,
    );
}

/// Figure 2 hot path: one perturbed trial of the first branch case, the
/// exhaustive AND-panel sweep — all 14 cases × 2^16 masks — and the
/// OR-panel sweep of the first case, each interpreter vs predecoded; and
/// the AND panel through `sweep_case_with`, which runs each distinct
/// perturbed halfword once (`sweep/memo` vs `sweep/predecoded`, one
/// trial per mask).
///
/// The AND panel has no step-limit trials; many OR-panel trials run off
/// the snippet into zero-filled flash until the budget ends, so its pair
/// of stages is the one that sees the fast path slide through that fill
/// (`Emu::slide`). Every sweep stage runs serially so the
/// ratios measure the fast path itself (predecode, snapshot replay,
/// sliding), not thread scaling; the parallel `sweep_k` is pinned to the
/// serial one by the differential tests, so the per-trial win carries
/// over.
fn bench_fig2(h: &Harness) -> Json {
    let cases = all_branch_cases();
    let cfg = Config::default();
    let direction = Direction::And;
    let one_case = &cases[0];
    let one_mask = direction.apply(one_case.target_halfword(), 0x0004);

    let mut stages = Vec::new();
    stages.push(h.measure("trial/interpreter", || run_perturbed(one_case, one_mask, cfg)));
    let mut runner = PerturbRunner::new(one_case, cfg);
    stages.push(h.measure("trial/predecoded", || runner.run(one_mask)));
    stages.push(h.measure("sweep/interpreter", || {
        let mut tally = Tally::default();
        for case in &cases {
            for k in 0..=16 {
                tally.merge(&sweep_k_serial(case, direction, k, cfg));
            }
        }
        tally
    }));
    stages.push(h.measure("sweep/predecoded", || {
        // The image builds are inside the closure: a real sweep pays one
        // per case, so the measured time amortizes them honestly.
        let mut tally = Tally::default();
        for case in &cases {
            let hw = case.target_halfword();
            let mut runner = PerturbRunner::with_image(case, cfg, case.predecode(cfg));
            for k in 0..=16 {
                for mask in ChooseBits::new(16, k) {
                    tally.record(runner.run(direction.apply(hw, mask as u16)));
                }
            }
        }
        tally
    }));
    stages.push(h.measure("sweep/memo", || {
        gd_exec::with_threads(1, || {
            let sweep = |case| sweep_case_with(case, &case.predecode(cfg), direction, cfg);
            cases.iter().map(sweep).collect::<Vec<_>>()
        })
    }));
    stages.push(h.measure("sweep_or/interpreter", || {
        let mut tally = Tally::default();
        for k in 0..=16 {
            tally.merge(&sweep_k_serial(one_case, Direction::Or, k, cfg));
        }
        tally
    }));
    stages.push(h.measure("sweep_or/predecoded", || {
        let hw = one_case.target_halfword();
        let mut tally = Tally::default();
        let mut runner = PerturbRunner::with_image(one_case, cfg, one_case.predecode(cfg));
        for k in 0..=16 {
            for mask in ChooseBits::new(16, k) {
                tally.record(runner.run(Direction::Or.apply(hw, mask as u16)));
            }
        }
        tally
    }));
    for m in &stages {
        print_measurement(m);
    }
    trajectory::doc(
        "fig2",
        &stages,
        &[
            Speedup {
                name: "trial",
                baseline: "trial/interpreter",
                fast: "trial/predecoded",
                min_milli: None,
            },
            Speedup {
                name: "sweep",
                baseline: "sweep/interpreter",
                fast: "sweep/predecoded",
                min_milli: Some(5000),
            },
            Speedup {
                name: "sweep_or",
                baseline: "sweep_or/interpreter",
                fast: "sweep_or/predecoded",
                min_milli: Some(6000),
            },
            Speedup {
                name: "memo",
                baseline: "sweep/predecoded",
                fast: "sweep/memo",
                min_milli: Some(12000),
            },
        ],
    )
}

/// Table I hot path: one full 99×99 scan cell of the first guard at
/// glitch cycle 0.
///
/// `scan_cell/reference` is the boot-per-attempt oracle
/// (`scan_grid_serial` over that one cycle); `scan_cell/fast` is
/// `scan_cell`, which boots once per worker chunk, restores per attempt,
/// and runs the unglitched baseline once for every point that cannot
/// fault. Both run on one thread, so their ratio measures the scan
/// itself, not thread scaling.
fn bench_table1(h: &Harness) -> Json {
    let model = FaultModel::default();
    let (name, src) = targets::table1_guards()[0];
    let reg = post_mortem_reg(name);
    let spec = guard_spec();
    let dev = Device::from_asm(src).expect("guard assembles");

    let stages = vec![
        h.measure("scan_cell/reference", || {
            gd_exec::with_threads(1, || scan_grid_serial(&dev, &model, 0..1, 1, &spec, Some(reg)))
        }),
        h.measure("scan_cell/fast", || {
            gd_exec::with_threads(1, || scan_cell(&dev, &model, 0, 0, 1, &spec, Some(reg)))
        }),
    ];
    for m in &stages {
        print_measurement(m);
    }
    trajectory::doc(
        "table1",
        &stages,
        &[Speedup {
            name: "scan_cell_fast",
            baseline: "scan_cell/reference",
            fast: "scan_cell/fast",
            min_milli: Some(3000),
        }],
    )
}

/// Multifault hot path: the enumeration/pruning pass over every
/// registry model, one first-order shard (the single-bit transient
/// flips), and one second-order pair bucket through the fork walk and
/// through the from-snapshot reference — plus the campaign's
/// deterministic pruning rates as exact-match metrics, so the committed
/// trajectory also gates the redundancy analysis itself (rates must
/// reproduce bit-for-bit and stay above zero).
fn bench_multifault(h: &Harness) -> Json {
    let campaign = gd_faultsim::boot_campaign();
    let image = &campaign.image;
    let cfg = campaign.cfg;
    let (mut fork, mut reference) = (None, None);
    let stages = vec![
        h.measure("prune/enumerate", || {
            let sites = gd_faultsim::sites(image, cfg, &gd_faultsim::SCOPE_FUNCS);
            let slots = gd_faultsim::halfword_slots(image, &gd_faultsim::SCOPE_FUNCS);
            gd_faultsim::Registry::standard()
                .models()
                .iter()
                .enumerate()
                .map(|(i, m)| gd_faultsim::prune_model(i, m.as_ref(), &sites, slots, cfg).pruned())
                .sum::<u64>()
        }),
        h.measure("shard/order1_xor1t", || gd_faultsim::order1_shard(0)),
        h.measure("shard/order2_bucket", || fork = Some(gd_faultsim::order2_shard(0))),
        h.measure("shard/order2_reference", || {
            reference = Some(gd_faultsim::order2_shard_reference(0));
        }),
    ];
    for m in &stages {
        print_measurement(m);
    }
    let mut order1 = gd_faultsim::MfStats::default();
    for model in 0..campaign.per_model.len() {
        order1.merge(&campaign.order1_stats(model));
    }
    let (fork, reference) = (fork.expect("stage ran"), reference.expect("stage ran"));
    assert_eq!(fork, reference, "the fork walk and the reference disagree on bucket 0");
    let bucket0 = fork.1;
    trajectory::doc_with_metrics(
        "multifault",
        &stages,
        &[Speedup {
            name: "order2_fork",
            baseline: "shard/order2_reference",
            fast: "shard/order2_bucket",
            min_milli: Some(5000),
        }],
        &[
            Metric {
                name: "prune/order1_rate",
                value_milli: order1.pruned_ratio_milli(),
                min_milli: Some(1),
            },
            Metric {
                name: "prune/order2_bucket0_rate",
                value_milli: bucket0.pruned_ratio_milli(),
                min_milli: Some(1),
            },
        ],
    )
}

/// `GD_BENCH_TOLERANCE` (a float multiplier, default 3.0) in milli-units.
fn tolerance_milli() -> u64 {
    std::env::var("GD_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 1.0)
        .map_or(3_000, |t| (t * 1000.0) as u64)
}

fn check_artifact(artifact: &str, fresh: &Json, tolerance: u64) -> bool {
    let path = bench_path(artifact);
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => match gd_campaign::json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("--check FAILED: {} does not parse: {e:?}", path.display());
                return false;
            }
        },
        Err(e) => {
            eprintln!("--check FAILED: cannot read {}: {e}", path.display());
            return false;
        }
    };
    match trajectory::check(&committed, fresh, tolerance) {
        Ok(report) => {
            for line in report {
                println!("--check {artifact}: {line}");
            }
            true
        }
        Err(failures) => {
            for line in failures {
                eprintln!("--check FAILED {artifact}: {line}");
            }
            false
        }
    }
}

fn write_artifact(artifact: &str, doc: &Json) -> bool {
    let path = bench_path(artifact);
    let text = match doc.to_string_pretty() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serializing {artifact}: {e:?}");
            return false;
        }
    };
    match std::fs::write(&path, text + "\n") {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            false
        }
    }
}

fn main() -> ExitCode {
    let check_mode = std::env::args().skip(1).any(|a| a == "--check");
    let h = Harness::from_env();
    let docs = [
        ("fig2", bench_fig2(&h)),
        ("table1", bench_table1(&h)),
        ("multifault", bench_multifault(&h)),
    ];

    let mut ok = true;
    if check_mode {
        let tolerance = tolerance_milli();
        for (artifact, fresh) in &docs {
            ok &= check_artifact(artifact, fresh, tolerance);
        }
        if ok {
            println!("--check OK: benchmark trajectory holds");
        }
    } else {
        for (artifact, doc) in &docs {
            ok &= write_artifact(artifact, doc);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
