//! `sweep`: the encoding-level fault spaces — the Figure 2 campaign and
//! the order-1 and order-2 multifault campaign over `firmware::boot`
//! through the engine, plus order-1 xor1.t / xor2.t divergence campaigns
//! over the ingested `testdata/ingest_demo.bin`, run here through the
//! public `gd_ingest` / `gd_faultsim` functions. Together they drive all
//! three trial runners (`PerturbRunner`, `MultiFaultRunner`,
//! `DivergenceRunner`): emulator predecode, step and snapshot-restore,
//! Thumb classification, and fault-space pruning. No device boots, no
//! pipeline.
//!
//! The fault spaces are exhaustive over fixed images, so the workload
//! seed is recorded but changes no input: every pass must reproduce
//! `results/fig2.txt`, `results/multifault_boot.txt` and
//! `results/multifault_ingest.txt` byte for byte.

use std::time::Instant;

use gd_campaign::{CampaignSpec, Engine};
use gd_emu::Config;
use gd_faultsim::{halfword_slots, prune_model, sites, DivergenceRunner, FaultClass, Registry};
use gd_glitch_emu::{Outcome, Tally as Outcomes};
use gd_ingest::testimg::{DEMO_BASE, DEMO_WATCH};
use gd_ingest::Ingested;

use crate::engine_run::{run_timed, trials};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, Tally};
use crate::{Pass, Workload};

/// The committed demo image the divergence campaigns run over.
pub const DEMO_BIN: &[u8] = include_bytes!("../../testdata/ingest_demo.bin");

/// Registry indices of the divergence campaigns (xor1.t, xor2.t).
const MODELS: [usize; 2] = [0, 2];

/// Trial chunk size of the divergence fan-out (a fixed partition, so the
/// tallies merge to the same bytes at any worker count).
const CHUNK: usize = 64;

/// The emulator configuration for ingested third-party code (Thumb-2
/// wide encodings allowed).
pub fn wide_cfg() -> Config {
    Config { wide: true, ..Config::default() }
}

/// Ingests the demo image.
///
/// # Panics
///
/// Panics if the committed image no longer ingests.
pub fn ingest_demo() -> Ingested {
    gd_ingest::ingest_bin(DEMO_BIN, DEMO_BASE).expect("the demo image ingests")
}

/// Counts of one order-1 divergence campaign.
struct Divergence {
    tally: Outcomes,
    enumerated: u64,
    pruned: u64,
    simulated: u64,
}

/// One order-1 divergence campaign of registry model `model` over `ing`.
fn divergence(ing: &Ingested, model: usize, tr: &Tracer, parent: u64, trace: u64) -> Divergence {
    let cfg = wide_cfg();
    let funcs: Vec<&str> = ing.image.extents.iter().map(|e| e.name.as_str()).collect();
    let registry = Registry::standard();
    let mc = tr.span(
        parent,
        trace,
        "faultsim",
        || format!("prune/{model}"),
        |_| {
            let scope_sites = sites(&ing.image, cfg, &funcs);
            let slots = halfword_slots(&ing.image, &funcs);
            prune_model(model, registry.models()[model].as_ref(), &scope_sites, slots, cfg)
        },
    );
    let ranges: Vec<(u32, u32)> = ing.image.extents.iter().map(|e| (e.base, e.end)).collect();
    let tallies = tr.span(
        parent,
        trace,
        "faultsim",
        || format!("trials/{model}"),
        |_| {
            gd_exec::par_map_chunks(&mc.classes, CHUNK, |chunk| {
                let mut runner = DivergenceRunner::new(&ing.image, cfg, &ranges, Some(DEMO_WATCH));
                let mut tally = Outcomes::default();
                for class in chunk.items {
                    let outcome = match class.outcome {
                        Some(o) => o,
                        None => runner.run(&[class.rep()]),
                    };
                    tally.record_n(outcome, class.weight());
                }
                tally
            })
        },
    );
    let mut tally = Outcomes::default();
    for t in &tallies {
        tally.merge(t);
    }
    // Candidates at halfwords the walk never visits never fire.
    tally.record_n(
        Outcome::NoEffect,
        mc.enumerated - mc.classes.iter().map(FaultClass::weight).sum::<u64>(),
    );
    Divergence { tally, enumerated: mc.enumerated, pruned: mc.pruned(), simulated: mc.simulated }
}

/// Renders the divergence campaigns exactly as `gd-ingest --faultsim`
/// prints `results/multifault_ingest.txt`.
fn render(ing: &Ingested, rows: &[(usize, Divergence)]) -> String {
    let names = Registry::standard().names();
    let rule = "-".repeat(60);
    let funcs: Vec<&str> = ing.image.extents.iter().map(|e| e.name.as_str()).collect();
    let mut out = format!(
        "{rule}\nDivergence campaigns — ingested testdata/ingest_demo.bin ({})\n{rule}\n",
        funcs.join(", ")
    );
    out.push_str("Order 1 — one armed fault per trial, baseline-divergence taxonomy\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>9} {:>10}",
        "Model", "Enumerated", "Simulated", "Pruned"
    ));
    for o in Outcome::ALL {
        out.push_str(&format!("  {:>9}", o.label()));
    }
    out.push('\n');
    let (mut enumerated, mut pruned, mut simulated) = (0u64, 0u64, 0u64);
    for (model, d) in rows {
        out.push_str(&format!(
            "{:<10} {:>10} {:>9} {:>10}",
            names[*model], d.enumerated, d.simulated, d.pruned
        ));
        for o in Outcome::ALL {
            let w = o.label().len().max(9);
            out.push_str(&format!("  {:>w$}", d.tally.count(o)));
        }
        out.push('\n');
        enumerated += d.enumerated;
        pruned += d.pruned;
        simulated += d.simulated;
    }
    out.push('\n');
    let milli = (pruned * 1000).checked_div(enumerated).unwrap_or(0);
    out.push_str(&format!(
        "Pruned {pruned} of {enumerated} candidate trials ({}.{}% = {milli} milli); \
         simulated {simulated}\n",
        milli / 10,
        milli % 10,
    ));
    out
}

/// The `sweep` workload.
pub struct Sweep {
    seed: u64,
    ingested: Option<Ingested>,
}

impl Sweep {
    /// The workload; `seed` is recorded but changes no input.
    pub fn new(seed: u64) -> Sweep {
        Sweep { seed, ingested: None }
    }
}

impl Workload for Sweep {
    /// Ingests the demo image and analyses it (CFG recovery, image
    /// lints), compiles and prunes the boot firmware, and predecodes the
    /// Figure 2 snippets. The engine's process-wide boot-campaign state
    /// is built on the first round.
    fn setup(&mut self, tr: &Tracer, tally: &mut Tally) {
        let round = tr.new_trace();
        tr.span(
            0,
            round,
            "setup",
            || format!("sweep seed {}", self.seed),
            |id| {
                let ing = tr.span(id, round, "ingest", || "ingest_bin".into(), |_| ingest_demo());
                let cfg = tr.span(
                    id,
                    round,
                    "cfg",
                    || "recover".into(),
                    |_| gd_cfg::recover(&ing.image, wide_cfg()),
                );
                tally
                    .check(!cfg.blocks.is_empty(), || "setup: empty CFG for the demo image".into());
                let (findings, _) = tr.span(
                    id,
                    round,
                    "lint",
                    || "lint_image".into(),
                    |_| gd_lint::lint_image(&ing.image),
                );
                std::hint::black_box(findings);
                let image = tr.span(
                    id,
                    round,
                    "gr",
                    || "compile/boot".into(),
                    |_| gd_backend::compile(&gd_firmware::boot(), "main"),
                );
                match image {
                    Ok(image) => tr.span(
                        id,
                        round,
                        "faultsim",
                        || "prune/boot".into(),
                        |_| {
                            let cfg = Config::default();
                            let scope = sites(&image, cfg, &gd_faultsim::SCOPE_FUNCS);
                            let slots = halfword_slots(&image, &gd_faultsim::SCOPE_FUNCS);
                            for (i, m) in Registry::standard().models().iter().enumerate() {
                                std::hint::black_box(prune_model(
                                    i,
                                    m.as_ref(),
                                    &scope,
                                    slots,
                                    cfg,
                                ));
                            }
                        },
                    ),
                    Err(e) => tally.fail(format!("setup: boot firmware does not compile: {e}")),
                }
                tr.span(
                    id,
                    round,
                    "emu",
                    || "predecode/fig2".into(),
                    |_| {
                        for (_, _, cfg) in gd_campaign::fig2::panel_configs() {
                            for case in gd_glitch_emu::all_branch_cases() {
                                std::hint::black_box(case.predecode(cfg));
                            }
                        }
                    },
                );
                tr.span(
                    id,
                    round,
                    "faultsim",
                    || "boot_campaign".into(),
                    |_| {
                        std::hint::black_box(gd_faultsim::boot_campaign());
                    },
                );
                self.ingested = Some(ing);
            },
        );
    }

    fn pass(&mut self, tr: &Tracer, tally: &mut Tally) -> Pass {
        let engine = Engine::ephemeral();
        let ing = self.ingested.as_ref().expect("setup ran");
        let mut pass = Pass::default();
        let (t0, c0) = (Instant::now(), cpu_seconds());
        for (name, spec, golden) in [
            ("fig2", CampaignSpec::fig2(), include_str!("../../results/fig2.txt")),
            (
                "multifault",
                CampaignSpec::multifault(),
                include_str!("../../results/multifault_boot.txt"),
            ),
        ] {
            let trace = tr.new_trace();
            let (result, shard_ms) = tr.span(
                0,
                trace,
                "engine",
                || format!("run/{name}"),
                |_| run_timed(&engine, &spec),
            );
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("{name}: campaign failed: {e}"));
                    continue;
                }
            };
            pass.ops += 1;
            pass.shard_ms.extend(shard_ms);
            let n = trials(&result);
            pass.trials += n;
            pass.counts.push((format!("{name}.trials"), n));
            if name == "multifault" {
                let (mut pruned, mut simulated) = (0, 0);
                for s in &result.shards {
                    if let gd_campaign::shards::ShardResult::Multifault {
                        pruned: p,
                        simulated: m,
                        ..
                    } = s
                    {
                        pruned += p;
                        simulated += m;
                    }
                }
                pass.counts.push(("multifault.pruned".into(), pruned));
                pass.counts.push(("multifault.simulated".into(), simulated));
            }
            tr.span(
                0,
                trace,
                "check",
                || format!("check/{name}"),
                |_| {
                    tally.check(result.text == golden, || {
                        format!("{name}: report bytes differ from results/")
                    });
                },
            );
        }

        let trace = tr.new_trace();
        let rows: Vec<(usize, Divergence)> = tr.span(
            0,
            trace,
            "faultsim",
            || "ingest".into(),
            |id| MODELS.iter().map(|&m| (m, divergence(ing, m, tr, id, trace))).collect(),
        );
        pass.ops += rows.len() as u64;
        let (mut enumerated, mut pruned, mut simulated) = (0, 0, 0);
        for (_, d) in &rows {
            enumerated += d.enumerated;
            pruned += d.pruned;
            simulated += d.simulated;
        }
        pass.trials += enumerated;
        pass.counts.push(("ingest.enumerated".into(), enumerated));
        pass.counts.push(("ingest.pruned".into(), pruned));
        pass.counts.push(("ingest.simulated".into(), simulated));
        tr.span(
            0,
            trace,
            "check",
            || "check/ingest".into(),
            |_| {
                let text = render(ing, &rows);
                tally.check(text == include_str!("../../results/multifault_ingest.txt"), || {
                    format!("ingest: divergence report differs from results/:\n{text}")
                });
            },
        );
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.cpu_s = cpu_seconds() - c0;
        // A pass is one request for every artifact. The engine keeps no
        // result cache, so a repeated pass (warm) costs what a first one
        // (cold) does: both latency series are the pass latency.
        pass.cold_ms.push(pass.wall_s * 1e3);
        pass.warm_ms.push(pass.wall_s * 1e3);
        pass
    }

    fn expected_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("fig2.trials", 3_670_016),
            ("multifault.trials", 1_251_377),
            ("multifault.pruned", 72_705),
            ("multifault.simulated", 1_178_672),
            ("ingest.enumerated", 4_080),
            ("ingest.pruned", 1_821),
            ("ingest.simulated", 2_259),
        ]
    }
}
