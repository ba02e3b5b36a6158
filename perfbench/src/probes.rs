//! Per-layer probes for the traced run: each times calls into one
//! layer's public functions on fixed inputs, so a layer metric reads the
//! same on every workload and moves only when that layer's code does.
//! Every probe runs inside a span of its layer.

use std::hint::black_box;
use std::time::Instant;

use gd_backend::FirmwareImage;
use gd_campaign::engine::CampaignResult;
use gd_campaign::glitch_tables::{guard_spec, post_mortem_reg, GUARD_BUDGET};
use gd_campaign::spec::Workload as Kind;
use gd_campaign::{CampaignSpec, Engine};
use gd_chipwhisperer::{
    full_grid, run_attack, scan_cell, targets, Device, FaultModel, GlitchParams,
};
use gd_emu::{Config, Emu, Perms, PredecodedImage};
use gd_faultsim::{halfword_slots, prune_model, sites, DivergenceRunner, Registry};
use gd_ingest::testimg::{DEMO_BASE, DEMO_WATCH};
use gd_pipeline::Window;

use crate::engine_run::{cache_counters, run_timed};
use crate::served;
use crate::sweep::{ingest_demo, wide_cfg, DEMO_BIN};
use crate::trace::Tracer;
use crate::util::{fresh_dir, median, quantile, time_median, Metrics, Tally};

/// Repetitions of the cheap probes; each reports the median.
const REPS: usize = 21;
/// Repetitions of the expensive probes.
const FEW: usize = 3;

/// The probe results, plus the fallbacks for workload-derived metrics on
/// workloads that do not exercise the layer themselves.
pub struct Probes {
    /// Per-layer metrics in print order.
    pub metrics: Metrics,
    /// Median executed-shard time of the single-cycle Table I campaign.
    pub shard_ms_p50: f64,
    /// Slowest executed shard of that campaign.
    pub shard_ms_max: f64,
    /// Queue wait of one cold submission to an idle service.
    pub queue_wait_ms: f64,
    /// Engine cache hits and misses over the probes' store-backed runs.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
}

/// The single-cycle Table I campaign the `served` workload submits, at
/// the published seed.
fn one_cycle() -> CampaignSpec {
    let mut spec = CampaignSpec::table1();
    spec.workload = Kind::Table1 { cycles: (0, 1) };
    spec
}

impl Probes {
    /// Runs every probe. `workload` only labels the spans.
    pub fn run(workload: &str, tr: &Tracer, tally: &mut Tally) -> Probes {
        let trace = tr.new_trace();
        let mut m = Metrics::default();
        let mut out = tr.span(
            0,
            trace,
            "probe",
            || format!("probes/{workload}"),
            |root| {
                let mut p = Probes {
                    metrics: Metrics::default(),
                    shard_ms_p50: 0.0,
                    shard_ms_max: 0.0,
                    queue_wait_ms: 0.0,
                    cache_hits: 0,
                    cache_misses: 0,
                };
                let (hits0, misses0) = cache_counters();
                let span = |layer: &'static str| {
                    move |f: &mut dyn FnMut()| tr.span(root, trace, layer, || layer.into(), |_| f())
                };
                span("chipwhisperer")(&mut || chipwhisperer(&mut m));
                span("pipeline")(&mut || pipeline(&mut m));
                span("gr")(&mut || harden_compile(&mut m));
                span("thumb")(&mut || decode16(&mut m));
                span("emu")(&mut || emu(&mut m));
                span("glitch-emu")(&mut || perturb(&mut m));
                span("faultsim")(&mut || faultsim(&mut m));
                span("analysis")(&mut || analysis(&mut m));
                span("campaign")(&mut || campaign(&mut m, &mut p, tally));
                span("service")(&mut || service(&mut m, &mut p, tr, tally));
                let (hits, misses) = cache_counters();
                (p.cache_hits, p.cache_misses) = (hits - hits0, misses - misses0);
                p
            },
        );
        out.metrics = m;
        out
    }
}

/// Device boot, one glitch attempt, and the fault-model injector on the
/// in-region points of Table I's first guard at glitch cycle 0.
fn chipwhisperer(m: &mut Metrics) {
    let (name, src) = targets::table1_guards()[0];
    let dev = Device::from_asm(src).expect("guard assembles");
    let model = FaultModel::default();
    let spec = guard_spec();
    let points: Vec<GlitchParams> = full_grid()
        .into_iter()
        .filter(|&(w, o)| model.severity(w, o) > 0.0)
        .map(|(width, offset)| GlitchParams { ext_offset: 0, repeat: 1, width, offset })
        .collect();
    let n = points.len() as f64;
    let boot = time_median(FEW, || {
        for _ in &points {
            black_box(dev.boot_with_nvm(None));
        }
    }) / n;
    let attempt = time_median(FEW, || {
        for (j, &params) in points.iter().enumerate() {
            black_box(run_attack(&dev, &model, params, j as u64 + 1, &spec, None).outcome);
        }
    }) / n;
    let mut windows: Vec<Window> = Vec::new();
    dev.boot().run_with(GUARD_BUDGET, |w| {
        windows.push(*w);
        Vec::new()
    });
    let calls = n * windows.len() as f64;
    let injector = time_median(FEW, || {
        for (j, &params) in points.iter().enumerate() {
            let mut inject = model.injector(params, j as u64 + 1);
            for w in &windows {
                black_box(inject(black_box(w)));
            }
        }
    }) / calls.max(1.0);
    let reg = post_mortem_reg(name);
    let cell = time_median(FEW, || scan_cell(&dev, &model, 0, 0, 1, &spec, Some(reg)));
    m.put("chipwhisperer.boot_us", boot * 1e6, "us");
    m.put("chipwhisperer.attempt_us", attempt * 1e6, "us");
    m.put("chipwhisperer.boot_share", boot / attempt, "ratio");
    m.put("chipwhisperer.injector_ns", injector * 1e9, "ns");
    m.put("chipwhisperer.scan_cell_ms", cell * 1e3, "ms");
}

/// Unglitched pipeline cycles of the first Table I guard's spin loop.
fn pipeline(m: &mut Metrics) {
    let dev = Device::from_asm(targets::table1_guards()[0].1).expect("guard assembles");
    let samples: Vec<f64> = (0..FEW)
        .map(|_| {
            let mut pipe = dev.boot();
            let t = Instant::now();
            black_box(pipe.run(200_000));
            t.elapsed().as_secs_f64() / pipe.cycle().max(1) as f64
        })
        .collect();
    m.put("pipeline.cycle_ns", median(&samples) * 1e9, "ns");
}

/// GlitchResistor hardening plus lowering of every Table VI target under
/// both defense sets — the 12 images a Table VI content address covers.
fn harden_compile(m: &mut Metrics) {
    let targets = gd_firmware::table6_targets();
    let t = time_median(FEW, || {
        for (_, module) in &targets {
            for d in [glitch_resistor::Defenses::ALL, glitch_resistor::Defenses::ALL_EXCEPT_DELAY] {
                let mut module = module.clone();
                glitch_resistor::harden(&mut module, &glitch_resistor::Config::new(d));
                black_box(gd_backend::compile(&module, "main").expect("target lowers"));
            }
        }
    });
    m.put("gr.harden_compile_ms", t * 1e3, "ms");
}

/// Decoding all 65,536 16-bit halfwords.
fn decode16(m: &mut Metrics) {
    let t = time_median(REPS, || {
        (0..=u16::MAX).filter(|&hw| gd_thumb::decode16(black_box(hw)).is_ok()).count()
    });
    m.put("thumb.decode16_ns", t * 1e9 / 65_536.0, "ns");
}

fn boot_image() -> FirmwareImage {
    gd_backend::compile(&gd_firmware::boot(), "main").expect("boot firmware compiles")
}

/// Predecoding the boot firmware, predecoded stepping of a spin loop,
/// and snapshot restore after a dirtying run of the boot firmware.
fn emu(m: &mut Metrics) {
    let image = boot_image();
    let cfg = Config::default();
    let predecode =
        time_median(REPS, || PredecodedImage::from_bytes(image.text_base, &image.text, cfg));

    let prog =
        gd_thumb::asm::assemble("loop:\n  adds r0, #1\n  cmp r0, #0\n  bne loop\n  bkpt #0\n", 0)
            .expect("loop assembles");
    let table = PredecodedImage::from_bytes(0, &prog.code, cfg);
    let step = median(
        &(0..FEW)
            .map(|_| {
                let mut emu = Emu::new();
                emu.mem.map("flash", 0, 0x1000, Perms::RX).expect("fresh map");
                emu.mem.load(0, &prog.code).expect("loop fits");
                emu.set_pc(0);
                let t = Instant::now();
                black_box(emu.run_predecoded(1_000_000, &table));
                t.elapsed().as_secs_f64() / emu.steps().max(1) as f64
            })
            .collect::<Vec<_>>(),
    );

    let table = PredecodedImage::from_bytes(image.text_base, &image.text, cfg);
    let mut emu = image.boot_emu();
    black_box(emu.run_predecoded(50, &table));
    let snap = emu.snapshot();
    let restores = 2_000;
    let restore = median(
        &(0..FEW)
            .map(|_| {
                let mut spent = 0.0;
                for _ in 0..restores {
                    black_box(emu.run_predecoded(32, &table));
                    let t = Instant::now();
                    emu.restore(&snap);
                    spent += t.elapsed().as_secs_f64();
                }
                spent / f64::from(restores)
            })
            .collect::<Vec<_>>(),
    );
    m.put("emu.predecode_us", predecode * 1e6, "us");
    m.put("emu.step_ns", step * 1e9, "ns");
    m.put("emu.restore_ns", restore * 1e9, "ns");
}

/// Figure 2 trials: every halfword through one `PerturbRunner`.
fn perturb(m: &mut Metrics) {
    let case = gd_glitch_emu::branch_case(gd_thumb::Cond::Eq);
    let mut runner = gd_glitch_emu::PerturbRunner::new(&case, Config::default());
    let t = time_median(FEW, || {
        for hw in 0..=u16::MAX {
            black_box(runner.run(hw));
        }
    });
    m.put("glitch-emu.trial_ns", t * 1e9 / 65_536.0, "ns");
}

/// Pruning the boot firmware's fault space, `MultiFaultRunner` and
/// `DivergenceRunner` trials, and the exact pruning and replay counts.
fn faultsim(m: &mut Metrics) {
    let image = boot_image();
    let cfg = Config::default();
    let registry = Registry::standard();
    let prune = time_median(FEW, || {
        let scope = sites(&image, cfg, &gd_faultsim::SCOPE_FUNCS);
        let slots = halfword_slots(&image, &gd_faultsim::SCOPE_FUNCS);
        for (i, model) in registry.models().iter().enumerate() {
            black_box(prune_model(i, model.as_ref(), &scope, slots, cfg));
        }
    });

    let campaign = gd_faultsim::boot_campaign();
    let mut runner = campaign.runner();
    let reps: Vec<_> = campaign.per_model[0]
        .classes
        .iter()
        .filter(|c| c.outcome.is_none())
        .map(|c| c.rep())
        .collect();
    let trial = time_median(FEW, || {
        for f in &reps {
            black_box(runner.run(std::slice::from_ref(f)));
        }
    }) / reps.len().max(1) as f64;

    let ing = ingest_demo();
    let wide = wide_cfg();
    let funcs: Vec<&str> = ing.image.extents.iter().map(|e| e.name.as_str()).collect();
    let ranges: Vec<(u32, u32)> = ing.image.extents.iter().map(|e| (e.base, e.end)).collect();
    let classes = prune_model(
        0,
        registry.models()[0].as_ref(),
        &sites(&ing.image, wide, &funcs),
        halfword_slots(&ing.image, &funcs),
        wide,
    );
    let mut divergence = DivergenceRunner::new(&ing.image, wide, &ranges, Some(DEMO_WATCH));
    let dreps: Vec<_> =
        classes.classes.iter().filter(|c| c.outcome.is_none()).map(|c| c.rep()).collect();
    let dtrial = time_median(REPS, || {
        for f in &dreps {
            black_box(divergence.run(std::slice::from_ref(f)));
        }
    }) / dreps.len().max(1) as f64;

    let mut order1 = gd_faultsim::MfStats::default();
    for model in 0..campaign.per_model.len() {
        order1.merge(&campaign.order1_stats(model));
    }
    m.put("faultsim.prune_ms", prune * 1e3, "ms");
    m.put("faultsim.trial_ns", trial * 1e9, "ns");
    m.put("faultsim.divergence_trial_ns", dtrial * 1e9, "ns");
    m.put("faultsim.pruned_frac", order1.pruned as f64 / order1.enumerated.max(1) as f64, "ratio");
    m.put("faultsim.simulated", order1.simulated as f64, "count");
    m.put("faultsim.replayed_steps", (runner.replayed() + divergence.replayed()) as f64, "count");
}

/// Ingesting the demo image, recovering its CFG, and linting it.
fn analysis(m: &mut Metrics) {
    let ingest = time_median(REPS, || gd_ingest::ingest_bin(DEMO_BIN, DEMO_BASE).expect("ingests"));
    let ing = ingest_demo();
    let recover = time_median(REPS, || gd_cfg::recover(&ing.image, wide_cfg()));
    let lint = time_median(REPS, || gd_lint::lint_image(&ing.image));
    m.put("cfg.recover_ms", recover * 1e3, "ms");
    m.put("lint.image_ms", lint * 1e3, "ms");
    m.put("ingest.bin_us", ingest * 1e6, "us");
}

/// Engine overhead on the served campaign shape, its content address,
/// and the engine's store write path.
fn campaign(m: &mut Metrics, p: &mut Probes, tally: &mut Tally) {
    let spec = one_cycle();
    let engine = Engine::ephemeral();
    let mut shard_ms = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..FEW {
        let t = Instant::now();
        let (result, shards) = run_timed(&engine, &spec);
        runs.push(t.elapsed().as_secs_f64());
        tally.check(result.is_ok(), || format!("overhead probe: {:?}", result.err()));
        shard_ms.extend(shards);
    }
    // The direct call: the per-cycle body of `glitch_tables::table1`.
    let model = FaultModel::default();
    let direct = time_median(FEW, || {
        for (name, src) in targets::table1_guards() {
            let dev = Device::from_asm(src).expect("guard assembles");
            black_box(scan_cell(&dev, &model, 0, 0, 1, &guard_spec(), Some(post_mortem_reg(name))));
        }
    });
    let key = spec.cache_key().expect("spec hashes");
    let key_s = time_median(REPS, || spec.cache_key().expect("spec hashes"));

    // The engine's own write of a finished result: with every shard
    // checkpointed and the cached result removed, `Engine::run` loads the
    // checkpoints, merges, renders, and writes the sealed cache file
    // through its synced temp file and rename, with no shard to dispatch.
    let store = fresh_dir("write");
    let engine = Engine::with_store(&store);
    let first = engine.run(&spec);
    tally.check(first.is_ok(), || format!("store-write probe: {:?}", first.err()));
    let cached = store.join("cache").join(format!("{key}.json"));
    let write: Vec<f64> = (0..FEW)
        .map(|_| {
            let _ = std::fs::remove_file(&cached);
            let t = Instant::now();
            let out = engine.run(&spec);
            let s = t.elapsed().as_secs_f64();
            tally.check(out.is_ok() && cached.is_file(), || {
                format!("store-write probe: {:?} wrote no cache file", out.err())
            });
            s
        })
        .collect();
    tally.check(engine.executed() == 3, || {
        format!("store-write probe: {} shards executed, expected 3", engine.executed())
    });
    let _ = std::fs::remove_dir_all(&store);
    m.put("campaign.overhead_ms", (median(&runs) - direct) * 1e3, "ms");
    m.put("campaign.cache_key_us", key_s * 1e6, "us");
    m.put("campaign.store_write_ms", median(&write) * 1e3, "ms");
    p.shard_ms_p50 = quantile(&shard_ms, 0.5);
    p.shard_ms_max = quantile(&shard_ms, 1.0);
}

/// One cold submission to an idle store-backed service and one warm
/// resubmission of it, then cache lookups, status round trips, and result
/// parses against it.
fn service(m: &mut Metrics, p: &mut Probes, tr: &Tracer, tally: &mut Tally) {
    let spec = one_cycle();
    let body = spec.to_json().to_string_compact().expect("spec serializes");
    let (server, store) = match served::start() {
        Ok(s) => s,
        Err(e) => {
            tally.fail(format!("service probe: {e}"));
            return;
        }
    };
    let addr = server.addr().to_string();
    let trace = (tr, tr.new_trace(), "probe");
    let warm = |reply| {
        let again =
            served::roundtrip(&addr, &body, served::WARM_POLL, (tr, tr.new_trace(), "probe"));
        again.map(|warm| (reply, warm))
    };
    match served::roundtrip(&addr, &body, served::WARM_POLL, trace).and_then(warm) {
        Ok((reply, warm)) => {
            tally.check(warm.text == reply.text, || {
                "service probe: the warm result differs from the cold one".into()
            });
            p.queue_wait_ms = reply.queue_wait_ms;
            let status = format!("/campaigns/{}", reply.id);
            let roundtrip =
                time_median(REPS, || gd_campaign::http::request(&addr, "GET", &status, None));
            let json = gd_campaign::http::request(&addr, "GET", &format!("{status}/results"), None)
                .map(|(_, b)| b)
                .unwrap_or_default();
            let parse = time_median(REPS, || CampaignResult::from_json_text(&json));
            tally.check(CampaignResult::from_json_text(&json).is_ok(), || {
                "service probe: the JSON result does not parse".into()
            });
            let key = spec.cache_key().expect("spec hashes");
            let engine = Engine::with_store(&store);
            let lookup = time_median(REPS, || engine.cache_lookup(&key));
            tally.check(engine.cache_lookup(&key).is_some(), || {
                "service probe: the finished campaign is not in the cache".into()
            });
            m.put("campaign.cache_lookup_us", lookup * 1e6, "us");
            m.put("service.roundtrip_us", roundtrip * 1e6, "us");
            m.put("json.result_parse_us", parse * 1e6, "us");
        }
        Err(e) => tally.fail(format!("service probe: {e}")),
    }
    if let Err(e) = served::stop(server, &store) {
        tally.fail(format!("service probe shutdown: {e}"));
    }
}
