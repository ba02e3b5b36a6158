//! The third-party-firmware ingestion driver over the committed demo
//! image (`testdata/ingest_demo.bin`).
//!
//! - no arguments: the ingestion report (extents, spec JSON, ELF
//!   cross-check) — the `results/ingest_demo.txt` artifact.
//! - `--lint`: the `GL02xx` glitch-surface report over the ingested
//!   image — `results/lint_ingest.txt`.
//! - `--faultsim`: first-order xor1.t / xor2.t divergence campaigns over
//!   the ingested image — `results/multifault_ingest.txt`. Output is
//!   bit-identical at any `GD_THREADS`: the class list is chunked at a
//!   fixed size and tallies merge in chunk order.

use std::process::ExitCode;

use gd_emu::Config;
use gd_faultsim::{halfword_slots, prune_model, sites, DivergenceRunner, FaultClass, Registry};
use gd_glitch_emu::{Outcome, Tally};
use gd_ingest::testimg::{demo_elf, DEMO_WATCH};
use gd_ingest::{IngestSpec, Ingested};
use gd_lint::{LintReport, Severity, Suppressions};

/// Registry indices the ingested campaign sweeps (xor1.t, xor2.t).
const MODELS: [usize; 2] = [0, 2];

/// Fixed chunk size for the trial fan-out. The partition depends only on
/// the class list, never on the worker count, so tallies merge to the
/// same bytes at any `GD_THREADS`.
const CHUNK: usize = 64;

fn demo_blob() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/ingest_demo.bin");
    std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn ingest_demo() -> Ingested {
    gd_ingest::ingest_bin(&demo_blob(), gd_ingest::testimg::DEMO_BASE).expect("demo blob ingests")
}

/// The emulator configuration every ingested-image analysis runs under:
/// third-party code is free to use the Thumb-2 wide encodings the
/// workspace compiler's ARMv6-M subset avoids.
fn wide_cfg() -> Config {
    Config { wide: true, ..Config::default() }
}

fn report_one(out: &mut String, label: &str, ing: &Ingested) {
    out.push_str(&format!("== {label} ==\n"));
    out.push_str(&format!("format:   {}\n", ing.format.label()));
    out.push_str(&format!("base:     {:#010x}\n", ing.image.text_base));
    out.push_str(&format!("entry:    {:#010x}\n", ing.image.entry));
    out.push_str(&format!("sp:       {:#010x}\n", ing.sp));
    out.push_str(&format!(
        "text:     {} bytes ({} pool bytes excluded from code)\n",
        ing.image.text.len(),
        ing.pool_bytes(),
    ));
    out.push_str("extents:\n");
    for e in &ing.image.extents {
        out.push_str(&format!(
            "  {:<12} {:#010x}..{:#010x}  code ends {:#010x}\n",
            e.name, e.base, e.end, e.code_end,
        ));
    }
    out.push_str("spec:\n");
    out.push_str(&ing.spec().to_json_text());
    out.push('\n');
}

/// The `results/ingest_demo.txt` report: the committed raw dump, the
/// same image through the ELF path, and the invariants tying them.
fn report() -> String {
    let mut out = String::new();
    out.push_str(&"-".repeat(60));
    out.push('\n');
    out.push_str("Ingestion — testdata/ingest_demo.bin\n");
    out.push_str(&"-".repeat(60));
    out.push('\n');
    let bin = ingest_demo();
    report_one(&mut out, "raw dump", &bin);
    let elf = gd_ingest::ingest_elf(&demo_elf()).expect("demo ELF ingests");
    report_one(&mut out, "ELF cross-check (in-memory wrap of the same bytes)", &elf);
    let spec = bin.spec().to_json().to_string_compact().expect("spec serializes");
    let round = IngestSpec::from_json_text(&spec).expect("spec round-trips");
    out.push_str(&format!(
        "cross-check: text bytes agree: {}; pool bytes agree: {}; spec round-trips: {}\n",
        elf.image.text == bin.image.text,
        elf.pool_bytes() == bin.pool_bytes(),
        round == bin.spec(),
    ));
    out
}

/// The `results/lint_ingest.txt` report: `GL02xx` over both ingestion
/// paths — the raw dump sees one `reset` routine, the ELF's symbols
/// split the same bytes into `reset` + `check`.
fn lint_report() -> String {
    let mut out = String::new();
    for (label, ing) in [
        ("raw dump (vector-table extents)", ingest_demo()),
        ("ELF (symbol extents)", gd_ingest::ingest_elf(&demo_elf()).expect("demo ELF ingests")),
    ] {
        let (findings, sensitivity) = gd_lint::lint_image(&ing.image);
        let report = LintReport::new(findings, &Suppressions::default());
        out.push_str(&format!("== {label} ==\n"));
        out.push_str(&report.render_text(Severity::Warning));
        out.push_str("-- glitch sensitivity --\n");
        for (func, s) in &sensitivity {
            out.push_str(&format!(
                "{func}: {} branches, {} diverting flips \
                 ({} inverted, {} unconditional, {} fall-through)\n",
                s.branches,
                s.diversions(),
                s.inverted,
                s.unconditional,
                s.fall_through,
            ));
        }
    }
    out
}

/// One first-order divergence campaign over the ingested image.
fn order1(ing: &Ingested, model_idx: usize) -> (Tally, u64, u64, u64) {
    let cfg = wide_cfg();
    let funcs: Vec<&str> = ing.image.extents.iter().map(|e| e.name.as_str()).collect();
    let scope_sites = sites(&ing.image, cfg, &funcs);
    let slots = halfword_slots(&ing.image, &funcs);
    let registry = Registry::standard();
    let mc =
        prune_model(model_idx, registry.models()[model_idx].as_ref(), &scope_sites, slots, cfg);
    let ranges: Vec<(u32, u32)> = ing.image.extents.iter().map(|e| (e.base, e.end)).collect();
    let tallies = gd_exec::par_map_chunks(&mc.classes, CHUNK, |chunk| {
        let mut runner = DivergenceRunner::new(&ing.image, cfg, &ranges, Some(DEMO_WATCH));
        let mut tally = Tally::default();
        for class in chunk.items {
            let outcome = match class.outcome {
                Some(o) => o,
                None => runner.run(&[class.rep()]),
            };
            tally.record_n(outcome, class.weight());
        }
        tally
    });
    let mut tally = Tally::default();
    for t in &tallies {
        tally.merge(t);
    }
    // Candidates at halfwords the walk never visits (the pool) never
    // fire with fetch-stage injection: No Effect.
    tally.record_n(
        Outcome::NoEffect,
        mc.enumerated - mc.classes.iter().map(FaultClass::weight).sum::<u64>(),
    );
    debug_assert_eq!(tally.total(), mc.enumerated);
    (tally, mc.enumerated, mc.pruned(), mc.simulated)
}

fn row(out: &mut String, label: &str, tally: &Tally, enumerated: u64, pruned: u64, simulated: u64) {
    out.push_str(&format!("{label:<10} {enumerated:>10} {simulated:>9} {pruned:>10}"));
    for o in Outcome::ALL {
        let w = o.label().len().max(9);
        out.push_str(&format!("  {:>w$}", tally.count(o)));
    }
    out.push('\n');
}

/// The `results/multifault_ingest.txt` report.
fn faultsim_report() -> String {
    let ing = ingest_demo();
    let names = Registry::standard().names();
    let mut out = String::new();
    out.push_str(&"-".repeat(60));
    out.push('\n');
    out.push_str(&format!(
        "Divergence campaigns — ingested testdata/ingest_demo.bin ({})\n",
        ing.image.extents.iter().map(|e| e.name.as_str()).collect::<Vec<_>>().join(", "),
    ));
    out.push_str(&"-".repeat(60));
    out.push('\n');
    out.push_str("Order 1 — one armed fault per trial, baseline-divergence taxonomy\n");
    let mut header =
        format!("{:<10} {:>10} {:>9} {:>10}", "Model", "Enumerated", "Simulated", "Pruned");
    for o in Outcome::ALL {
        header.push_str(&format!("  {:>9}", o.label()));
    }
    header.push('\n');
    out.push_str(&header);
    let (mut enumerated, mut pruned, mut simulated) = (0u64, 0u64, 0u64);
    for model in MODELS {
        let (tally, e, p, s) = order1(&ing, model);
        row(&mut out, names[model], &tally, e, p, s);
        enumerated += e;
        pruned += p;
        simulated += s;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            gd_bench::emit(&report());
            ExitCode::SUCCESS
        }
        Some("--lint") => {
            gd_bench::emit(&lint_report());
            ExitCode::SUCCESS
        }
        Some("--faultsim") => {
            gd_bench::emit(&faultsim_report());
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown argument `{other}` (try --lint, --faultsim)");
            ExitCode::FAILURE
        }
    }
}
