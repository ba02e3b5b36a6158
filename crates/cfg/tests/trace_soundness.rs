//! Trace soundness: every `(pc → pc')` transition an *unfaulted*
//! emulator run performs must be an edge the recovered CFG explains.
//!
//! This is the foundational property under the agreement harness — if
//! honest execution already escapes the graph, the glitch-reachability
//! verdicts built on it mean nothing. The property runs over every
//! Table IV defense configuration of `firmware::boot` (picked by the
//! deterministic case harness) and over the ingest demo under wide
//! decode.

use gd_cfg::recover;
use gd_emu::{StepOutcome, StopReason};
use glitch_resistor::{harden, Config as GrConfig, Defenses};

/// Generous step bound; the boot fixture finishes in a few hundred
/// steps even fully hardened, and the demo in a couple dozen.
const MAX_STEPS: u64 = 100_000;

/// Steps `image` from reset to its stop, asserting every transition is
/// explained by the recovered graph.
fn assert_trace_covered(image: &gd_backend::FirmwareImage, cfg: gd_emu::Config, label: &str) {
    let g = recover(image, cfg);
    let mut emu = image.boot_emu();
    emu.cfg = cfg;
    let mut steps = 0u64;
    loop {
        assert!(steps < MAX_STEPS, "{label}: unfaulted run did not stop");
        steps += 1;
        let addr = emu.pc();
        match emu.step() {
            Ok(StepOutcome::Step(s)) => {
                assert!(
                    g.has_transition(addr, emu.pc()),
                    "{label}: transition {:#010x} -> {:#010x} ({:?}, branched={}) \
                     is not a CFG edge",
                    addr,
                    emu.pc(),
                    s.instr,
                    s.branched,
                );
            }
            Ok(StepOutcome::Stop { reason, addr }) => {
                // The trace ends at a stop the graph also knows about.
                assert!(
                    matches!(reason, StopReason::Bkpt(_)),
                    "{label}: unexpected stop {reason:?} at {addr:#010x}"
                );
                break;
            }
            Err(f) => panic!("{label}: unfaulted run faulted: {f:?}"),
        }
    }
}

#[test]
fn boot_traces_are_cfg_paths_at_every_table4_config() {
    let configs: Vec<(&str, Defenses)> = vec![
        ("None", Defenses::NONE),
        ("Branches", Defenses::BRANCHES),
        ("Delay", Defenses::DELAY),
        ("Integrity", Defenses::INTEGRITY),
        ("Loops", Defenses::LOOPS),
        ("Returns", Defenses::RETURNS),
        ("All\\Delay", Defenses::ALL_EXCEPT_DELAY),
        ("All", Defenses::ALL),
    ];
    // One property case per configuration: the case harness picks the
    // config from its deterministic stream, so a failure report names
    // the reproducing case index.
    gd_exec::check::cases(configs.len() as u64, "boot trace is a CFG path", |rng| {
        let (name, defenses) = configs[(rng.u32() as usize) % configs.len()];
        let mut m = gd_firmware::boot();
        harden(&mut m, &GrConfig::new(defenses));
        let image = gd_backend::compile(&m, "main").expect("boot lowers");
        assert_trace_covered(&image, gd_emu::Config::default(), name);
    });
}

#[test]
fn ingest_demo_trace_is_a_cfg_path() {
    let ing = gd_ingest::ingest_bin(&gd_ingest::testimg::demo_bin(), gd_ingest::testimg::DEMO_BASE)
        .expect("demo ingests");
    let cfg = gd_emu::Config { wide: true, ..gd_emu::Config::default() };
    assert_trace_covered(&ing.image, cfg, "ingest demo");
}
