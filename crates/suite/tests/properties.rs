//! Property-based tests across the stack: codec round-trips, differential
//! execution of generated programs, and semantics preservation under
//! hardening.
//!
//! Generation runs on the in-repo deterministic harness
//! ([`gd_exec::check`]) — xorshift64* inputs, fixed case counts, and a
//! failing-input report — so the suite needs no external crates and
//! reproduces identically offline. Case counts match the harness this
//! suite previously ran under (256 default, 48 for compiled-program
//! properties, 64 for byte-soup robustness).

use gd_exec::check::{cases, Rng};
use gd_ir::{parse_module, print_module, verify_module, Interpreter, RtVal};
use glitching_demystified::prelude::*;

// ---------------------------------------------------------------------
// Thumb codec properties
// ---------------------------------------------------------------------

/// Any defined halfword re-encodes to itself (the glitch emulator's
/// correctness hinges on this canonicity).
#[test]
fn decode_encode_canonical() {
    cases(256, "decode_encode_canonical", |rng| {
        let hw = rng.u16();
        if let Ok(instr) = gd_thumb::decode16(hw) {
            assert_eq!(instr.encode(), gd_thumb::Encoding::Half(hw), "hw = {hw:#06x}");
        }
    });
}

/// Disassembling a defined instruction and re-assembling it yields the
/// original encoding (text round trip).
#[test]
fn disasm_asm_round_trip() {
    cases(256, "disasm_asm_round_trip", |rng| {
        let hw = rng.u16();
        // Skip branches: their textual form (`beq .+6`) is origin-relative
        // and covered by dedicated tests.
        if let Ok(instr) = gd_thumb::decode16(hw) {
            if instr.is_branch() || matches!(instr, gd_thumb::Instr::BCond { .. }) {
                return;
            }
            let text = instr.to_string();
            let prog = gd_thumb::asm::assemble(&text, 0)
                .unwrap_or_else(|e| panic!("`{text}` ({hw:#06x}) failed to re-assemble: {e}"));
            assert_eq!(&prog.code, &hw.to_le_bytes(), "hw = {hw:#06x}: {text}");
        }
    });
}

/// AND-direction perturbation never sets bits; OR never clears them.
#[test]
fn perturbation_directions() {
    cases(256, "perturbation_directions", |rng| {
        use gd_glitch_emu::Direction;
        let (hw, mask) = (rng.u16(), rng.u16());
        let anded = Direction::And.apply(hw, mask);
        let orred = Direction::Or.apply(hw, mask);
        assert_eq!(anded & hw, anded, "AND only clears: hw={hw:#06x} mask={mask:#06x}");
        assert_eq!(orred | hw, orred, "OR only sets: hw={hw:#06x} mask={mask:#06x}");
        assert_eq!(Direction::Xor.apply(hw, mask), hw ^ mask, "hw={hw:#06x} mask={mask:#06x}");
    });
}

// ---------------------------------------------------------------------
// Reed–Solomon properties
// ---------------------------------------------------------------------

/// Every systematic codeword checks; any single byte flip is caught.
#[test]
fn rs_detects_any_single_byte_error() {
    cases(256, "rs_detects_any_single_byte_error", |rng| {
        let (m0, m1) = (rng.u8(), rng.u8());
        let pos = rng.usize(0, 6);
        let flip = rng.range(1, 256) as u8;
        let rs = gd_rs_ecc::RsEncoder::new(4);
        let cw = rs.encode(&[m0, m1]);
        assert!(rs.check(&cw), "m=({m0:#x},{m1:#x})");
        let mut bad = cw.clone();
        bad[pos] ^= flip;
        assert!(!rs.check(&bad), "m=({m0:#x},{m1:#x}) pos={pos} flip={flip:#x}");
    });
}

/// Diversified constant sets keep their pairwise distance guarantee.
#[test]
fn rs_constants_keep_distance() {
    cases(256, "rs_constants_keep_distance", |rng| {
        let count = rng.range(2, 64) as u32;
        let values = gd_rs_ecc::diversified_constants(count);
        assert!(gd_rs_ecc::min_pairwise_distance(&values) >= 8, "count = {count}");
    });
}

// ---------------------------------------------------------------------
// Generated-program differential execution
// ---------------------------------------------------------------------

/// A tiny random straight-line program over two variables, in IR text.
fn arb_program(rng: &mut Rng) -> String {
    const OPS: [&str; 6] = ["add", "sub", "mul", "and", "or", "xor"];
    let steps = rng.usize(1, 12);
    let mut body = String::new();
    let mut names = ["%x".to_owned(), "%y".to_owned()];
    for i in 0..steps {
        let op = *rng.choose(&OPS);
        let which = rng.usize(0, 2);
        let c = rng.i64() & 0xFFFF;
        let lhs = &names[which];
        body.push_str(&format!("  %v{i} = {op} i32 {lhs}, {c}\n"));
        names[which] = format!("%v{i}");
    }
    format!(
        "fn @main() -> i32 {{\nentry:\n  %x = add i32 3, 0\n  %y = add i32 5, 0\n{body}  %r = xor i32 {}, {}\n  ret i32 %r\n}}\n",
        names[0], names[1]
    )
}

/// Compiled code and the reference interpreter agree on every random
/// straight-line program.
#[test]
fn native_matches_interpreter() {
    cases(48, "native_matches_interpreter", |rng| {
        let src = arb_program(rng);
        let module = parse_module(&src).unwrap();
        verify_module(&module).unwrap();
        let mut interp = Interpreter::new(&module);
        let expected = interp.run("main", &[], &mut |_, _| RtVal::Int(0)).unwrap().int() as u32;

        let image = compile(&module, "main").unwrap();
        let mut emu = image.boot_emu();
        emu.run(1_000_000);
        assert_eq!(emu.cpu.reg(Reg::R0), expected, "{src}");
    });
}

/// Hardening never changes the computed result of a clean run.
#[test]
fn hardening_preserves_semantics() {
    cases(48, "hardening_preserves_semantics", |rng| {
        let src = arb_program(rng);
        let module = parse_module(&src).unwrap();
        let mut interp = Interpreter::new(&module);
        let expected = interp.run("main", &[], &mut |_, _| RtVal::Int(0)).unwrap().int() as u32;

        let mut hardened = module.clone();
        harden(&mut hardened, &Config::new(Defenses::ALL_EXCEPT_DELAY));
        verify_module(&hardened).unwrap();
        let image = compile(&hardened, "main").unwrap();
        let mut emu = image.boot_emu();
        emu.run(2_000_000);
        assert_eq!(emu.cpu.reg(Reg::R0), expected, "{src}");
    });
}

/// The IR text format is a fixed point of print ∘ parse.
#[test]
fn ir_print_parse_fixed_point() {
    cases(48, "ir_print_parse_fixed_point", |rng| {
        let src = arb_program(rng);
        let module = parse_module(&src).unwrap();
        let printed = print_module(&module);
        let reparsed = parse_module(&printed).unwrap();
        assert_eq!(print_module(&reparsed), printed, "{src}");
    });
}

// ---------------------------------------------------------------------
// Fault-model invariants
// ---------------------------------------------------------------------

/// The violation landscape is a pure function of its inputs.
#[test]
fn fault_landscape_deterministic() {
    cases(256, "fault_landscape_deterministic", |rng| {
        let w = rng.i8_in(-49, 49);
        let o = rng.i8_in(-49, 49);
        let m = FaultModel::default();
        assert_eq!(m.severity(w, o), m.severity(w, o), "w={w} o={o}");
        assert!((0.0..=1.0).contains(&m.severity(w, o)), "w={w} o={o}");
    });
}

// ---------------------------------------------------------------------
// Robustness: random byte soup must never panic the emulator
// ---------------------------------------------------------------------

/// Executing arbitrary bytes produces a classified outcome, never a
/// panic — the glitch experiments depend on this totality.
#[test]
fn emulator_survives_byte_soup() {
    cases(64, "emulator_survives_byte_soup", |rng| {
        let code = rng.vec(2, 256, |r| r.u8());
        let mut emu = gd_emu::Emu::new();
        emu.mem.map("flash", 0, 0x1000, gd_emu::Perms::RX).unwrap();
        emu.mem.map("sram", 0x2000_0000, 0x1000, gd_emu::Perms::RW).unwrap();
        emu.mem.load(0, &code).unwrap();
        emu.set_pc(0);
        emu.cpu.set_sp(0x2000_0FF8);
        let _ = emu.run(2_000); // outcome irrelevant; absence of panic is the property
    });
}

/// The pipeline wrapper is equally total, including under random
/// injected faults.
#[test]
fn pipeline_survives_byte_soup_with_faults() {
    cases(64, "pipeline_survives_byte_soup_with_faults", |rng| {
        let code = rng.vec(2, 128, |r| r.u8());
        let masks = rng.vec(1, 8, |r| r.u16());
        let mut emu = gd_emu::Emu::new();
        emu.mem.map("flash", 0, 0x1000, gd_emu::Perms::RX).unwrap();
        emu.mem.map("sram", 0x2000_0000, 0x1000, gd_emu::Perms::RW).unwrap();
        emu.mem.load(0, &code).unwrap();
        emu.set_pc(0);
        emu.cpu.set_sp(0x2000_0FF8);
        let mut pipe = gd_pipeline::Pipeline::new(emu);
        let mut i = 0usize;
        let _ = pipe.run_with(2_000, |_| {
            i = (i + 1) % masks.len();
            if i.is_multiple_of(3) {
                vec![gd_pipeline::StageFault::CorruptExec { and_mask: masks[i] }]
            } else {
                Vec::new()
            }
        });
    });
}
