//! Differential execution tests: every program must compute the same
//! result compiled-and-emulated as it does under the IR reference
//! interpreter, and hardened binaries must behave like unhardened ones.

use gd_backend::compile;
use gd_emu::{RunOutcome, StopReason};
use gd_ir::{parse_module, verify_module, Interpreter, RtVal};
use gd_thumb::Reg;
use glitch_resistor::{harden, Config, Defenses};

/// Compiles and runs `main` on the emulator; returns r0 at the final bkpt.
fn run_native(src: &str) -> u32 {
    let m = parse_module(src).unwrap();
    verify_module(&m).unwrap();
    let image = compile(&m, "main").unwrap_or_else(|e| panic!("{e}"));
    let mut emu = image.boot_emu();
    match emu.run(2_000_000) {
        RunOutcome::Stop { reason: StopReason::Bkpt(0), .. } => emu.cpu.reg(Reg::R0),
        other => panic!("expected clean halt, got {other:?}"),
    }
}

/// Runs `main` under the reference interpreter.
fn run_interp(src: &str) -> u32 {
    let m = parse_module(src).unwrap();
    let mut interp = Interpreter::new(&m);
    interp.fuel = 10_000_000;
    interp.run("main", &[], &mut |_, _| RtVal::Int(0)).unwrap().int() as u32
}

fn differential(src: &str) -> u32 {
    let native = run_native(src);
    let reference = run_interp(src);
    assert_eq!(native, reference, "native vs interpreter disagree for:\n{src}");
    native
}

#[test]
fn constants_and_arithmetic() {
    assert_eq!(
        differential("fn @main() -> i32 {\nentry:\n  %1 = add i32 40, 2\n  ret i32 %1\n}\n"),
        42
    );
    assert_eq!(
        differential(
            "fn @main() -> i32 {\nentry:\n  %1 = mul i32 6, 7\n  %2 = sub i32 %1, 2\n  %3 = xor i32 %2, 0xFF\n  ret i32 %3\n}\n"
        ),
        (6 * 7 - 2) ^ 0xFF
    );
}

#[test]
fn big_constants_come_from_the_literal_pool() {
    assert_eq!(
        differential(
            "fn @main() -> i32 {\nentry:\n  %1 = add i32 0xD3B9AEC6, 0\n  ret i32 %1\n}\n"
        ),
        0xD3B9_AEC6
    );
    // Shifted-immediate and inverted-immediate shortcuts.
    assert_eq!(
        differential("fn @main() -> i32 {\nentry:\n  %1 = add i32 0x1FE000, 0\n  ret i32 %1\n}\n"),
        0x1FE000
    );
    assert_eq!(
        differential(
            "fn @main() -> i32 {\nentry:\n  %1 = add i32 0xFFFFFF7F, 0\n  ret i32 %1\n}\n"
        ),
        0xFFFF_FF7F
    );
}

#[test]
fn shifts_and_division() {
    let src = "
fn @main() -> i32 {
entry:
  %1 = shl i32 1, 20
  %2 = lshr i32 %1, 4
  %3 = ashr i32 0xFFFFFF00, 4
  %4 = and i32 %3, 0xFF
  %5 = add i32 %2, %4
  %6 = udiv i32 %5, 7
  %7 = urem i32 %5, 7
  %8 = add i32 %6, %7
  ret i32 %8
}
";
    differential(src);
}

#[test]
fn division_by_zero_is_total() {
    let src = "
fn @main() -> i32 {
entry:
  %1 = udiv i32 100, 0
  %2 = urem i32 77, 0
  %3 = add i32 %1, %2
  ret i32 %3
}
";
    assert_eq!(differential(src), 77);
}

#[test]
fn control_flow_and_compares() {
    for (a, b) in [(3i64, 4i64), (4, 3), (3, 3), (-1, 0)] {
        let src = format!(
            "fn @main() -> i32 {{\nentry:\n  %1 = icmp slt i32 {a}, {b}\n  br %1, t, f\nt:\n  ret i32 1\nf:\n  ret i32 0\n}}\n"
        );
        differential(&src);
    }
    for (a, b) in [(1i64, 2i64), (0xFFFF_FFFF, 0), (5, 5)] {
        let src = format!(
            "fn @main() -> i32 {{\nentry:\n  %1 = icmp ult i32 {a}, {b}\n  br %1, t, f\nt:\n  ret i32 1\nf:\n  ret i32 0\n}}\n"
        );
        differential(&src);
    }
}

#[test]
fn loops_with_phis() {
    let src = "
fn @main() -> i32 {
entry:
  br loop
loop:
  %i = phi i32 [ 0, entry ], [ %i2, loop ]
  %acc = phi i32 [ 0, entry ], [ %acc2, loop ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %c = icmp ule i32 %i2, 10
  br %c, loop, done
done:
  ret i32 %acc2
}
";
    assert_eq!(differential(src), (0..=10).sum::<u32>());
}

#[test]
fn swap_phis_do_not_lose_values() {
    // Classic parallel-copy hazard: two phis exchanging values each trip.
    let src = "
fn @main() -> i32 {
entry:
  br loop
loop:
  %a = phi i32 [ 1, entry ], [ %b, loop ]
  %b = phi i32 [ 2, entry ], [ %a, loop ]
  %i = phi i32 [ 0, entry ], [ %i2, loop ]
  %i2 = add i32 %i, 1
  %c = icmp ult i32 %i2, 5
  br %c, loop, done
done:
  %r = shl i32 %a, 8
  %r2 = or i32 %r, %b
  ret i32 %r2
}
";
    // The back edge is taken four times (i2 = 1..=4): an even number of
    // swaps leaves a = 1, b = 2.
    assert_eq!(differential(src), 0x0102);
}

#[test]
fn globals_and_memory() {
    let src = "
global @counter : i32 = 5
global @zeroed : i32 = 0
fn @main() -> i32 {
entry:
  %p = globaladdr @counter
  %v = load i32, %p
  %v2 = add i32 %v, 10
  store i32 %v2, %p
  %q = globaladdr @zeroed
  %w = load i32, %q
  %r = add i32 %v2, %w
  ret i32 %r
}
";
    assert_eq!(differential(src), 15);
}

#[test]
fn narrow_types_wrap_correctly() {
    let src = "
fn @main() -> i32 {
entry:
  %1 = add i8 200, 100
  %2 = cast i8 %1 to i32
  %3 = add i16 0xFFFF, 2
  %4 = cast i16 %3 to i32
  %5 = shl i32 %4, 8
  %6 = or i32 %5, %2
  ret i32 %6
}
";
    // i8: 300 & 0xFF = 44; i16: 0x10001 & 0xFFFF = 1 → 0x0100 | 44.
    assert_eq!(differential(src), 0x100 | 44);
}

#[test]
fn alloca_and_stack_round_trip() {
    let src = "
fn @main() -> i32 {
entry:
  %s = alloca i32
  store i32 0xCAFE, %s
  %v = load i32, %s
  ret i32 %v
}
";
    assert_eq!(differential(src), 0xCAFE);
}

#[test]
fn calls_with_arguments_and_results() {
    let src = "
fn @mac(%a: i32, %b: i32, %c: i32) -> i32 {
entry:
  %1 = mul i32 %a, %b
  %2 = add i32 %1, %c
  ret i32 %2
}
fn @main() -> i32 {
entry:
  %1 = call i32 @mac(6, 7, 8)
  %2 = call i32 @mac(%1, 2, 0)
  ret i32 %2
}
";
    assert_eq!(differential(src), (6 * 7 + 8) * 2);
}

#[test]
fn recursion_works() {
    let src = "
fn @fact(%n: i32) -> i32 {
entry:
  %c = icmp ule i32 %n, 1
  br %c, base, rec
base:
  ret i32 1
rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fact(%n1)
  %p = mul i32 %n, %r
  ret i32 %p
}
fn @main() -> i32 {
entry:
  %r = call i32 @fact(6)
  ret i32 %r
}
";
    assert_eq!(differential(src), 720);
}

#[test]
fn not_and_i1_handling() {
    let src = "
fn @main() -> i32 {
entry:
  %1 = not i32 0
  %2 = icmp eq i32 %1, 0xFFFFFFFF
  %3 = cast i1 %2 to i32
  ret i32 %3
}
";
    assert_eq!(differential(src), 1);
}

#[test]
fn hardened_firmware_computes_the_same_results() {
    let src = "
enum Status { FAILURE, SUCCESS }
global @tick : i32 = 0 sensitive

fn @get_status(%sig: i32) -> i32 {
entry:
  %ok = icmp eq i32 %sig, 0x1234
  br %ok, good, bad
good:
  ret i32 1
bad:
  ret i32 0
}

fn @main() -> i32 {
entry:
  %p = globaladdr @tick
  %t = load i32, %p
  %t2 = add i32 %t, 1
  store i32 %t2, %p
  %r = call i32 @get_status(0x1234)
  %c = icmp eq i32 %r, 1
  br %c, boot, halt
boot:
  ret i32 100
halt:
  ret i32 200
}
";
    let plain = run_native(src);
    assert_eq!(plain, 100);
    for defenses in [
        Defenses::BRANCHES,
        Defenses::LOOPS,
        Defenses::INTEGRITY,
        Defenses::RETURNS,
        Defenses::ENUMS,
        Defenses::ALL_EXCEPT_DELAY,
        Defenses::ALL,
    ] {
        let mut m = parse_module(src).unwrap();
        harden(&mut m, &Config::new(defenses));
        verify_module(&m).unwrap();
        let image = compile(&m, "main").unwrap_or_else(|e| panic!("{defenses:?}: {e}"));
        let mut emu = image.boot_emu();
        match emu.run(5_000_000) {
            RunOutcome::Stop { reason: StopReason::Bkpt(0), .. } => {
                assert_eq!(emu.cpu.reg(Reg::R0), 100, "{defenses:?}");
            }
            other => panic!("{defenses:?}: expected clean halt, got {other:?}"),
        }
        // No detection fired.
        let flag_addr = image.symbols.get("__gr_detect_flag").copied();
        if let Some(addr) = flag_addr {
            let flag = emu.mem.read32(addr).unwrap();
            assert_eq!(flag, 0, "{defenses:?}: spurious detection");
        }
    }
}

#[test]
fn hardened_image_is_larger() {
    let src = "
global @tick : i32 = 0 sensitive
fn @main() -> i32 {
entry:
  %p = globaladdr @tick
  %t = load i32, %p
  %c = icmp eq i32 %t, 0
  br %c, a, b
a:
  ret i32 1
b:
  ret i32 0
}
";
    let m = parse_module(src).unwrap();
    let base = compile(&m, "main").unwrap().sizes;
    let mut hardened = parse_module(src).unwrap();
    harden(&mut hardened, &Config::new(Defenses::ALL));
    let all = compile(&hardened, "main").unwrap().sizes;
    assert!(all.text > base.text, "hardening grows .text");
    assert!(all.shadow > 0, "integrity shadows allocated");
    assert!(all.nvm > 0, "seed lives in NVM");
}

#[test]
fn image_sections_accounted() {
    let src = "
global @a : i32 = 1
global @b : i32 = 0
global @c__integrity : i32 = -2
global @__gr_nv_seed : i32 = 0
fn @main() -> i32 {
entry:
  ret i32 0
}
";
    let m = parse_module(src).unwrap();
    let image = compile(&m, "main").unwrap();
    assert_eq!(image.sizes.data, 4);
    assert_eq!(image.sizes.bss, 4);
    assert_eq!(image.sizes.shadow, 4);
    assert_eq!(image.sizes.nvm, 4);
    assert!(image.sizes.text >= 6, "start stub plus main");
    // Address sanity: shadows live in the shadow bank.
    assert!(image.symbol("c__integrity") >= 0x2000_3800);
    assert!(image.symbol("__gr_nv_seed") >= 0x0800_F000);
    assert!(image.symbol("a") >= 0x2000_0000 && image.symbol("a") < 0x2000_3800);
}

#[test]
fn missing_entry_is_an_error() {
    let m = parse_module("fn @f() -> void {\nentry:\n  ret void\n}\n").unwrap();
    assert!(matches!(compile(&m, "main"), Err(gd_backend::LowerError::NoEntry { .. })));
}

#[test]
fn extents_cover_the_text_section_and_symbolize_resolves() {
    let src = "
fn @helper(%a: i32) -> i32 {
entry:
  %q = udiv i32 %a, 3
  %big = add i32 0xD3B9AEC6, %q
  ret i32 %big
}
fn @main() -> i32 {
entry:
  %r = call i32 @helper(9)
  ret i32 %r
}
";
    let m = parse_module(src).unwrap();
    let image = compile(&m, "main").unwrap();

    // Extents are sorted, non-overlapping, and sit inside .text.
    let text_end = 0x0800_0000 + image.text.len() as u32;
    for w in image.extents.windows(2) {
        assert!(w[0].end <= w[1].base, "{:?} overlaps {:?}", w[0], w[1]);
    }
    for e in &image.extents {
        assert!(e.base <= e.code_end && e.code_end <= e.end, "{e:?}");
        assert!(e.end <= text_end, "{e:?} outside .text");
        assert_eq!(e.base, image.symbol(&e.name), "extent base matches symbol");
    }
    let names: Vec<&str> = image.extents.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"_start"));
    assert!(names.contains(&"main"));
    assert!(names.contains(&"helper"));
    assert!(names.contains(&"__gr_udiv"), "div helper exported: {names:?}");
    assert!(!names.contains(&"udiv_go"), "internal labels are not extents");

    // helper uses a wide literal: its pool is non-empty and excluded from code.
    let helper = image.extent("helper").unwrap();
    assert!(helper.code_end < helper.end, "literal pool recorded");
    assert_eq!(helper.end % 4, 0, "pool is word-aligned");

    // symbolize round-trips interior addresses and rejects padding gaps.
    assert_eq!(image.symbolize(helper.base + 2), Some(("helper", 2)));
    assert_eq!(image.symbolize(0x0800_0000), Some(("_start", 0)));
    assert_eq!(image.symbolize(text_end + 4), None, "past the image");
    let main_ext = image.extent("main").unwrap();
    assert_eq!(image.symbolize(main_ext.base), Some(("main", 0)));
}
