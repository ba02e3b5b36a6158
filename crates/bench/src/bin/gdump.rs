//! Firmware inspector: compile an evaluation firmware with a chosen defense
//! configuration and dump its annotated disassembly, symbols, and section
//! sizes. The default `guard all` dump is `results/gdump_guard_all.txt`.
//!
//! ```text
//! cargo run -p gd-bench --release --bin gdump -- boot all
//! cargo run -p gd-bench --release --bin gdump -- guard none
//! ```
//!
//! An unknown firmware or configuration name exits non-zero with usage.

use std::process::ExitCode;

use gd_backend::compile;
use gd_bench::outln;
use gd_ir::Module;
use glitch_resistor::{harden, Config, Defenses};

const USAGE: &str = "usage: gdump [guard|boot|enum [all|none|nodelay|branches]]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("guard");
    let cfg = args.get(1).map(String::as_str).unwrap_or("all");
    let firmware: Option<fn() -> Module> = match which {
        "guard" => Some(gd_firmware::while_not_a),
        "boot" => Some(gd_firmware::boot),
        "enum" => Some(gd_firmware::if_a_eq_success),
        _ => None,
    };
    let defenses = match cfg {
        "all" => Some(Defenses::ALL),
        "none" => Some(Defenses::NONE),
        "nodelay" => Some(Defenses::ALL_EXCEPT_DELAY),
        "branches" => Some(Defenses::BRANCHES),
        _ => None,
    };
    match (firmware, defenses) {
        (Some(firmware), Some(defenses)) if args.len() <= 2 => {
            dump(firmware(), which, cfg, defenses);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn dump(mut module: Module, which: &str, cfg: &str, defenses: Defenses) {
    harden(&mut module, &Config::new(defenses));
    let image = compile(&module, "main").expect("firmware lowers");

    outln!("; firmware `{which}` with defenses `{cfg}`");
    outln!(
        "; text {} B, data {} B, bss {} B, shadow {} B, nvm {} B\n",
        image.sizes.text,
        image.sizes.data,
        image.sizes.bss,
        image.sizes.shadow,
        image.sizes.nvm
    );
    // Function symbols sorted by address for annotation.
    let mut funcs: Vec<(&String, &u32)> = image
        .symbols
        .iter()
        .filter(|(_, addr)| **addr >= 0x0800_0000 && **addr < 0x0800_F000)
        .collect();
    funcs.sort_by_key(|(_, addr)| **addr);
    let mut idx = 0usize;
    for (off, text) in gd_thumb::fmt::disassemble(&image.text) {
        let addr = 0x0800_0000 + off;
        while idx < funcs.len() && *funcs[idx].1 == addr {
            outln!("\n{}:", funcs[idx].0);
            idx += 1;
        }
        outln!("  {addr:08x}:  {text}");
    }
    outln!("\n; globals");
    for (name, addr) in &image.symbols {
        if *addr >= 0x2000_0000 || (0x0800_F000..0x0801_0000).contains(addr) {
            outln!(";   {addr:08x}  {name}");
        }
    }
}
