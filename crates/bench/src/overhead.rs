//! Tables IV and V: run-time (boot cycles) and size overhead of each
//! defense on the CubeMX-style boot firmware.

use std::fmt::Write as _;

use gd_backend::{compile, SectionSizes};
use gd_chipwhisperer::Device;
use gd_emu::StopReason;
use gd_firmware::BOOT_MARKER;
use gd_pipeline::RunEnd;
use glitch_resistor::{harden, Config, Defenses};

/// The defense configurations measured in Tables IV/V, in the paper's
/// order.
pub fn configurations() -> Vec<(&'static str, Defenses)> {
    vec![
        ("None", Defenses::NONE),
        ("Branches", Defenses::BRANCHES),
        ("Delay", Defenses::DELAY),
        ("Integrity", Defenses::INTEGRITY),
        ("Loops", Defenses::LOOPS),
        ("Returns", Defenses::RETURNS),
        ("All\\Delay", Defenses::ALL_EXCEPT_DELAY),
        ("All", Defenses::ALL),
    ]
}

/// The boot firmware hardened with one configuration, as IR.
pub fn boot_module(defenses: Defenses) -> gd_ir::Module {
    let mut m = gd_firmware::boot();
    harden(&mut m, &Config::new(defenses));
    m
}

/// Builds the hardened boot image for one configuration.
///
/// # Panics
///
/// Panics if hardening or lowering fails — the boot firmware is a fixture.
pub fn boot_image(defenses: Defenses) -> gd_backend::FirmwareImage {
    compile(&boot_module(defenses), "main").expect("boot firmware lowers")
}

/// One Table IV row.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    /// Configuration name.
    pub name: &'static str,
    /// Boot cycles with the full cost model.
    pub cycles: u64,
    /// Cycles attributable to NVM (flash) programming — the paper's
    /// "Constant" column.
    pub constant: u64,
}

impl Table4Row {
    /// Percent increase over `base` cycles.
    pub fn increase(&self, base: u64) -> f64 {
        100.0 * (self.cycles as f64 - base as f64) / base as f64
    }

    /// Percent increase with the flash constant removed ("% Adjusted").
    pub fn adjusted(&self, base: u64) -> f64 {
        100.0 * ((self.cycles - self.constant) as f64 - base as f64) / base as f64
    }
}

/// Boot-cycle measurement for one configuration.
///
/// # Panics
///
/// Panics when the boot image fails to reach its completion marker.
pub fn measure_boot(defenses: Defenses) -> Table4Row {
    let image = boot_image(defenses);
    let dev = Device::from_image(&image);
    let run = |nvm_write: u32| -> u64 {
        let mut pipe = dev.boot();
        pipe.timing.nvm_write = nvm_write;
        match pipe.run(5_000_000) {
            RunEnd::Stop { reason: StopReason::Bkpt(0), .. } => {
                assert_eq!(
                    pipe.emu.cpu.reg(gd_thumb::Reg::R0),
                    BOOT_MARKER,
                    "boot must complete normally"
                );
                pipe.cycle()
            }
            other => panic!("boot did not complete: {other:?}"),
        }
    };
    let cycles = run(gd_pipeline::Timing::default().nvm_write);
    let without_flash = run(0);
    Table4Row { name: "", cycles, constant: cycles - without_flash }
}

/// Runs Table IV for every configuration.
pub fn table4() -> Vec<Table4Row> {
    configurations().into_iter().map(|(name, d)| Table4Row { name, ..measure_boot(d) }).collect()
}

/// Renders Table IV in the paper's layout.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = crate::report::heading_str("Table IV — boot-time overhead (clock cycles)");
    let base = rows[0].cycles;
    writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "Defense", "Cycles", "% Increase", "Constant", "% Adjusted"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<10} {:>12} {:>11.2}% {:>12} {:>11.2}%",
            r.name,
            r.cycles,
            r.increase(base),
            r.constant,
            r.adjusted(base)
        )
        .unwrap();
    }
    out
}

/// One Table V row.
#[derive(Debug, Clone, Copy)]
pub struct Table5Row {
    /// Configuration name.
    pub name: &'static str,
    /// Section sizes.
    pub sizes: SectionSizes,
}

/// Runs Table V (sizes only; no execution).
pub fn table5() -> Vec<Table5Row> {
    configurations()
        .into_iter()
        .map(|(name, d)| Table5Row { name, sizes: boot_image(d).sizes })
        .collect()
}

/// Renders Table V in the paper's layout (with the reproduction's extra
/// shadow/nvm sections listed explicitly).
pub fn render_table5(rows: &[Table5Row]) -> String {
    let mut out = crate::report::heading_str("Table V — size overhead (bytes)");
    let base = rows[0].sizes;
    let pct = |v: u32, b: u32| {
        if b == 0 {
            0.0
        } else {
            100.0 * (f64::from(v) - f64::from(b)) / f64::from(b)
        }
    };
    writeln!(
        out,
        "{:<10} {:>7} {:>8} {:>6} {:>8} {:>6} {:>7} {:>6} {:>7} {:>8}",
        "Defense", "text", "text%", "data", "data%", "bss", "shadow", "nvm", "total", "total%"
    )
    .unwrap();
    for r in rows {
        let s = r.sizes;
        writeln!(
            out,
            "{:<10} {:>7} {:>7.2}% {:>6} {:>7.2}% {:>6} {:>7} {:>6} {:>7} {:>7.2}%",
            r.name,
            s.text,
            pct(s.text, base.text),
            s.data,
            pct(s.data, base.data),
            s.bss,
            s.shadow,
            s.nvm,
            s.total(),
            pct(s.total(), base.total()),
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_boot_lands_near_the_papers_magnitude() {
        let row = measure_boot(Defenses::NONE);
        // The paper's CubeMX boot takes 1,736 cycles; ours is shaped to the
        // same order of magnitude.
        assert!(
            (800..6_000).contains(&row.cycles),
            "baseline boot ≈ 10³ cycles, got {}",
            row.cycles
        );
        assert_eq!(row.constant, 0, "no flash writes without the delay defense");
    }

    #[test]
    fn delay_has_a_huge_flash_constant_others_do_not() {
        let base = measure_boot(Defenses::NONE);
        let delay = measure_boot(Defenses::DELAY);
        let branches = measure_boot(Defenses::BRANCHES);
        assert!(delay.constant > 150_000, "seed write dominates: {}", delay.constant);
        assert_eq!(branches.constant, 0);
        // Adjusted overhead is modest once the constant is removed.
        let adj = delay.adjusted(base.cycles);
        assert!(adj > 0.0 && adj < 2_000.0, "adjusted delay overhead sane: {adj:.1}%");
    }

    #[test]
    fn cheap_defenses_stay_cheap() {
        let base = measure_boot(Defenses::NONE);
        for d in [Defenses::INTEGRITY, Defenses::LOOPS, Defenses::RETURNS] {
            let row = measure_boot(d);
            assert!(
                row.increase(base.cycles) < 30.0,
                "{d:?} adds little boot time: {:.2}%",
                row.increase(base.cycles)
            );
        }
        let branches = measure_boot(Defenses::BRANCHES);
        let inc = branches.increase(base.cycles);
        assert!((1.0..80.0).contains(&inc), "branches cost noticeable but small: {inc:.1}%");
    }

    #[test]
    fn sizes_grow_monotonically_toward_all() {
        let rows = table5();
        let base = rows[0].sizes;
        let all = rows.last().unwrap().sizes;
        assert!(all.text > base.text);
        assert!(all.total() > base.total());
        for r in &rows[1..] {
            assert!(r.sizes.text >= base.text, "{} shrank?!", r.name);
        }
    }
}
