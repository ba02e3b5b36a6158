//! Tables I–III: single-, multi-, and long-glitch scans against the three
//! §V loop guards on the simulated ChipWhisperer rig. (Moved here from
//! `gd-bench` so the campaign engine can shard and serve the workloads;
//! `gd_bench::glitch_tables` re-exports this module.)

use std::fmt::Write as _;

use gd_chipwhisperer::{
    scan_grid, scan_multi, scan_single, AttackSpec, CellCounts, Device, FaultModel, MultiCell,
    SuccessCheck,
};
use gd_thumb::Reg;

/// Maps each post-trigger cycle to the instruction occupying it on an
/// unglitched run — the left-hand column of the paper's Table I.
pub fn cycle_annotations(device: &Device, cycles: u32) -> Vec<String> {
    let mut pipe = device.boot();
    let mut notes = vec![String::new(); cycles as usize];
    // Step until the window past the trigger covers the requested range.
    for _ in 0..10_000 {
        let mut seen: Option<(u64, u32, String)> = None;
        let step = pipe.step_with(&mut |w| {
            if let Some(s) = w.since_trigger {
                seen = Some((s, w.cycles, w.instr.to_string()));
            }
            Vec::new()
        });
        if step.is_err() {
            break;
        }
        if let Some((start, dur, text)) = seen {
            if start >= u64::from(cycles) {
                break;
            }
            for c in start..(start + u64::from(dur)).min(u64::from(cycles)) {
                notes[c as usize] = text.clone();
            }
        }
    }
    notes
}

/// Cycle budget for one §V attempt: enough for thousands of loop
/// iterations plus the exit path.
pub const GUARD_BUDGET: u64 = 600;

/// The attack spec shared by the §V experiments.
pub fn guard_spec() -> AttackSpec {
    AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: GUARD_BUDGET }
}

/// The comparator register Table I post-mortems record for a given guard:
/// the complex guard compares r2 against r3; the simple guards keep the
/// loaded value in r3.
pub fn post_mortem_reg(guard_name: &str) -> Reg {
    if guard_name.contains('!') || guard_name == "while(a)" {
        Reg::R3
    } else {
        Reg::R2
    }
}

/// Table I: per-cycle single-glitch successes with comparator post-mortems.
pub struct Table1Row {
    /// Guard name.
    pub name: &'static str,
    /// Per-cycle results (cycle, counts).
    pub cells: Vec<(u32, CellCounts)>,
}

/// Runs Table I for all three guards over glitch cycles 0..8.
pub fn table1(model: &FaultModel) -> Vec<Table1Row> {
    gd_chipwhisperer::targets::table1_guards()
        .into_iter()
        .map(|(name, src)| {
            let dev = Device::from_asm(src).expect("guard assembles");
            let reg = post_mortem_reg(name);
            let cells = scan_single(&dev, model, 0..8, &guard_spec(), Some(reg));
            Table1Row { name, cells }
        })
        .collect()
}

/// Renders a Table I row in the paper's layout (cycle → instruction →
/// successes → comparator post-mortem).
pub fn render_table1_row(row: &Table1Row, annotations: &[String]) -> String {
    let mut out = crate::report::heading_str(&format!("Table I — single glitch vs {}", row.name));
    writeln!(
        out,
        "{:<6} {:<22} {:>9}   post-mortem (register=count)",
        "cycle", "instruction", "successes"
    )
    .unwrap();
    let mut total_s = 0u64;
    let mut total_a = 0u64;
    for (cycle, cell) in &row.cells {
        total_s += cell.successes;
        total_a += cell.attempts;
        let mut hist: Vec<String> =
            cell.post_mortem.iter().map(|(v, n)| format!("{v:#x}={n}")).collect();
        hist.truncate(6);
        let instr = annotations.get(*cycle as usize).map(String::as_str).unwrap_or("");
        writeln!(out, "{cycle:<6} {instr:<22} {:>9}   {}", cell.successes, hist.join(" ")).unwrap();
    }
    writeln!(
        out,
        "total  {:<22} {total_s:>9}   ({} of {} attempts)",
        "",
        crate::report::pct(total_s, total_a),
        total_a
    )
    .unwrap();
    out
}

/// Table II: multi-glitch (two identical back-to-back loops).
pub struct Table2Row {
    /// Guard name.
    pub name: &'static str,
    /// Per-cycle partial/full counts.
    pub cells: Vec<(u32, MultiCell)>,
}

/// The per-attempt spec for the doubled guards (twice the loop, twice the
/// budget).
pub fn doubled_spec() -> AttackSpec {
    AttackSpec { success: SuccessCheck::Bkpt(1), max_cycles: 1_200 }
}

/// Runs Table II over glitch cycles 0..8.
pub fn table2(model: &FaultModel) -> Vec<Table2Row> {
    crate::spec::doubled_guards()
        .into_iter()
        .map(|(name, src)| {
            let dev = Device::from_asm(&src).expect("guard assembles");
            let cells = scan_multi(&dev, model, 0..8, &doubled_spec());
            Table2Row { name, cells }
        })
        .collect()
}

/// Renders Table II in the paper's layout.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = crate::report::heading_str("Table II — multi-glitch (partial vs full)");
    write!(out, "{:<6}", "cycle").unwrap();
    for r in rows {
        write!(out, " | {:^21}", r.name).unwrap();
    }
    writeln!(out).unwrap();
    write!(out, "{:<6}", "").unwrap();
    for _ in rows {
        write!(out, " | {:>10} {:>10}", "partial", "full").unwrap();
    }
    writeln!(out).unwrap();
    for i in 0..rows[0].cells.len() {
        write!(out, "{:<6}", rows[0].cells[i].0).unwrap();
        for r in rows {
            let c = &r.cells[i];
            write!(out, " | {:>10} {:>10}", c.1.partial, c.1.full).unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "total ").unwrap();
    for r in rows {
        let partial: u64 = r.cells.iter().map(|c| c.1.partial).sum();
        let full: u64 = r.cells.iter().map(|c| c.1.full).sum();
        write!(out, " | {partial:>10} {full:>10}").unwrap();
    }
    writeln!(out).unwrap();
    write!(out, "rate  ").unwrap();
    for r in rows {
        let attempts: u64 = r.cells.iter().map(|c| c.1.attempts).sum();
        let partial: u64 = r.cells.iter().map(|c| c.1.partial).sum();
        let full: u64 = r.cells.iter().map(|c| c.1.full).sum();
        write!(
            out,
            " | {:>10} {:>10}",
            crate::report::pct(partial, attempts),
            crate::report::pct(full, attempts)
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    out
}

/// Table III: long glitches (0..N contiguous cycles) against the doubled
/// guards.
pub struct Table3Row {
    /// Guard name.
    pub name: &'static str,
    /// (cycles glitched, counts).
    pub cells: Vec<(u32, CellCounts)>,
}

/// Runs Table III: glitch lengths 10..=20 from cycle 0.
pub fn table3(model: &FaultModel) -> Vec<Table3Row> {
    crate::spec::doubled_guards()
        .into_iter()
        .map(|(name, src)| {
            let dev = Device::from_asm(&src).expect("guard assembles");
            // The eleven glitch lengths are independent single-start scans:
            // fan them out, keeping length order for byte-identical output.
            let lens: Vec<u32> = (10..=20).collect();
            let cells = gd_exec::par_map(&lens, |&len| {
                let scanned = scan_grid(&dev, model, 0..1, len, &doubled_spec(), None);
                let (_, cell) = scanned.into_iter().next().expect("one start cycle");
                (len, cell)
            });
            Table3Row { name, cells }
        })
        .collect()
}

/// Renders Table III in the paper's layout.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = crate::report::heading_str("Table III — long glitch successes (cycles 0..N)");
    write!(out, "{:<8}", "cycles").unwrap();
    for r in rows {
        write!(out, " {:>22}", r.name).unwrap();
    }
    writeln!(out).unwrap();
    for i in 0..rows[0].cells.len() {
        write!(out, "0-{:<6}", rows[0].cells[i].0).unwrap();
        for r in rows {
            write!(out, " {:>22}", r.cells[i].1.successes).unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<8}", "total").unwrap();
    for r in rows {
        let s: u64 = r.cells.iter().map(|c| c.1.successes).sum();
        let a: u64 = r.cells.iter().map(|c| c.1.attempts).sum();
        write!(out, " {:>14} ({})", s, crate::report::pct(s, a)).unwrap();
    }
    writeln!(out).unwrap();
    out
}
