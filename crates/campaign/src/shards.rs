//! Sharding: how a [`CampaignSpec`](crate::spec::CampaignSpec) decomposes
//! into deterministic, independently runnable chunks, and how completed
//! chunks merge back — in input order — into the exact text the legacy
//! serial binaries print.
//!
//! The shard boundaries follow the cross-attempt dependency structure of
//! each workload: a Figure 2 shard is one (panel, branch) sweep; a Table
//! I–III shard is one full 99×99 grid cell (whose attempts carry their
//! *absolute* position in the full scan, so per-boot noise seeding is
//! identical to the monolithic run); a Table VI shard is one (target,
//! attack, defense-set) campaign, which threads NVM state internally and
//! is therefore indivisible.

use std::collections::BTreeMap;

use gd_chipwhisperer::{scan_cell, scan_multi_cell, targets, CellCounts, Device, MultiCell};
use gd_emu::Config;
use gd_glitch_emu::{branch_case, sweep_case, SweepResult, Tally};
use gd_thumb::Cond;
use glitch_resistor::Defenses;

use crate::defense::{self, Attack, DefenseCell, Table6Block};
use crate::fig2::{panel_configs, Panel};
use crate::glitch_tables::{
    cycle_annotations, doubled_spec, guard_spec, post_mortem_reg, Table1Row, Table2Row, Table3Row,
};
use crate::json::Json;
use crate::spec::{doubled_guards, CampaignSpec, Workload};

/// The Table VI attack shapes in row order.
const ATTACKS: [Attack; 3] = [Attack::Single, Attack::Long, Attack::Window10];

/// The Table VI defense sets in column order: label and configuration.
const DEFENSE_SETS: [(&str, Defenses); 2] =
    [("All", Defenses::ALL), ("All\\Delay", Defenses::ALL_EXCEPT_DELAY)];

/// One unit of campaign work. Every variant is pure and self-contained:
/// two engines (or two machines) given the same spec and shard index
/// produce identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardWork {
    /// One Figure 2 sweep: `panel` indexes [`panel_configs`], `cond`
    /// indexes [`Cond::ALL`].
    Sweep {
        /// Panel index.
        panel: usize,
        /// Branch-condition index.
        cond: usize,
    },
    /// One Table I grid cell: guard × glitch cycle.
    Table1Cell {
        /// Index into [`targets::table1_guards`].
        guard: usize,
        /// Glitch cycle scanned.
        cycle: u32,
        /// The cell's position in the guard's full scan (seeds per-boot
        /// noise; see [`scan_cell`]).
        cycle_index: u64,
    },
    /// One Table II multi-glitch cell: doubled guard × glitch cycle.
    Table2Cell {
        /// Index into [`doubled_guards`].
        guard: usize,
        /// Glitch cycle scanned.
        cycle: u32,
        /// The cell's position in the guard's full scan.
        cycle_index: u64,
    },
    /// One Table III long-glitch cell: doubled guard × glitch length.
    Table3Cell {
        /// Index into [`doubled_guards`].
        guard: usize,
        /// Glitch length in cycles.
        len: u32,
    },
    /// One Table VI campaign cell: target × attack × defense set.
    Table6Cell {
        /// Index into [`gd_firmware::table6_targets`].
        target: usize,
        /// Index into the attack-shape row order (Single, Long, 10 Cycles).
        attack: usize,
        /// Index into the defense-set column order (All, All\Delay).
        defense: usize,
    },
    /// One first-order multifault campaign: every pruned class of one
    /// registry fault model over `firmware::boot`.
    MultifaultModel {
        /// Index into [`gd_faultsim::Registry::standard`].
        model: usize,
    },
    /// One second-order multifault bucket: the distinct-site
    /// representative pairs whose first-firing live member belongs to a
    /// first-fault class of this bucket (one of
    /// [`gd_faultsim::O2_BUCKETS`] contiguous runs of class order; pairs
    /// of two static members in bucket 0).
    MultifaultPairs {
        /// Bucket index.
        bucket: u32,
    },
}

impl ShardWork {
    /// A short human-readable label (progress displays, logs).
    pub fn label(&self) -> String {
        match *self {
            ShardWork::Sweep { panel, cond } => {
                let name = panel_configs().get(panel).map(|(l, _, _)| *l).unwrap_or("?");
                format!("fig2/{name}/{}", Cond::ALL[cond % Cond::ALL.len()])
            }
            ShardWork::Table1Cell { guard, cycle, .. } => {
                format!("table1/guard{guard}/cycle{cycle}")
            }
            ShardWork::Table2Cell { guard, cycle, .. } => {
                format!("table2/guard{guard}/cycle{cycle}")
            }
            ShardWork::Table3Cell { guard, len } => format!("table3/guard{guard}/len{len}"),
            ShardWork::Table6Cell { target, attack, defense } => {
                format!(
                    "table6/target{target}/{}/{}",
                    ATTACKS[attack].label(),
                    DEFENSE_SETS[defense].0
                )
            }
            ShardWork::MultifaultModel { model } => {
                let names = gd_faultsim::Registry::standard().names();
                format!("multifault/{}", names.get(model).copied().unwrap_or("?"))
            }
            ShardWork::MultifaultPairs { bucket } => format!("multifault/pairs/bucket{bucket}"),
        }
    }
}

/// The full, deterministic shard plan of a spec's workload — the entire
/// parameter space, **ignoring** `spec.shards` (the engine slices the
/// plan by that range). Plan order is the legacy binaries' output order.
pub fn shard_plan(spec: &CampaignSpec) -> Vec<ShardWork> {
    let mut plan = Vec::new();
    match spec.workload {
        Workload::Fig2 => {
            for panel in 0..panel_configs().len() {
                for cond in 0..Cond::ALL.len() {
                    plan.push(ShardWork::Sweep { panel, cond });
                }
            }
        }
        Workload::Table1 { cycles: (lo, hi) } => {
            for guard in 0..targets::table1_guards().len() {
                for (i, cycle) in (lo..hi).enumerate() {
                    plan.push(ShardWork::Table1Cell { guard, cycle, cycle_index: i as u64 });
                }
            }
        }
        Workload::Table2 { cycles: (lo, hi) } => {
            for guard in 0..doubled_guards().len() {
                for (i, cycle) in (lo..hi).enumerate() {
                    plan.push(ShardWork::Table2Cell { guard, cycle, cycle_index: i as u64 });
                }
            }
        }
        Workload::Table3 { lens: (lo, hi) } => {
            for guard in 0..doubled_guards().len() {
                for len in lo..hi {
                    plan.push(ShardWork::Table3Cell { guard, len });
                }
            }
        }
        Workload::Table6 => {
            for target in 0..gd_firmware::table6_targets().len() {
                for attack in 0..ATTACKS.len() {
                    for defense in 0..DEFENSE_SETS.len() {
                        plan.push(ShardWork::Table6Cell { target, attack, defense });
                    }
                }
            }
        }
        Workload::Multifault => {
            for model in 0..gd_faultsim::Registry::standard().len() {
                plan.push(ShardWork::MultifaultModel { model });
            }
            for bucket in 0..gd_faultsim::O2_BUCKETS {
                plan.push(ShardWork::MultifaultPairs { bucket });
            }
        }
    }
    plan
}

/// The result of one shard, ready to merge and to serialize.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResult {
    /// A Figure 2 per-branch sweep.
    Sweep(SweepResult),
    /// A Table I or III grid cell, tagged with its cycle (I) or length
    /// (III) for the row position.
    Cell {
        /// Glitch cycle (Table I) or glitch length (Table III).
        at: u32,
        /// Outcome counts with post-mortems.
        cell: CellCounts,
    },
    /// A Table II multi-glitch cell.
    Multi {
        /// Glitch cycle.
        at: u32,
        /// Partial/full counts.
        cell: MultiCell,
    },
    /// A Table VI campaign cell.
    Defense(DefenseCell),
    /// A multifault shard (order-1 model or order-2 pair bucket):
    /// weighted outcome tally plus the pruning ledger.
    Multifault {
        /// Weighted trial outcomes over the shard's whole candidate
        /// space, in [`gd_glitch_emu::Outcome::ALL`] order.
        tally: Tally,
        /// Raw candidates (or candidate pairs) the shard covers.
        enumerated: u64,
        /// Candidates resolved without simulation.
        pruned: u64,
        /// Trials actually simulated.
        simulated: u64,
    },
}

/// Runs one shard of `spec`'s workload. Pure: depends only on the spec's
/// fault model and the shard description.
///
/// # Panics
///
/// Panics if the shard indexes outside the workload's fixture space
/// (a plan/spec mismatch — engine bug, not user input).
pub fn run_shard(spec: &CampaignSpec, work: &ShardWork) -> ShardResult {
    let model = spec.model.model();
    match *work {
        ShardWork::Sweep { panel, cond } => {
            let (_, direction, cfg): (&str, _, Config) = panel_configs()[panel];
            let case = branch_case(Cond::ALL[cond]);
            // One micro-op table per test case, shared by all 17 k-sweeps
            // (and their worker chunks) of this shard.
            ShardResult::Sweep(sweep_case(&case, direction, cfg))
        }
        ShardWork::Table1Cell { guard, cycle, cycle_index } => {
            let (name, src) = targets::table1_guards()[guard];
            let dev = Device::from_asm(src).expect("guard assembles");
            let reg = post_mortem_reg(name);
            let cell = scan_cell(&dev, &model, cycle, cycle_index, 1, &guard_spec(), Some(reg));
            ShardResult::Cell { at: cycle, cell }
        }
        ShardWork::Table2Cell { guard, cycle, cycle_index } => {
            let (_, src) = &doubled_guards()[guard];
            let dev = Device::from_asm(src).expect("guard assembles");
            let cell = scan_multi_cell(&dev, &model, cycle, cycle_index, &doubled_spec());
            ShardResult::Multi { at: cycle, cell }
        }
        ShardWork::Table3Cell { guard, len } => {
            let (_, src) = &doubled_guards()[guard];
            let dev = Device::from_asm(src).expect("guard assembles");
            // Every length is an independent scan from cycle 0, so each
            // cell sits at position 0 of its own scan (matches the legacy
            // per-length `scan_grid(.., 0..1, len, ..)` numbering).
            let cell = scan_cell(&dev, &model, 0, 0, len, &doubled_spec(), None);
            ShardResult::Cell { at: len, cell }
        }
        ShardWork::Table6Cell { target, attack, defense } => {
            let (_, module) = gd_firmware::table6_targets().swap_remove(target);
            let device = defense::hardened_device(&module, DEFENSE_SETS[defense].1);
            ShardResult::Defense(defense::run_cell(&device, &model, ATTACKS[attack]))
        }
        ShardWork::MultifaultModel { model } => {
            let (tally, stats) = gd_faultsim::order1_shard(model);
            ShardResult::Multifault {
                tally,
                enumerated: stats.enumerated,
                pruned: stats.pruned,
                simulated: stats.simulated,
            }
        }
        ShardWork::MultifaultPairs { bucket } => {
            let (tally, stats) = gd_faultsim::order2_shard(bucket);
            ShardResult::Multifault {
                tally,
                enumerated: stats.enumerated,
                pruned: stats.pruned,
                simulated: stats.simulated,
            }
        }
    }
}

impl ShardResult {
    /// The shard result as a self-describing JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            ShardResult::Sweep(s) => Json::obj(vec![
                ("type", Json::Str("sweep".into())),
                ("name", Json::Str(s.name.clone())),
                (
                    "per_k",
                    Json::Arr(
                        s.per_k
                            .iter()
                            .map(|t| {
                                Json::Arr(t.counts().iter().map(|&c| Json::Int(c.into())).collect())
                            })
                            .collect(),
                    ),
                ),
            ]),
            ShardResult::Cell { at, cell } => Json::obj(vec![
                ("type", Json::Str("cell".into())),
                ("at", Json::Int((*at).into())),
                ("attempts", Json::Int(cell.attempts.into())),
                ("successes", Json::Int(cell.successes.into())),
                ("detections", Json::Int(cell.detections.into())),
                ("crashes", Json::Int(cell.crashes.into())),
                ("resets", Json::Int(cell.resets.into())),
                (
                    "post_mortem",
                    Json::Arr(
                        cell.post_mortem
                            .iter()
                            .map(|(&v, &n)| {
                                Json::Arr(vec![Json::Int(v.into()), Json::Int(n.into())])
                            })
                            .collect(),
                    ),
                ),
            ]),
            ShardResult::Multi { at, cell } => Json::obj(vec![
                ("type", Json::Str("multi".into())),
                ("at", Json::Int((*at).into())),
                ("attempts", Json::Int(cell.attempts.into())),
                ("partial", Json::Int(cell.partial.into())),
                ("full", Json::Int(cell.full.into())),
            ]),
            ShardResult::Defense(cell) => Json::obj(vec![
                ("type", Json::Str("defense".into())),
                ("total", Json::Int(cell.total.into())),
                ("successes", Json::Int(cell.successes.into())),
                ("detections", Json::Int(cell.detections.into())),
                ("crashes", Json::Int(cell.crashes.into())),
            ]),
            ShardResult::Multifault { tally, enumerated, pruned, simulated } => Json::obj(vec![
                ("type", Json::Str("multifault".into())),
                (
                    "counts",
                    Json::Arr(tally.counts().iter().map(|&c| Json::Int(c.into())).collect()),
                ),
                ("enumerated", Json::Int((*enumerated).into())),
                ("pruned", Json::Int((*pruned).into())),
                ("simulated", Json::Int((*simulated).into())),
            ]),
        }
    }

    /// Parses a shard result back from [`ShardResult::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<ShardResult, String> {
        let u = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("shard result: missing integer field `{name}`"))
        };
        let kind = v.get("type").and_then(Json::as_str).ok_or("shard result: missing `type`")?;
        match kind {
            "sweep" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("sweep shard: missing `name`")?
                    .to_owned();
                let rows =
                    v.get("per_k").and_then(Json::as_arr).ok_or("sweep shard: missing `per_k`")?;
                let mut per_k = Vec::with_capacity(rows.len());
                for row in rows {
                    let items = row.as_arr().ok_or("sweep shard: per_k row not an array")?;
                    if items.len() != 6 {
                        return Err("sweep shard: per_k row must hold 6 counts".into());
                    }
                    let mut counts = [0u64; 6];
                    for (slot, item) in counts.iter_mut().zip(items) {
                        *slot = item.as_u64().ok_or("sweep shard: per_k count not a u64")?;
                    }
                    per_k.push(Tally::from_counts(counts));
                }
                Ok(ShardResult::Sweep(SweepResult { name, per_k }))
            }
            "cell" => {
                let mut post_mortem = BTreeMap::new();
                let pairs = v
                    .get("post_mortem")
                    .and_then(Json::as_arr)
                    .ok_or("cell shard: missing `post_mortem`")?;
                for pair in pairs {
                    let items = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or("cell shard: post_mortem entries must be [value, count] pairs")?;
                    let value = items[0]
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or("cell shard: post_mortem value not a u32")?;
                    let count =
                        items[1].as_u64().ok_or("cell shard: post_mortem count not a u64")?;
                    post_mortem.insert(value, count);
                }
                Ok(ShardResult::Cell {
                    at: u32::try_from(u("at")?).map_err(|_| "cell shard: `at` not a u32")?,
                    cell: CellCounts {
                        attempts: u("attempts")?,
                        successes: u("successes")?,
                        detections: u("detections")?,
                        crashes: u("crashes")?,
                        resets: u("resets")?,
                        post_mortem,
                    },
                })
            }
            "multi" => Ok(ShardResult::Multi {
                at: u32::try_from(u("at")?).map_err(|_| "multi shard: `at` not a u32")?,
                cell: MultiCell {
                    attempts: u("attempts")?,
                    partial: u("partial")?,
                    full: u("full")?,
                },
            }),
            "defense" => Ok(ShardResult::Defense(DefenseCell {
                total: u("total")?,
                successes: u("successes")?,
                detections: u("detections")?,
                crashes: u("crashes")?,
            })),
            "multifault" => {
                let items = v
                    .get("counts")
                    .and_then(Json::as_arr)
                    .ok_or("multifault shard: missing `counts`")?;
                if items.len() != 6 {
                    return Err("multifault shard: `counts` must hold 6 entries".into());
                }
                let mut counts = [0u64; 6];
                for (slot, item) in counts.iter_mut().zip(items) {
                    *slot = item.as_u64().ok_or("multifault shard: count not a u64")?;
                }
                Ok(ShardResult::Multifault {
                    tally: Tally::from_counts(counts),
                    enumerated: u("enumerated")?,
                    pruned: u("pruned")?,
                    simulated: u("simulated")?,
                })
            }
            other => Err(format!("shard result: unknown type {other:?}")),
        }
    }
}

/// Merges completed shards — `(work, result)` pairs in plan order — into
/// the workload's report text.
///
/// A **full** campaign renders byte-identically to the legacy serial
/// binary. A **partial** campaign (a shard sub-range) renders the units
/// it completed: Figure 2 panels and Table I/VI blocks appear with only
/// their finished rows, while the columnar Tables II/III keep only the
/// cycle/length rows completed for *every* present guard column (the
/// JSON result always carries every completed shard regardless).
///
/// # Errors
///
/// Returns a message when a result's variant contradicts its work item
/// (corrupt checkpoint or store).
pub fn render(spec: &CampaignSpec, shards: &[(ShardWork, ShardResult)]) -> Result<String, String> {
    match spec.workload {
        Workload::Fig2 => render_fig2(shards),
        Workload::Table1 { cycles } => render_table1(shards, cycles.1),
        Workload::Table2 { .. } => render_table2(shards),
        Workload::Table3 { .. } => render_table3(shards),
        Workload::Table6 => render_table6(shards),
        Workload::Multifault => crate::multifault::render_multifault(shards),
    }
}

fn mismatch(work: &ShardWork) -> String {
    format!("shard {} carries a result of the wrong type", work.label())
}

fn render_fig2(shards: &[(ShardWork, ShardResult)]) -> Result<String, String> {
    let configs = panel_configs();
    let mut panels: Vec<Panel> =
        configs.iter().map(|(label, _, _)| Panel { label, sweeps: Vec::new() }).collect();
    for (work, result) in shards {
        match (work, result) {
            (ShardWork::Sweep { panel, .. }, ShardResult::Sweep(s)) => {
                panels[*panel].sweeps.push(s.clone());
            }
            _ => return Err(mismatch(work)),
        }
    }
    Ok(panels.iter().filter(|p| !p.sweeps.is_empty()).map(crate::fig2::render_panel).collect())
}

fn render_table1(shards: &[(ShardWork, ShardResult)], cycles_hi: u32) -> Result<String, String> {
    let guards = targets::table1_guards();
    let mut rows: Vec<Table1Row> =
        guards.iter().map(|(name, _)| Table1Row { name, cells: Vec::new() }).collect();
    for (work, result) in shards {
        match (work, result) {
            (ShardWork::Table1Cell { guard, .. }, ShardResult::Cell { at, cell }) => {
                rows[*guard].cells.push((*at, cell.clone()));
            }
            _ => return Err(mismatch(work)),
        }
    }
    let mut out = String::new();
    for (row, (_, src)) in rows.iter().zip(&guards) {
        if row.cells.is_empty() {
            continue;
        }
        let dev = Device::from_asm(src).map_err(|e| format!("guard assembles: {e}"))?;
        let notes = cycle_annotations(&dev, cycles_hi);
        out.push_str(&crate::glitch_tables::render_table1_row(row, &notes));
    }
    Ok(out)
}

/// One row per doubled guard: its index, its name, and its cells by
/// position.
type GuardRows<T> = Vec<(usize, &'static str, Vec<(u32, T)>)>;

/// Keeps, per present guard column, only the row positions every column
/// completed — the columnar tables print one line per shared position.
fn rectangular<T: Clone>(rows: GuardRows<T>) -> Vec<(&'static str, Vec<(u32, T)>)> {
    let present: Vec<_> = rows.into_iter().filter(|(_, _, cells)| !cells.is_empty()).collect();
    let mut shared: Vec<u32> = match present.first() {
        None => return Vec::new(),
        Some((_, _, cells)) => cells.iter().map(|(at, _)| *at).collect(),
    };
    for (_, _, cells) in &present[1..] {
        let theirs: Vec<u32> = cells.iter().map(|(at, _)| *at).collect();
        shared.retain(|at| theirs.contains(at));
    }
    present
        .into_iter()
        .map(|(_, name, cells)| {
            (name, cells.into_iter().filter(|(at, _)| shared.contains(at)).collect())
        })
        .collect()
}

fn render_table2(shards: &[(ShardWork, ShardResult)]) -> Result<String, String> {
    let guards = doubled_guards();
    let mut rows: GuardRows<MultiCell> =
        guards.iter().enumerate().map(|(i, (name, _))| (i, *name, Vec::new())).collect();
    for (work, result) in shards {
        match (work, result) {
            (ShardWork::Table2Cell { guard, .. }, ShardResult::Multi { at, cell }) => {
                rows[*guard].2.push((*at, cell.clone()));
            }
            _ => return Err(mismatch(work)),
        }
    }
    let rows: Vec<Table2Row> =
        rectangular(rows).into_iter().map(|(name, cells)| Table2Row { name, cells }).collect();
    if rows.iter().all(|r| r.cells.is_empty()) {
        return Ok(String::new());
    }
    Ok(crate::glitch_tables::render_table2(&rows))
}

fn render_table3(shards: &[(ShardWork, ShardResult)]) -> Result<String, String> {
    let guards = doubled_guards();
    let mut rows: GuardRows<CellCounts> =
        guards.iter().enumerate().map(|(i, (name, _))| (i, *name, Vec::new())).collect();
    for (work, result) in shards {
        match (work, result) {
            (ShardWork::Table3Cell { guard, .. }, ShardResult::Cell { at, cell }) => {
                rows[*guard].2.push((*at, cell.clone()));
            }
            _ => return Err(mismatch(work)),
        }
    }
    let rows: Vec<Table3Row> =
        rectangular(rows).into_iter().map(|(name, cells)| Table3Row { name, cells }).collect();
    if rows.iter().all(|r| r.cells.is_empty()) {
        return Ok(String::new());
    }
    Ok(crate::glitch_tables::render_table3(&rows))
}

fn render_table6(shards: &[(ShardWork, ShardResult)]) -> Result<String, String> {
    let targets = gd_firmware::table6_targets();
    let mut blocks: Vec<Table6Block> =
        targets.iter().map(|(target, _)| Table6Block { target, rows: Vec::new() }).collect();
    for (work, result) in shards {
        match (work, result) {
            (ShardWork::Table6Cell { target, attack, defense }, ShardResult::Defense(cell)) => {
                blocks[*target].rows.push((ATTACKS[*attack], DEFENSE_SETS[*defense].0, *cell));
            }
            _ => return Err(mismatch(work)),
        }
    }
    Ok(blocks
        .iter()
        .filter(|b| !b.rows.is_empty())
        .map(crate::defense::render_table6_block)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shapes_cover_the_published_parameter_spaces() {
        assert_eq!(shard_plan(&CampaignSpec::fig2()).len(), 4 * 14);
        assert_eq!(shard_plan(&CampaignSpec::table1()).len(), 3 * 8);
        assert_eq!(shard_plan(&CampaignSpec::table2()).len(), 3 * 8);
        assert_eq!(shard_plan(&CampaignSpec::table3()).len(), 3 * 11);
        assert_eq!(shard_plan(&CampaignSpec::table6()).len(), 2 * 3 * 2);
        // 6 registry models + 8 pair buckets.
        assert_eq!(shard_plan(&CampaignSpec::multifault()).len(), 6 + 8);
    }

    #[test]
    fn plan_order_is_row_major_and_carries_absolute_positions() {
        let plan = shard_plan(&CampaignSpec::table1());
        assert_eq!(plan[0], ShardWork::Table1Cell { guard: 0, cycle: 0, cycle_index: 0 });
        assert_eq!(plan[7], ShardWork::Table1Cell { guard: 0, cycle: 7, cycle_index: 7 });
        assert_eq!(plan[8], ShardWork::Table1Cell { guard: 1, cycle: 0, cycle_index: 0 });
        let plan3 = shard_plan(&CampaignSpec::table3());
        assert_eq!(plan3[0], ShardWork::Table3Cell { guard: 0, len: 10 });
        assert_eq!(plan3[11], ShardWork::Table3Cell { guard: 1, len: 10 });
    }

    #[test]
    fn sub_ranged_specs_keep_absolute_cycle_indices() {
        // Cycles [3, 8): the legacy binary would enumerate these with
        // indices 0..5, and the shard plan must agree.
        let mut spec = CampaignSpec::table1();
        spec.workload = Workload::Table1 { cycles: (3, 8) };
        let plan = shard_plan(&spec);
        assert_eq!(plan[0], ShardWork::Table1Cell { guard: 0, cycle: 3, cycle_index: 0 });
        assert_eq!(plan[4], ShardWork::Table1Cell { guard: 0, cycle: 7, cycle_index: 4 });
    }

    #[test]
    fn shard_results_round_trip_through_json() {
        let mut post_mortem = BTreeMap::new();
        post_mortem.insert(0xD3B9_AEC6u32, 17u64);
        post_mortem.insert(1, 2);
        let samples = vec![
            ShardResult::Sweep(SweepResult {
                name: "beq".into(),
                per_k: (0..17).map(|k| Tally::from_counts([k, 0, 1, 2, 3, 4])).collect(),
            }),
            ShardResult::Cell {
                at: 7,
                cell: CellCounts {
                    attempts: 9801,
                    successes: 12,
                    detections: 0,
                    crashes: 3,
                    resets: 1,
                    post_mortem,
                },
            },
            ShardResult::Multi { at: 2, cell: MultiCell { attempts: 9801, partial: 5, full: 1 } },
            ShardResult::Defense(DefenseCell {
                total: 107_811,
                successes: 4,
                detections: 96,
                crashes: 1_000,
            }),
            ShardResult::Multifault {
                tally: Tally::from_counts([3, 1000, 5, 7, 11, 13]),
                enumerated: 22_016,
                pruned: 21_000,
                simulated: 1_016,
            },
        ];
        for sample in samples {
            let text = sample.to_json().to_string_compact().unwrap();
            let back = ShardResult::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, sample, "through {text}");
        }
    }

    #[test]
    fn corrupt_shard_json_errors_cleanly() {
        for text in [
            r#"{"type":"nope"}"#,
            r#"{"at":3}"#,
            r#"{"type":"cell","at":3}"#,
            r#"{"type":"sweep","name":"beq","per_k":[[1,2,3]]}"#,
            r#"{"type":"multi","at":-1,"attempts":1,"partial":0,"full":0}"#,
        ] {
            let v = crate::json::parse(text).unwrap();
            assert!(ShardResult::from_json(&v).is_err(), "{text} must be rejected");
        }
    }

    #[test]
    fn mismatched_work_and_result_is_an_error() {
        let spec = CampaignSpec::table1();
        let plan = shard_plan(&spec);
        let wrong = vec![(plan[0], ShardResult::Defense(DefenseCell::default()))];
        assert!(render(&spec, &wrong).is_err());
    }

    #[test]
    fn partial_columnar_renders_keep_only_shared_rows() {
        // Guard 0 finished cycles {0, 1}; guard 1 only {1}. The printed
        // table must keep the shared cycle-1 row for both columns.
        let mut spec = CampaignSpec::table2();
        spec.workload = Workload::Table2 { cycles: (0, 2) };
        let mk = |at| ShardResult::Multi {
            at,
            cell: MultiCell { attempts: 9801, partial: u64::from(at), full: 0 },
        };
        let shards = vec![
            (ShardWork::Table2Cell { guard: 0, cycle: 0, cycle_index: 0 }, mk(0)),
            (ShardWork::Table2Cell { guard: 0, cycle: 1, cycle_index: 1 }, mk(1)),
            (ShardWork::Table2Cell { guard: 1, cycle: 1, cycle_index: 1 }, mk(1)),
        ];
        let text = render(&spec, &shards).unwrap();
        assert!(text.contains("while(!a)") && text.contains("while(a)"), "{text}");
        let rows: Vec<&str> =
            text.lines().filter(|l| l.starts_with('0') || l.starts_with('1')).collect();
        assert_eq!(rows.len(), 1, "only the shared cycle survives:\n{text}");
        assert!(rows[0].starts_with('1'), "{text}");
    }
}
