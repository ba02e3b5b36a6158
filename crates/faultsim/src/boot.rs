//! The representative multi-fault campaign over `firmware::boot`:
//! shared enumeration/pruning state and the first/second-order shard
//! executors the campaign engine dispatches.

use std::sync::OnceLock;

use gd_backend::FirmwareImage;
use gd_emu::Config;
use gd_glitch_emu::{Outcome, Tally};

use crate::metrics;
use crate::model::{FaultInstance, Registry, SiteInfo};
use crate::prune::{halfword_slots, prune_model, sites, FaultClass, ModelClasses};
use crate::runner::{MultiFaultRunner, PairSteps};

/// The scoped routines: everything `main` runs after `hal_init`, so the
/// per-trial snapshot replays the whole HAL bring-up exactly once.
pub const SCOPE_FUNCS: [&str; 3] = ["crc_mix", "check_tick", "report"];

/// Registry indices whose pruned representatives form the second-order
/// pair space (single-bit transient flips × transient skips).
pub const O2_MODELS: [usize; 2] = [0, 3];

/// Fixed bucket count for second-order shards: pair `i` belongs to
/// bucket `i % O2_BUCKETS`, so the shard plan needs no enumeration and
/// the bucket partition is independent of worker count.
pub const O2_BUCKETS: u32 = 8;

/// Pruning and simulation counters for one shard or campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MfStats {
    /// Raw candidates (or candidate pairs) in the unpruned space.
    pub enumerated: u64,
    /// Candidates removed before simulation.
    pub pruned: u64,
    /// Trials actually simulated.
    pub simulated: u64,
}

impl MfStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &MfStats) {
        self.enumerated += other.enumerated;
        self.pruned += other.pruned;
        self.simulated += other.simulated;
    }

    /// Pruned fraction of the enumerated space, in milli-units
    /// (0..=1000) — integral so goldens and trajectories stay exact.
    pub fn pruned_ratio_milli(&self) -> u64 {
        if self.enumerated == 0 {
            0
        } else {
            self.pruned * 1000 / self.enumerated
        }
    }
}

/// The shared, immutable campaign state: compiled image, instruction
/// walk, and pruned classes per registry model. Built once per process.
#[derive(Debug)]
pub struct BootCampaign {
    /// The compiled (unhardened) boot image.
    pub image: FirmwareImage,
    /// Emulator configuration the campaign runs under.
    pub cfg: Config,
    /// Instruction-start sites of [`SCOPE_FUNCS`].
    pub sites: Vec<SiteInfo>,
    /// Pruned classes, aligned with [`Registry::standard`] order.
    pub per_model: Vec<ModelClasses>,
}

impl BootCampaign {
    fn build() -> BootCampaign {
        let image = gd_backend::compile(&gd_firmware::boot(), "main").expect("boot compiles");
        let cfg = Config::default();
        let scope_sites = sites(&image, cfg, &SCOPE_FUNCS);
        let slots = halfword_slots(&image, &SCOPE_FUNCS);
        let registry = Registry::standard();
        let per_model = registry
            .models()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mc = prune_model(i, m.as_ref(), &scope_sites, slots, cfg);
                metrics::candidates(mc.name).add(mc.enumerated);
                metrics::pruned(mc.name).add(mc.pruned());
                mc
            })
            .collect();
        BootCampaign { image, cfg, sites: scope_sites, per_model }
    }

    /// Scoped address ranges for the runner's snapshot point.
    pub fn scope_ranges(&self) -> Vec<(u32, u32)> {
        SCOPE_FUNCS
            .iter()
            .map(|name| {
                let e = self.image.extent(name).expect("scoped routine exists");
                (e.base, e.end)
            })
            .collect()
    }

    /// A trial runner over this campaign's image and scope.
    pub fn runner(&self) -> MultiFaultRunner {
        MultiFaultRunner::new(&self.image, self.cfg, &self.scope_ranges())
    }

    /// First-order stats for one model.
    pub fn order1_stats(&self, model: usize) -> MfStats {
        let mc = &self.per_model[model];
        MfStats { enumerated: mc.enumerated, pruned: mc.pruned(), simulated: mc.simulated }
    }
}

/// The process-wide campaign state (enumeration and pruning run once;
/// every shard of every engine worker reuses it).
pub fn boot_campaign() -> &'static BootCampaign {
    static CAMPAIGN: OnceLock<BootCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(BootCampaign::build)
}

/// Executes the first-order campaign for one registry model: one
/// simulated trial per canonical class, tally weighted by class size —
/// identical, by the pruning equivalence, to simulating the whole space.
pub fn order1_shard(model: usize) -> (Tally, MfStats) {
    let campaign = boot_campaign();
    let mc = &campaign.per_model[model];
    let mut runner = campaign.runner();
    let mut tally = Tally::default();
    let mut simulated = 0u64;
    for class in &mc.classes {
        let outcome = match class.outcome {
            Some(o) => o,
            None => {
                simulated += 1;
                runner.run(&[class.rep()])
            }
        };
        tally.record_n(outcome, class.weight());
    }
    // Candidates the walk never visited (pools, padding, mid-instruction
    // halfwords) never fire with fetch-stage injection: No Effect.
    tally.record_n(
        Outcome::NoEffect,
        mc.enumerated - mc.classes.iter().map(FaultClass::weight).sum::<u64>(),
    );
    debug_assert_eq!(tally.total(), mc.enumerated);
    metrics::simulated(mc.name).add(simulated);
    metrics::record_tally(mc.name, &tally);
    (tally, MfStats { enumerated: mc.enumerated, pruned: mc.pruned(), simulated })
}

/// One second-order pair-space member: a canonical representative with
/// its class weight and its first-order outcome, plus where its pairs
/// sit in the list's linear pair order.
#[derive(Debug, Clone, Copy)]
struct O2Rep {
    fault: FaultInstance,
    weight: u64,
    /// First-order outcome of the representative. For statically-pruned
    /// classes this doubles as the pair shortcut: pairing a No-Effect
    /// fault with `g` yields `g`'s own first-order outcome.
    o1: Outcome,
    is_static: bool,
    /// Steps from the snapshot to the unfaulted trial's first fetch of
    /// the site (`u32::MAX`: never). Of a pair, the member fetched first
    /// fires first; ties (both never fetched) go to the lower index.
    first_fetch: u32,
    /// Dense id of the site within the list ([`index_pairs`]).
    site_id: u32,
    /// Representatives before this one in the list at the same site.
    rank: u32,
    /// Linear index of this representative's first pair `(self, b)`.
    row_start: u64,
}

/// The second-order representative list: pruned classes of
/// [`O2_MODELS`], each annotated with its first-order outcome (computed
/// once; pairs with a statically No-Effect member resolve to the other
/// member's outcome without simulation).
fn order2_reps() -> &'static Vec<O2Rep> {
    static REPS: OnceLock<Vec<O2Rep>> = OnceLock::new();
    REPS.get_or_init(|| {
        let campaign = boot_campaign();
        let mut runner = campaign.runner();
        let mut reps = Vec::new();
        for &model in &O2_MODELS {
            for class in &campaign.per_model[model].classes {
                let (o1, is_static) = match class.outcome {
                    Some(o) => (o, true),
                    None => (runner.run(&[class.rep()]), false),
                };
                reps.push(O2Rep {
                    fault: class.rep(),
                    weight: class.weight(),
                    o1,
                    is_static,
                    first_fetch: runner.first_fetch(class.rep().site).unwrap_or(u32::MAX),
                    site_id: 0,
                    rank: 0,
                    row_start: 0,
                });
            }
        }
        index_pairs(&mut reps);
        reps
    })
}

/// Fills each representative's `site_id`, `rank` and `row_start` for
/// the list's own pair order: every unordered distinct-site pair
/// `(a, b)`, `a < b`, row by row.
fn index_pairs(reps: &mut [O2Rep]) {
    let mut sites: Vec<u32> = reps.iter().map(|r| r.fault.site).collect();
    sites.sort_unstable();
    sites.dedup();
    let mut per_site = vec![0u32; sites.len()];
    for r in reps.iter_mut() {
        r.site_id = sites.binary_search(&r.fault.site).expect("listed") as u32;
        r.rank = per_site[r.site_id as usize];
        per_site[r.site_id as usize] += 1;
    }
    let (n, mut next) = (reps.len(), 0u64);
    for (a, r) in reps.iter_mut().enumerate() {
        r.row_start = next;
        // Row `a` pairs with every later rep at another site.
        next += (n - a - 1) as u64 - u64::from(per_site[r.site_id as usize] - r.rank - 1);
    }
}

/// Which executor runs a second-order bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum O2Executor {
    /// Each first fault's trial runs once; its pairs fork off it at the
    /// first fetch of the second fault's site
    /// ([`MultiFaultRunner::run_pairs`]).
    Fork,
    /// Every both-live pair restores the snapshot and arms both faults
    /// ([`MultiFaultRunner::run`]): the oracle.
    Reference,
}

/// Executes one bucket of the second-order campaign: every unordered
/// pair of distinct-site representatives whose linear index falls in
/// `bucket` (mod [`O2_BUCKETS`]).
///
/// Pair outcomes: both members No Effect → No Effect; one member No
/// Effect → the other member's first-order outcome (a No-Effect fault
/// is indistinguishable from no fault at all); otherwise both faults
/// are armed in one simulated trial, forked off the trial of the member
/// that fires first. Weights multiply, so the tallies equal the
/// unpruned pair space's.
pub fn order2_shard(bucket: u32) -> (Tally, MfStats) {
    record_order2(order2_bucket(bucket, 1, O2Executor::Fork))
}

/// [`order2_shard`] with every both-live pair simulated from the
/// snapshot: the oracle the fork walk must equal.
pub fn order2_shard_reference(bucket: u32) -> (Tally, MfStats) {
    record_order2(order2_bucket(bucket, 1, O2Executor::Reference))
}

fn record_order2((tally, stats, steps): (Tally, MfStats, PairSteps)) -> (Tally, MfStats) {
    metrics::simulated(metrics::PAIRS_LABEL).add(stats.simulated);
    metrics::candidates(metrics::PAIRS_LABEL).add(stats.enumerated);
    metrics::pruned(metrics::PAIRS_LABEL).add(stats.pruned);
    metrics::record_tally(metrics::PAIRS_LABEL, &tally);
    metrics::pair_steps("shared").add(steps.shared);
    metrics::pair_steps("executed").add(steps.executed);
    metrics::pair_steps("slid").add(steps.slid);
    (tally, stats)
}

/// One bucket of the second-order campaign over every `stride`-th
/// representative (`1`: the whole pair space), with its pair-trial step
/// ledger; records no metrics.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn order2_bucket(
    bucket: u32,
    stride: usize,
    executor: O2Executor,
) -> (Tally, MfStats, PairSteps) {
    let all = order2_reps();
    let mut sample: Vec<O2Rep>;
    let reps = if stride == 1 {
        all.as_slice()
    } else {
        sample = all.iter().step_by(stride).copied().collect();
        index_pairs(&mut sample);
        &sample
    };
    let mut runner = boot_campaign().runner();
    let (tally, mut stats, steps) = match executor {
        O2Executor::Fork => order2_walk(reps, bucket, &mut runner),
        O2Executor::Reference => order2_reference(reps, bucket, &mut runner),
    };
    stats.pruned = stats.enumerated - stats.simulated;
    (tally, stats, steps)
}

/// The outcome of a pair with a statically No-Effect member (such a
/// fault is no fault at all), or `None` when both members are live and
/// the pair must be simulated.
fn static_pair(a: &O2Rep, b: &O2Rep) -> Option<Outcome> {
    match (a.is_static, b.is_static) {
        (true, true) => Some(Outcome::NoEffect),
        (true, false) => Some(b.o1),
        (false, true) => Some(a.o1),
        (false, false) => None,
    }
}

/// The reference executor: pairs in linear index order, each both-live
/// one simulated from the snapshot.
fn order2_reference(
    reps: &[O2Rep],
    bucket: u32,
    runner: &mut MultiFaultRunner,
) -> (Tally, MfStats, PairSteps) {
    let mut tally = Tally::default();
    let mut stats = MfStats::default();
    let mut steps = PairSteps::default();
    let mut index = 0u64;
    for a in 0..reps.len() {
        for b in (a + 1)..reps.len() {
            let (ra, rb) = (reps[a], reps[b]);
            if ra.fault.site == rb.fault.site {
                continue; // one fetch, one fault: same-site pairs are undefined
            }
            let mine = index % u64::from(O2_BUCKETS) == u64::from(bucket);
            index += 1;
            if !mine {
                continue;
            }
            let weight = ra.weight * rb.weight;
            stats.enumerated += weight;
            let outcome = static_pair(&ra, &rb).unwrap_or_else(|| {
                stats.simulated += 1;
                let (outcome, n) = runner.run_counted(&[ra.fault, rb.fault]);
                steps.merge(&n);
                outcome
            });
            tally.record_n(outcome, weight);
        }
    }
    (tally, stats, steps)
}

/// The fork walk: the same pairs as [`order2_reference`], grouped by the
/// member that fires first. Each first fault `x` gathers its partners in
/// the bucket — row `x`'s pairs `(x, y > x)` in index order, plus the
/// pairs `(y < x, x)` whose index follows from `y`'s row start — and
/// [`MultiFaultRunner::run_pairs`] runs them off `x`'s trial. Memory is
/// O(reps): no bucket's pair list is ever materialized.
fn order2_walk(
    reps: &[O2Rep],
    bucket: u32,
    runner: &mut MultiFaultRunner,
) -> (Tally, MfStats, PairSteps) {
    let buckets = u64::from(O2_BUCKETS);
    let fires_before = |a: usize, b: usize| (reps[a].first_fetch, a) < (reps[b].first_fetch, b);
    let sites = reps.iter().map(|r| r.site_id as usize + 1).max().unwrap_or(0);
    let mut tally = Tally::default();
    let mut stats = MfStats::default();
    let mut steps = PairSteps::default();
    let mut seen = vec![0u32; sites]; // reps before `x`, per site
    let (mut partners, mut faults, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for (x, &rx) in reps.iter().enumerate() {
        partners.clear();
        let mut index = rx.row_start;
        for (y, ry) in reps.iter().enumerate().skip(x + 1) {
            if ry.fault.site == rx.fault.site {
                continue;
            }
            let mine = index % buckets == u64::from(bucket);
            index += 1;
            if !mine {
                continue;
            }
            let weight = rx.weight * ry.weight;
            stats.enumerated += weight;
            match static_pair(&rx, ry) {
                Some(outcome) => tally.record_n(outcome, weight),
                // A pair whose other member fires first is walked with it.
                None if fires_before(x, y) => partners.push(y),
                None => {}
            }
        }
        if !rx.is_static {
            for (y, ry) in reps.iter().enumerate().take(x) {
                if ry.is_static || ry.fault.site == rx.fault.site || fires_before(y, x) {
                    continue;
                }
                // Position of `x` in row `y`: the reps between them, less
                // those sharing `y`'s site.
                let same = u64::from(seen[ry.site_id as usize] - ry.rank - 1);
                if (ry.row_start + (x - y - 1) as u64 - same) % buckets == u64::from(bucket) {
                    partners.push(y);
                }
            }
        }
        seen[rx.site_id as usize] += 1;
        if partners.is_empty() {
            continue;
        }
        faults.clear();
        faults.extend(partners.iter().map(|&y| reps[y].fault));
        steps.merge(&runner.run_pairs(rx.fault, &faults, &mut outcomes));
        stats.simulated += partners.len() as u64;
        for (&y, &outcome) in partners.iter().zip(&outcomes) {
            tally.record_n(outcome, rx.weight * reps[y].weight);
        }
    }
    (tally, stats, steps)
}
