//! The representative multi-fault campaign over `firmware::boot`:
//! shared enumeration/pruning state and the first/second-order shard
//! executors the campaign engine dispatches.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

use gd_backend::FirmwareImage;
use gd_emu::Config;
use gd_glitch_emu::{Outcome, Tally};

use crate::metrics;
use crate::model::{FaultInstance, Registry, SiteInfo};
use crate::prune::{halfword_slots, prune_model, sites, FaultClass, ModelClasses};
use crate::runner::{MultiFaultRunner, PairSteps, PairsBy};

/// The scoped routines: everything `main` runs after `hal_init`, so the
/// per-trial snapshot replays the whole HAL bring-up exactly once.
pub const SCOPE_FUNCS: [&str; 3] = ["crc_mix", "check_tick", "report"];

/// Registry indices whose pruned representatives form the second-order
/// pair space (single-bit transient flips × transient skips).
pub const O2_MODELS: [usize; 2] = [0, 3];

/// Fixed bucket count for second-order shards. Numbered by first fetch,
/// the first-fault classes are cut into `O2_RUNS` contiguous runs of
/// class order per bucket, balanced by partner count; bucket `b` takes
/// runs `b`, `b + 8`, `b + 16`. A pair goes to the bucket of its
/// first-firing live member's class (two static members: bucket 0), so
/// the shard plan needs no enumeration and the bucket partition is
/// independent of worker count. Classes that converge on one state tend
/// to be neighbours in class order, so a bucket's walks find each
/// other's partner outcomes ([`PairsBy::state`]).
pub const O2_BUCKETS: u32 = 8;

/// Runs of class order per second-order bucket. With one, bucket 0 would
/// hold only the earliest classes, whose first faults fire within the
/// first instructions of the scope and share the least with their
/// partners' trials; three make every bucket a cross-section of the
/// campaign, as the gd-bench `order2_fork` stage (bucket 0 alone) takes
/// it to be.
const O2_RUNS: usize = 3;

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
        (self.pruned * 1000).checked_div(self.enumerated).unwrap_or(0)
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
/// Each trial starts at its fault's first fetch on the unfaulted trial
/// ([`MultiFaultRunner::run_at_fetch`]).
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
                runner.run_at_fetch(class.rep())
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
/// its class weight, its first-order outcome and its first-fault class.
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
    /// fires first; of two never fetched, the one at the lower site.
    first_fetch: u32,
    /// Live representatives: the first-fault class
    /// ([`MultiFaultRunner::run_classed`]); in an [`O2Space`], its index
    /// in class order. Unused for static ones.
    class: u32,
}

/// The second-order representative list: pruned classes of
/// [`O2_MODELS`], each annotated with its first-order outcome, and the
/// live ones with their first-fault class (computed once; pairs with a
/// statically No-Effect member resolve to the other member's outcome
/// without simulation).
///
/// The classes come from the first-order trials themselves: taken site
/// by site, each trial pauses just after its fault fires and is compared
/// with the classes found so far at that site, keeping those classes'
/// forks for one site at a time.
fn order2_reps() -> Vec<O2Rep> {
    let campaign = boot_campaign();
    let mut runner = campaign.runner();
    let mut reps: Vec<O2Rep> = O2_MODELS
        .iter()
        .flat_map(|&model| &campaign.per_model[model].classes)
        .map(|class| O2Rep {
            fault: class.rep(),
            weight: class.weight(),
            o1: class.outcome.unwrap_or(Outcome::NoEffect),
            is_static: class.outcome.is_some(),
            first_fetch: runner.first_fetch(class.rep().site).unwrap_or(u32::MAX),
            class: 0,
        })
        .collect();
    let mut live: Vec<usize> = (0..reps.len()).filter(|&i| !reps[i].is_static).collect();
    live.sort_by_key(|&i| reps[i].fault.site);
    let (mut fired, mut site, mut site_start) = (Vec::new(), None, 0);
    for &i in &live {
        let rep = &mut reps[i];
        if site != Some(rep.fault.site) {
            site = Some(rep.fault.site);
            site_start += fired.len();
            fired.clear();
        }
        let (o1, class) = runner.run_classed(rep.fault, &mut fired);
        rep.o1 = o1;
        rep.class = (site_start + class) as u32;
    }
    reps
}

/// The whole second-order pair space, built once per process: every
/// shard of every engine worker reuses it.
fn order2_space() -> &'static O2Space {
    static SPACE: OnceLock<O2Space> = OnceLock::new();
    SPACE.get_or_init(|| O2Space::new(order2_reps()))
}

/// A second-order pair space — the whole representative list, or a
/// sample of it — with its first-fault classes numbered densely in class
/// order and grouped for the walk.
struct O2Space {
    /// Every representative; a live one's `class` indexes `classes`.
    reps: Vec<O2Rep>,
    /// The live representatives, in class order.
    live: Vec<O2Rep>,
    /// `(fault, o1)` of `live`, as [`MultiFaultRunner::run_pairs`] takes
    /// partners.
    partners: Vec<(FaultInstance, Outcome)>,
    classes: Vec<O2Class>,
    /// Total weight of the static representatives.
    static_weight: u64,
    /// Weight of the static representatives per site.
    static_at: BTreeMap<u32, u64>,
}

/// One first-fault class of an [`O2Space`].
struct O2Class {
    /// Its members, in [`O2Space::live`].
    members: Range<usize>,
    /// The members' total weight.
    weight: u64,
    /// Its pairs' partners are `live[partners..]`: every live
    /// representative at a site fetched later.
    partners: usize,
    /// Its bucket ([`O2_BUCKETS`]).
    bucket: u32,
}

impl O2Space {
    fn new(mut reps: Vec<O2Rep>) -> O2Space {
        // Number the classes by first fetch, then site; those of one site
        // keep the order they were found in.
        let key = |r: &O2Rep| (r.first_fetch, r.fault.site, r.class);
        let mut ids: Vec<_> = reps.iter().filter(|r| !r.is_static).map(key).collect();
        ids.sort_unstable();
        ids.dedup();
        for r in reps.iter_mut().filter(|r| !r.is_static) {
            r.class = ids.binary_search(&key(r)).expect("listed") as u32;
        }
        let mut live: Vec<O2Rep> = reps.iter().filter(|r| !r.is_static).copied().collect();
        live.sort_by_key(|r| r.class);
        let mut classes: Vec<O2Class> = Vec::with_capacity(ids.len());
        let mut start = 0;
        for class in live.chunk_by(|a, b| a.class == b.class) {
            let weight = class.iter().map(|r| r.weight).sum();
            let members = start..start + class.len();
            classes.push(O2Class { members, weight, partners: 0, bucket: 0 });
            start += class.len();
        }
        // The classes of one site are adjacent in class order: each one's
        // partners start after the last of them.
        let (mut site, mut end) = (None, live.len());
        for c in classes.iter_mut().rev() {
            let here = live[c.members.start].fault.site;
            if site != Some(here) {
                (site, end) = (Some(here), c.members.end);
            }
            c.partners = end;
        }
        // Contiguous runs of class order, each starting once the partners
        // before it reach its share of all partners, dealt to the buckets
        // in turn.
        let total: usize = classes.iter().map(|c| live.len() - c.partners).sum();
        let runs = O2_BUCKETS as usize * O2_RUNS;
        let mut before = 0;
        for c in &mut classes {
            let share = (before * runs).checked_div(total).unwrap_or(0);
            c.bucket = (share.min(runs - 1) % O2_BUCKETS as usize) as u32;
            before += live.len() - c.partners;
        }
        let mut static_at = BTreeMap::new();
        for r in reps.iter().filter(|r| r.is_static) {
            *static_at.entry(r.fault.site).or_default() += r.weight;
        }
        O2Space {
            partners: live.iter().map(|r| (r.fault, r.o1)).collect(),
            static_weight: static_at.values().sum(),
            reps,
            live,
            classes,
            static_at,
        }
    }

    /// The bucket of a pair whose first-firing live member is in class
    /// `class` (`None`: both members are static).
    fn bucket_of(&self, class: Option<u32>) -> u32 {
        class.map_or(0, |c| self.classes[c as usize].bucket)
    }
}

/// The class of a pair's first-firing live member: of two live members,
/// the one in the earlier class (`None` when both are static).
fn first_live_class(a: &O2Rep, b: &O2Rep) -> Option<u32> {
    match (a.is_static, b.is_static) {
        (true, true) => None,
        (true, false) => Some(b.class),
        (false, true) => Some(a.class),
        (false, false) => Some(a.class.min(b.class)),
    }
}

/// Which executor runs a second-order bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum O2Executor {
    /// One walk per first-fault class: its pairs fork off the trial of
    /// one member at the first fetch of the second fault's site, or are
    /// settled by state equality ([`MultiFaultRunner::run_pairs`]).
    Fork,
    /// Every both-live pair restores the snapshot and arms both faults
    /// ([`MultiFaultRunner::run`]): the oracle.
    Reference,
}

/// One second-order bucket's results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct O2Bucket {
    /// Weighted pair outcomes.
    pub tally: Tally,
    /// The pruning ledger.
    pub stats: MfStats,
    /// Steps of the pair trials that ran.
    pub steps: PairSteps,
    /// Both-live pairs by what decided their outcome; they sum to
    /// `stats.simulated`.
    pub pairs: PairsBy,
}

/// Executes one bucket of the second-order campaign: every unordered
/// pair of distinct-site representatives whose first-firing live member
/// belongs to a first-fault class in `bucket` ([`O2_BUCKETS`]).
///
/// Pair outcomes: both members No Effect → No Effect; one member No
/// Effect → the other member's first-order outcome (a No-Effect fault
/// is indistinguishable from no fault at all); otherwise both faults
/// are armed in one trial, forked off the trial of the member that
/// fires first, and shared by every member of its class. Weights
/// multiply, so the tallies equal the unpruned pair space's.
pub fn order2_shard(bucket: u32) -> (Tally, MfStats) {
    record_order2(order2_bucket(bucket, 1, O2Executor::Fork))
}

/// [`order2_shard`] with every both-live pair simulated from the
/// snapshot: the oracle the fork walk must equal.
pub fn order2_shard_reference(bucket: u32) -> (Tally, MfStats) {
    record_order2(order2_bucket(bucket, 1, O2Executor::Reference))
}

fn record_order2(run: O2Bucket) -> (Tally, MfStats) {
    metrics::simulated(metrics::PAIRS_LABEL).add(run.stats.simulated);
    metrics::candidates(metrics::PAIRS_LABEL).add(run.stats.enumerated);
    metrics::pruned(metrics::PAIRS_LABEL).add(run.stats.pruned);
    metrics::record_tally(metrics::PAIRS_LABEL, &run.tally);
    metrics::pair_steps("shared").add(run.steps.shared);
    metrics::pair_steps("executed").add(run.steps.executed);
    metrics::pair_steps("slid").add(run.steps.slid);
    metrics::pair_steps("settled").add(run.steps.settled);
    metrics::pairs("trial").add(run.pairs.trial);
    metrics::pairs("class").add(run.pairs.class);
    metrics::pairs("rejoin").add(run.pairs.rejoin);
    metrics::pairs("merge").add(run.pairs.merge);
    metrics::pairs("first").add(run.pairs.first);
    metrics::pairs("second").add(run.pairs.second);
    metrics::pairs("state").add(run.pairs.state);
    (run.tally, run.stats)
}

/// One bucket of the second-order campaign over every `stride`-th
/// representative (`1`: the whole pair space), whose first-fault classes
/// are those of the whole space restricted to the sample and numbered
/// afresh; records no metrics.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn order2_bucket(bucket: u32, stride: usize, executor: O2Executor) -> O2Bucket {
    let full = order2_space();
    let sample;
    let space = if stride == 1 {
        full
    } else {
        sample = O2Space::new(full.reps.iter().step_by(stride).copied().collect());
        &sample
    };
    let mut runner = boot_campaign().runner();
    let mut run = match executor {
        O2Executor::Fork => order2_walk(space, bucket, &mut runner),
        O2Executor::Reference => order2_reference(space, bucket, &mut runner),
    };
    run.stats.pruned = run.stats.enumerated - run.stats.simulated;
    run
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

/// The reference executor: every pair of the bucket, each both-live one
/// simulated from the snapshot.
fn order2_reference(space: &O2Space, bucket: u32, runner: &mut MultiFaultRunner) -> O2Bucket {
    let mut run = O2Bucket::default();
    for (a, ra) in space.reps.iter().enumerate() {
        for rb in &space.reps[a + 1..] {
            if ra.fault.site == rb.fault.site || space.bucket_of(first_live_class(ra, rb)) != bucket
            {
                continue; // one fetch, one fault: same-site pairs are undefined
            }
            let weight = ra.weight * rb.weight;
            run.stats.enumerated += weight;
            let outcome = static_pair(ra, rb).unwrap_or_else(|| {
                run.stats.simulated += 1;
                run.pairs.trial += 1;
                let (outcome, n) = runner.run_counted(&[ra.fault, rb.fault]);
                run.steps.merge(&n);
                outcome
            });
            run.tally.record_n(outcome, weight);
        }
    }
    run
}

/// The fork walk: the same pairs as [`order2_reference`], by first-fault
/// class. A class's pairs with static partners take its members' shared
/// first-order outcome; its both-live pairs are walked once, off one
/// member's trial ([`MultiFaultRunner::run_pairs`]), each outcome
/// weighted by the class's total weight times the partner's. Pairs of
/// two static members are tallied in closed form.
fn order2_walk(space: &O2Space, bucket: u32, runner: &mut MultiFaultRunner) -> O2Bucket {
    let mut run = O2Bucket::default();
    if space.bucket_of(None) == bucket {
        let same_site: u64 = space.static_at.values().map(|w| w * w).sum();
        let weight = (space.static_weight * space.static_weight - same_site) / 2;
        run.tally.record_n(Outcome::NoEffect, weight);
        run.stats.enumerated += weight;
    }
    let mut outcomes = Vec::new();
    for class in space.classes.iter().filter(|c| c.bucket == bucket) {
        let first = space.live[class.members.start];
        let statics = space.static_weight - space.static_at.get(&first.fault.site).unwrap_or(&0);
        run.tally.record_n(first.o1, class.weight * statics);
        run.stats.enumerated += class.weight * statics;
        let partners = &space.partners[class.partners..];
        if partners.is_empty() {
            continue;
        }
        let (steps, by) = runner.run_pairs(first.fault, partners, &mut outcomes);
        run.steps.merge(&steps);
        run.pairs.merge(&by);
        let members = class.members.len() as u64;
        run.pairs.class += (members - 1) * partners.len() as u64;
        run.stats.simulated += members * partners.len() as u64;
        for (p, &outcome) in space.live[class.partners..].iter().zip(&outcomes) {
            let weight = class.weight * p.weight;
            run.tally.record_n(outcome, weight);
            run.stats.enumerated += weight;
        }
    }
    run
}
