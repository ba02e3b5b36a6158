//! The multi-fault trial runners: a [`Replay`] of the image booted to
//! the first scoped fetch, with N fetch-stage injections armed per
//! trial, and the classifiers that read the boot firmware's markers or
//! an ingested image's divergence from its unfaulted run.

use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

use gd_backend::FirmwareImage;
use gd_emu::{
    Config, Cpu, Emu, Fork, Injection, LoadOverride, PredecodedImage, Replay, StopReason, Trial,
};
use gd_firmware::BOOT_MARKER;
use gd_glitch_emu::Outcome;
use gd_thumb::Reg;

use crate::model::FaultInstance;

/// Step budget per trial, from reset. `firmware::boot` completes in
/// a few hundred steps; the headroom bounds glitched runs that land in
/// the HAL's wait loops without slowing honest trials.
pub const MF_TRIAL_STEPS: u64 = 4096;

/// The value `firmware::boot`'s impossible path reports — seeing it on
/// the uart means the glitch reached code that no unfaulted execution
/// reaches.
pub const COMPROMISE_VALUE: u32 = 0xC0DE;

/// Boots `image` into a [`Replay`] over its text, snapshotted at the
/// first fetch within `scope` (half-open address ranges).
fn replay(
    image: &FirmwareImage,
    cfg: Config,
    scope: &[(u32, u32)],
    watch: Option<(u32, u32)>,
) -> Replay {
    let boot = || {
        let mut emu = image.boot_emu();
        emu.cfg = cfg;
        emu
    };
    let table = PredecodedImage::from_bytes(image.text_base, &image.text, cfg);
    let start = |pc| scope.iter().any(|&(lo, hi)| (lo..hi).contains(&pc));
    Replay::new(boot, table, MF_TRIAL_STEPS, watch, start)
}

/// Step ledger of the second-order pair trials that ran: each ran from a
/// fork off its first fault's trial, sharing that trial's steps up to
/// the fork, and ran its own steps dispatched, slid through zero-filled
/// flash, or settled as whole periods of a spin. A pair settled at its
/// fork after its faulted step ([`PairsBy::merge`], [`PairsBy::second`])
/// adds that one dispatched step (and any zero fill it slid into) and
/// shares nothing; other settled pairs add nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSteps {
    /// Steps a pair trial shares with its first fault's trial, up to the
    /// fork at the first fetch of the second fault's site.
    pub shared: u64,
    /// Steps dispatched for pair trials alone.
    pub executed: u64,
    /// Steps slid ([`Emu::slide`]) for pair trials alone.
    pub slid: u64,
    /// Steps settled ([`Replay::run_settling`]) for pair trials alone.
    pub settled: u64,
}

impl PairSteps {
    /// The steps `trial` ran beyond `from` (its state at a fork, or a
    /// fresh trial), none of them shared.
    fn run_since(from: &Trial, trial: &Trial) -> PairSteps {
        let slid = trial.slid - from.slid;
        let settled = trial.settled - from.settled;
        PairSteps { shared: 0, executed: from.left - trial.left - slid - settled, slid, settled }
    }

    /// Adds `other` into this ledger.
    pub fn merge(&mut self, other: &PairSteps) {
        self.shared += other.shared;
        self.executed += other.executed;
        self.slid += other.slid;
        self.settled += other.settled;
    }
}

/// Both-live pairs by what decided their outcome: a pair trial of their
/// own, or a state equality that makes it an outcome already known.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairsBy {
    /// Ran a pair trial, forked off the first fault's trial.
    pub trial: u64,
    /// Took the outcome of the same partner paired with another member
    /// of the first fault's class ([`MultiFaultRunner::run_classed`]).
    pub class: u64,
    /// Took the partner's first-order outcome: the first fault's trial
    /// rejoined the unfaulted trial before fetching the partner's site.
    pub rejoin: u64,
    /// Took the first fault's own outcome: the partner's faulted step
    /// reached the state the first fault's trial reached without it.
    pub merge: u64,
    /// Took the first fault's own outcome: its trial never fetches the
    /// partner's site.
    pub first: u64,
    /// Took the outcome of another partner at the same fork: both faulted
    /// steps left no injection armed and reached equal states.
    pub second: u64,
    /// Took the outcome an earlier walk stored for the same partner: that
    /// walk's first fault reached the partner's site in the same state,
    /// with the same compromise flag, and at the same step or with budget
    /// enough for every pair trial stored there to end as it did.
    pub state: u64,
}

impl PairsBy {
    /// Every pair counted.
    pub fn total(&self) -> u64 {
        self.trial + self.class + self.rejoin + self.merge + self.first + self.second + self.state
    }

    /// Adds `other` into these counts.
    pub fn merge(&mut self, other: &PairsBy) {
        self.trial += other.trial;
        self.class += other.class;
        self.rejoin += other.rejoin;
        self.merge += other.merge;
        self.first += other.first;
        self.second += other.second;
        self.state += other.state;
    }
}

/// A pair trial's state just after its second fault's step, when that
/// step stored nothing and no injection is left armed. Memory is then
/// the fork's, so two partners at one fork with equal states run on
/// identically: fields are compared in order, the cheap ones first.
#[derive(Debug, PartialEq, Eq)]
struct StoreFree {
    pc: u32,
    /// Steps left in the budget.
    left: u64,
    watched: bool,
    load_override: Option<LoadOverride>,
    cpu: Cpu,
}

/// A memo entry: one walk's first fault reached a partner site in the
/// state whose [`Replay::state_hash`] keys it in [`StateMemo::entries`].
/// Sixteen bytes, since a bucket's walks store thousands.
#[derive(Debug, Clone, Copy)]
struct Reached {
    /// The first fault whose walk stored it, in [`StateMemo::reps`].
    rep: u32,
    /// Where the site's partner outcomes start in [`StateMemo::outcomes`].
    outcomes: u32,
    /// Its trial's budget left and compromise flag at the site's first
    /// fetch ([`Reached::stamp`]).
    stamp: u32,
    /// Steps the longest of the site's pair trials took from there to
    /// stop or fault (`u32::MAX`: one ran out its budget).
    need: u32,
}

impl Reached {
    /// `at`'s budget left, shifted over its compromise flag.
    fn stamp(at: &Trial) -> u64 {
        at.left << 1 | u64::from(at.watched)
    }

    /// The budget left at the storing trial's fetch.
    fn left(&self) -> u64 {
        u64::from(self.stamp >> 1)
    }

    /// Whether a trial at `at`, in the entry's state, has the entry's
    /// pair outcomes: it carries the same compromise flag, and the same
    /// budget left or enough for each pair trial to end as it did.
    fn holds_at(&self, at: &Trial) -> bool {
        let (stamp, watched) = (u64::from(self.stamp), self.stamp & 1 == 1);
        stamp == Reached::stamp(at) || (watched == at.watched && u64::from(self.need) <= at.left)
    }
}

/// Partner outcomes of earlier [`MultiFaultRunner::run_pairs`] walks, by
/// the state their first fault's trial reached a partner site in. Pair
/// trials from equal states with the same partner armed take the same
/// steps, whatever the step count, until one runs out its budget: so a
/// walk that reaches a partner site in a stored state, at the same step
/// or with budget enough, takes the outcomes stored there.
#[derive(Debug, Default)]
struct StateMemo {
    /// Per partner site, the partners its entries list outcomes for, in
    /// call order: a range of `partners`.
    sites: HashMap<u32, Range<usize>>,
    partners: Vec<FaultInstance>,
    /// By the low half of the state hash, which covers the PC and so the
    /// partner site but not the step count. Of two states that share a
    /// key, the first is kept.
    entries: HashMap<u32, Reached>,
    reps: Vec<FaultInstance>,
    /// Every entry's outcomes, each entry's in one run in its site's
    /// partner order.
    outcomes: Vec<Outcome>,
}

impl StateMemo {
    /// Whether the entries at `site` list outcomes for exactly `here`.
    fn lists(&self, site: u32, here: impl Iterator<Item = FaultInstance>) -> bool {
        self.sites.get(&site).is_some_and(|r| self.partners[r.clone()].iter().copied().eq(here))
    }

    /// The entry at `hash` for a trial at `at` fetching `site`, if the
    /// site lists the partners `here` and the entry holds at `at`
    /// ([`Reached::holds_at`]): its first fault, where its outcomes start
    /// and its trial's budget left. The state is then still to be
    /// confirmed.
    fn get(
        &self,
        hash: u64,
        site: u32,
        at: &Trial,
        here: impl Iterator<Item = FaultInstance>,
    ) -> Option<(FaultInstance, usize, u64)> {
        let entry = self.entries.get(&(hash as u32))?;
        (entry.holds_at(at) && self.lists(site, here))
            .then(|| (self.reps[entry.rep as usize], entry.outcomes as usize, entry.left()))
    }

    /// Stores the outcomes of the partners `here` at `site`, reached in
    /// the state `hash` by `rep`'s trial at `at`, whose longest pair trial
    /// took `need` steps to stop or fault (`u64::MAX`: one ran out its
    /// budget). A site's partner list is fixed by its first entry:
    /// another list clears the memo.
    fn insert(
        &mut self,
        hash: u64,
        site: u32,
        rep: FaultInstance,
        at: &Trial,
        need: u64,
        here: impl Iterator<Item = (FaultInstance, Outcome)> + Clone,
    ) {
        if !self.lists(site, here.clone().map(|(p, _)| p)) {
            if self.sites.contains_key(&site) {
                *self = StateMemo::default();
            }
            let start = self.partners.len();
            self.partners.extend(here.clone().map(|(p, _)| p));
            self.sites.insert(site, start..self.partners.len());
        }
        if let Entry::Vacant(slot) = self.entries.entry(hash as u32) {
            if self.reps.last() != Some(&rep) {
                self.reps.push(rep);
            }
            let narrow = |n: u64| u32::try_from(n).expect("fits in 32 bits");
            slot.insert(Reached {
                rep: narrow(self.reps.len() as u64 - 1),
                outcomes: narrow(self.outcomes.len() as u64),
                stamp: narrow(Reached::stamp(at)),
                need: u32::try_from(need).unwrap_or(u32::MAX),
            });
            self.outcomes.extend(here.map(|(_, o)| o));
        }
    }
}

/// Where a fault's trial stands just after the fault first fires — what
/// [`MultiFaultRunner::run_classed`] compares to group the faults at one
/// site into first-fault classes.
#[derive(Debug)]
pub struct Fired(FiredState);

#[derive(Debug)]
enum FiredState {
    /// Running on from this state, with this compromise flag.
    Runs(Fork, bool),
    /// Ended at that step: stop or fault, compromise flag and final `r0`.
    Ended((Option<Result<StopReason, gd_emu::Fault>>, bool, u32)),
    /// Never fires: the unfaulted trial never fetches its site.
    Never,
}

/// Replays `firmware::boot` under sets of armed fault injections and
/// classifies each trial.
///
/// Construction boots the image into a [`Replay`] snapshotted at the
/// first fetch inside any scoped range, and replays one unfaulted trial,
/// recording when each halfword is first fetched and a [`Fork`] at every
/// step it dispatches. Each trial arms its set of injections on the
/// replay and runs with a compromise watch on the uart store.
/// [`MultiFaultRunner::run_pairs`] runs many two-fault trials that share
/// a first fault off that fault's trial, and keeps their outcomes for
/// later walks that reach a partner site in the same state.
#[derive(Debug)]
pub struct MultiFaultRunner {
    replay: Replay,
    /// Per text halfword: the unfaulted trial's step at its first fetch
    /// (`u32::MAX`: never fetched).
    first_fetch: Vec<u32>,
    /// The unfaulted trial's state before each step it dispatched, by
    /// step (`None`: slid past). Empty if that trial ever stores the
    /// compromise value, so nothing rejoins it.
    baseline: Vec<Option<Fork>>,
    /// The unfaulted trial's outcome.
    unfaulted: Outcome,
    /// The unfaulted trial's budget left when it stopped or faulted
    /// (`None`: it ran out its budget).
    unfaulted_left: Option<u64>,
    /// Fork-walk scratch: per text halfword, whether a partner's site
    /// there still awaits its first fetch.
    pending: Vec<bool>,
    /// Fork-walk scratch: partner indices ordered by site.
    by_site: Vec<usize>,
    /// Fork-walk scratch: partners that take the first fault's outcome,
    /// with the budget left at their site's fetch.
    merged: Vec<(usize, u64)>,
    /// Fork-walk scratch: per partner, the steps its pair trial took from
    /// its site's fetch to stop or fault (`u64::MAX`: it ran out its
    /// budget, or took no trial).
    needs: Vec<u64>,
    /// Fork-walk scratch: the store-free states pair trials at the
    /// current fork ran from, with their partner indices.
    seconds: Vec<(StoreFree, usize)>,
    /// Fork-walk scratch: the states pair trials at the current fork ran
    /// from after a faulted step that stored, with their trials and
    /// partner indices.
    stored_seconds: Vec<(Fork, Trial, usize)>,
    /// Fork-walk scratch: the state hashes, trials and `by_site` ranges
    /// at the partner sites the current walk ran partners at.
    stored: Vec<(u64, Trial, Range<usize>)>,
    /// `(partner, representative)` indices of the partners the last
    /// [`MultiFaultRunner::run_pairs`] settled by [`PairsBy::second`].
    settled_second: Vec<(usize, usize)>,
    /// The `by_site` ranges of the partners the last
    /// [`MultiFaultRunner::run_pairs`] settled by [`PairsBy::state`], each
    /// with the first fault whose walk stored their outcomes.
    settled_state: Vec<(Range<usize>, FaultInstance)>,
    memo: StateMemo,
}

impl MultiFaultRunner {
    /// Boots `image` and snapshots at the first fetch within `scope`
    /// (half-open address ranges). Falls back to the reset state if no
    /// scoped fetch happens within the budget.
    pub fn new(image: &FirmwareImage, cfg: Config, scope: &[(u32, u32)]) -> MultiFaultRunner {
        let watch = (image.symbol("uart_out"), COMPROMISE_VALUE);
        let mut replay = replay(image, cfg, scope, Some(watch));
        let mut first_fetch = vec![u32::MAX; replay.table().len()];
        let mut baseline = Vec::new();
        let mut trial = replay.arm([]);
        replay.run(&mut trial, |r, step| {
            if let Some(i) = r.table().index(r.emu().pc()) {
                first_fetch[i] = first_fetch[i].min(step as u32);
            }
            baseline.resize_with(step as usize, || None);
            baseline.push(Some(r.emu().fork()));
            false
        });
        let unfaulted = Self::classify(replay.emu(), &trial);
        let unfaulted_left = trial.end.is_some().then_some(trial.left);
        if trial.watched {
            baseline.clear();
        }
        let pending = vec![false; first_fetch.len()];
        MultiFaultRunner {
            replay,
            first_fetch,
            baseline,
            unfaulted,
            unfaulted_left,
            pending,
            by_site: Vec::new(),
            merged: Vec::new(),
            needs: Vec::new(),
            seconds: Vec::new(),
            stored_seconds: Vec::new(),
            stored: Vec::new(),
            settled_second: Vec::new(),
            settled_state: Vec::new(),
            memo: StateMemo::default(),
        }
    }

    /// Steps already replayed into the snapshot (per-trial budget is
    /// [`MF_TRIAL_STEPS`] minus this).
    pub fn replayed(&self) -> u64 {
        self.replay.replayed()
    }

    /// Steps from the snapshot to the unfaulted trial's first fetch of
    /// `site`, or `None` if it never fetches it. Of two faults, the one
    /// whose site comes first fires first in their pair trial.
    pub fn first_fetch(&self, site: u32) -> Option<u32> {
        let i = self.replay.table().index(site)?;
        Some(self.first_fetch[i]).filter(|&s| s != u32::MAX)
    }

    /// `(partner, representative)` indices into the partners of the last
    /// [`MultiFaultRunner::run_pairs`] call: each partner it settled by
    /// [`PairsBy::second`], with the partner whose pair trial it shares.
    pub fn settled_by_second(&self) -> &[(usize, usize)] {
        &self.settled_second
    }

    /// `(partner, first)` for each partner of the last
    /// [`MultiFaultRunner::run_pairs`] call that it settled by
    /// [`PairsBy::state`]: an index into its partners, and the first
    /// fault whose earlier walk reached that partner's site in the same
    /// state, so that `run(&[first, p])` is this pair's outcome too.
    pub fn settled_by_state(&self) -> impl Iterator<Item = (usize, FaultInstance)> + '_ {
        let by_site = &self.by_site;
        self.settled_state
            .iter()
            .flat_map(move |(range, rep)| by_site[range.clone()].iter().map(move |&i| (i, *rep)))
    }

    /// Runs one trial with `faults` armed and classifies it.
    ///
    /// Classification extends the Figure 2 taxonomy to the boot
    /// firmware: *Success* when the impossible path's
    /// [`COMPROMISE_VALUE`] is stored to the uart at any point (the
    /// final uart value is overwritten by the normal report, so the
    /// store itself is watched), *No Effect* for a clean stop returning
    /// [`BOOT_MARKER`], fault classes via
    /// [`Outcome::from_fault`], *Failed* otherwise (wrong marker, wrong
    /// stop, stuck).
    pub fn run(&mut self, faults: &[FaultInstance]) -> Outcome {
        self.run_counted(faults).0
    }

    /// [`MultiFaultRunner::run`], also returning the steps the trial took
    /// (none of them shared).
    pub fn run_counted(&mut self, faults: &[FaultInstance]) -> (Outcome, PairSteps) {
        let start = self.replay.arm(faults.iter().map(FaultInstance::injection));
        let mut trial = start;
        self.replay.finish(&mut trial);
        (Self::classify(self.replay.emu(), &trial), PairSteps::run_since(&start, &trial))
    }

    /// [`MultiFaultRunner::run`] for one fault, started where it first
    /// acts (`MultiFaultRunner::arm_at_fetch`) instead of at the
    /// snapshot, and settled once it can only spin
    /// ([`Replay::run_settling`]).
    pub fn run_at_fetch(&mut self, fault: FaultInstance) -> Outcome {
        let mut trial = self.arm_at_fetch(fault);
        self.replay.run_settling(&mut trial);
        Self::classify(self.replay.emu(), &trial)
    }

    /// Arms `fault` alone and returns its trial, at the unfaulted trial's
    /// state before the first fetch of its site: until a fault fires, its
    /// trial is the unfaulted one. Starts from the snapshot when there is
    /// no such state: the site is never fetched, or the unfaulted trial
    /// stores the compromise value (and so keeps no forks).
    fn arm_at_fetch(&mut self, fault: FaultInstance) -> Trial {
        self.arm_before(fault, self.first_fetch(fault.site))
    }

    /// [`MultiFaultRunner::arm_at_fetch`] at the unfaulted trial's state
    /// before `step`, a first fetch no later than that of `fault`'s site
    /// (`None`: at the snapshot).
    fn arm_before(&mut self, fault: FaultInstance, step: Option<u32>) -> Trial {
        let budget = self.replay.budget();
        match step.and_then(|s| Some((s, self.baseline.get(s as usize)?.as_ref()?))) {
            Some((step, fork)) => {
                self.replay.resume(fork);
                self.replay.inject(fault.injection());
                Trial { left: budget - u64::from(step), ..Trial::new(budget) }
            }
            None => self.replay.arm([fault.injection()]),
        }
    }

    /// Whether `rep`'s trial, re-walked from where it first fires to the
    /// step with `left` budget left, is there in `fork`'s state (at
    /// whatever step `fork` was taken, [`Replay::recurs`]) with compromise
    /// flag `watched`. That step is a fetch `rep`'s own walk paused at,
    /// so the re-walk pauses exactly there. Leaves the emulator at `fork`.
    fn reaches(&mut self, rep: FaultInstance, left: u64, watched: bool, fork: &Fork) -> bool {
        let step = self.replay.budget() - left;
        let mut trial = self.arm_at_fetch(rep);
        let same = !self.replay.run(&mut trial, |_, s| s >= step)
            && trial.watched == watched
            && self.replay.recurs(fork);
        self.replay.resume(fork);
        same
    }

    /// [`MultiFaultRunner::run`] for one fault, also placing it in a
    /// first-fault class: `classes` holds the classes found so far at its
    /// site (empty for a new site). Returns the outcome and the index of
    /// the fault's class there, appending a class if none matches.
    ///
    /// Until a fault fires, its trial is the unfaulted one. So two faults
    /// at one site are interchangeable as the first-firing fault of a
    /// pair — each such pair's trial is the same from there on — when
    /// their trials are in the same state just after they fire
    /// ([`Emu::same_state`], with equal compromise flags), or both end at
    /// that step with the same stop or fault, compromise flag and `r0`,
    /// or both never fire. The trial pauses there to compare, then runs
    /// on, settling a spin ([`Replay::run_settling`]): no step is taken
    /// twice.
    pub fn run_classed(
        &mut self,
        fault: FaultInstance,
        classes: &mut Vec<Fired>,
    ) -> (Outcome, usize) {
        let fires = self.first_fetch(fault.site).map(u64::from);
        let mut trial = self.arm_at_fetch(fault);
        if let Some(at) = fires {
            if !self.replay.run(&mut trial, |_, step| step == at) {
                self.replay.step(&mut trial);
            }
        }
        let (replay, r0) = (&self.replay, self.replay.emu().cpu.reg(Reg::R0));
        let ended = (trial.end, trial.watched, r0);
        let same = |class: &Fired| match (&class.0, fires) {
            (FiredState::Never, None) => true,
            (FiredState::Runs(fork, watched), Some(_)) => {
                !trial.ended() && *watched == trial.watched && replay.same_state(fork)
            }
            (FiredState::Ended(end), Some(_)) => trial.ended() && *end == ended,
            _ => false,
        };
        let class = classes.iter().position(same).unwrap_or_else(|| {
            classes.push(Fired(match fires {
                None => FiredState::Never,
                Some(_) if trial.ended() => FiredState::Ended(ended),
                Some(_) => FiredState::Runs(self.replay.emu().fork(), trial.watched),
            }));
            classes.len() - 1
        });
        self.replay.run_settling(&mut trial);
        (Self::classify(self.replay.emu(), &trial), class)
    }

    /// Runs the pair trial `{first, p}` for every `(p, o1)` in `partners`,
    /// where `o1` is `run(&[p])`, writing outcomes to `outcomes` in
    /// `partners` order — each equal to `run(&[first, p])` — while
    /// simulating `first`'s trial at most once. Returns the step ledger
    /// of the pair trials that ran and what decided each pair.
    ///
    /// Until the first fetch of `p`'s site, the pair trial *is* `first`'s
    /// trial: an injection acts only at a fetch of its site, and an
    /// invalidated slot only moves dispatch to the equivalent live path.
    /// So the walk runs `first`'s trial. At the first fetch of each
    /// pending partner site it forks, steps `first`'s trial once and
    /// forks again; each partner there runs from the first fork to the
    /// end (carrying the budget left and the compromise flag), and the
    /// walk resumes from the second fork, so no step runs twice; a
    /// partner's trial that can only spin is settled
    /// ([`Replay::run_settling`]). Five state equalities settle partners
    /// without a trial of their own:
    ///
    /// - *merge*: a partner whose faulted step, its injection spent,
    ///   reaches the second fork's state ([`Emu::same_state`], equal
    ///   compromise flag) has `first`'s trial from there on, and takes
    ///   `first`'s own outcome.
    /// - *second*: a partner whose faulted step left no injection armed
    ///   takes the outcome of an earlier partner at the same fork whose
    ///   faulted step reached an equal state, budget left and compromise
    ///   flag: the two trials are the same from there (they invalidate
    ///   the same slots too). A step that stored nothing (the write epoch
    ///   did not move) has the first fork's memory, so its state is its
    ///   PC, CPU and load override, compared without a fork; a step that
    ///   stored is compared in full ([`Emu::same_state`]) against a fork
    ///   taken of each such partner that ran.
    /// - *rejoin*: once `first` has fired, its trial may reach the
    ///   unfaulted trial's state at the same step, uncompromised. From
    ///   there it *is* the unfaulted trial, and so is each partner's own
    ///   trial if the unfaulted trial first fetches the partner's site at
    ///   or after that step: those partners take their `o1`. Partners it
    ///   fetched earlier are still walked. With none left the walk
    ///   stops, and `first`'s own outcome is the unfaulted one.
    /// - *first*: partners whose site `first`'s trial never fetches take
    ///   `first`'s outcome: their trial *is* `first`'s.
    /// - *state*: at each pending site, with no injection armed, the walk
    ///   looks its state up in the runner's memo by
    ///   [`Replay::state_hash`], which leaves out the step count. An
    ///   earlier walk whose first fault `rep` reached the site with the
    ///   same compromise flag stored the site's partner outcomes there,
    ///   with the steps its longest pair trial took to stop or fault.
    ///   The entry holds at the same budget left, or at any budget left
    ///   that covers those steps. Re-walking `rep`'s trial to its step
    ///   there confirms the state ([`Emu::recurs`]); once confirmed,
    ///   `first`'s trial *is* `rep`'s from there, shifted by the steps
    ///   between the two, so `rep`'s later entries at the same shift need
    ///   no re-walk. Then every partner here has `rep`'s pair trial from
    ///   this fetch on, shifted alike, which stops or faults as it did
    ///   within the budget: it takes the stored outcome, and the walk
    ///   steps on. Sites the walk ran partners at are stored once every
    ///   outcome is known. The stored outcomes are for the site's
    ///   partners as first given: a call with other partners at a stored
    ///   site clears the memo.
    ///
    /// # Panics
    ///
    /// Panics if a partner's site lies outside the image's text, or
    /// shares `first`'s site.
    pub fn run_pairs(
        &mut self,
        first: FaultInstance,
        partners: &[(FaultInstance, Outcome)],
        outcomes: &mut Vec<Outcome>,
    ) -> (PairSteps, PairsBy) {
        let mut by_site = std::mem::take(&mut self.by_site);
        by_site.clear();
        by_site.extend(0..partners.len());
        by_site.sort_by_key(|&i| partners[i].0.site);
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        let mut needs = std::mem::take(&mut self.needs);
        needs.clear();
        needs.resize(partners.len(), u64::MAX);
        let mut seconds = std::mem::take(&mut self.seconds);
        let mut stored_seconds = std::mem::take(&mut self.stored_seconds);
        let mut stored = std::mem::take(&mut self.stored);
        stored.clear();
        self.settled_second.clear();
        self.settled_state.clear();
        let mut left = 0; // partner sites still awaiting their first fetch
        for (p, _) in partners {
            assert_ne!(p.site, first.site, "a pair needs two sites");
            let i = self.replay.table().index(p.site).expect("partner site in text");
            left += usize::from(!std::mem::replace(&mut self.pending[i], true));
        }
        outcomes.clear();
        outcomes.resize(partners.len(), Outcome::NoEffect);

        let budget = self.replay.budget();
        let base = self.replay.table().base();
        let slot = |addr: u32| (addr.wrapping_sub(base) >> 1) as usize;
        let mut steps = PairSteps::default();
        let mut by = PairsBy::default();
        // From the step after `first` fires, its trial may rejoin the
        // unfaulted one.
        let mut rejoin_from = self.first_fetch(first.site).map_or(u64::MAX, |at| u64::from(at) + 1);
        // `first`'s own outcome once known, with its budget left when it
        // stopped or faulted (`None`: it ran out its budget).
        let mut alone: Option<(Outcome, Option<u64>)> = None;
        let end_left = |t: &Trial| t.end.is_some().then_some(t.left);
        // A first fault whose trial `first`'s is from a confirmed match on,
        // and how much more budget `first`'s has left at the same state.
        let mut joined: Option<(FaultInstance, i64)> = None;
        // Nothing fires before the first fetch of `first`'s site or a
        // partner's: the walk starts at the earliest of them.
        let start = partners.iter().map(|(p, _)| p.site).chain([first.site]);
        let start = start.filter_map(|site| self.first_fetch(site)).min();
        let mut trial = self.arm_before(first, start);
        while left > 0 || (alone.is_none() && !merged.is_empty()) {
            let (pending, baseline) = (&self.pending, &self.baseline);
            let rejoin = |pc: u32, step: u64| {
                let unfaulted = baseline.get(step as usize).and_then(Option::as_ref);
                step >= rejoin_from && unfaulted.is_some_and(|b| b.pc() == pc)
            };
            let pause = |r: &Replay, step: u64| {
                let pc = r.emu().pc();
                pending.get(slot(pc)) == Some(&true) || rejoin(pc, step)
            };
            if self.replay.run(&mut trial, pause) {
                break;
            }
            let (pc, step) = (self.replay.emu().pc(), budget - trial.left);
            if rejoin(pc, step) {
                let unfaulted = self.baseline[step as usize].as_ref().expect("paused at a step");
                if trial.watched {
                    rejoin_from = u64::MAX;
                } else if self.replay.same_state(unfaulted) {
                    rejoin_from = u64::MAX;
                    alone = Some((self.unfaulted, self.unfaulted_left));
                    for site in by_site.chunk_by(|&a, &b| partners[a].0.site == partners[b].0.site)
                    {
                        let s = slot(partners[site[0]].0.site);
                        if self.pending[s] && u64::from(self.first_fetch[s]) >= step {
                            self.pending[s] = false;
                            left -= 1;
                            for &i in site {
                                outcomes[i] = partners[i].1;
                            }
                            by.rejoin += site.len() as u64;
                        }
                    }
                }
            }
            if !std::mem::replace(&mut self.pending[slot(pc)], false) {
                self.replay.step(&mut trial); // paused only to check a rejoin
                continue;
            }
            left -= 1;
            let lo = by_site.partition_point(|&i| partners[i].0.site < pc);
            let hi = lo + by_site[lo..].iter().take_while(|&&i| partners[i].0.site == pc).count();
            let here = &by_site[lo..hi];
            let armed = self.replay.emu().injections().iter().any(Injection::is_armed);
            let hash = (!armed).then(|| self.replay.state_hash());
            let fork = self.replay.emu().fork();
            let at = trial;
            let shift = |rep_left: u64| at.left as i64 - rep_left as i64;
            let known = hash
                .and_then(|h| self.memo.get(h, pc, &at, here.iter().map(|&i| partners[i].0)))
                .filter(|&(rep, _, rep_left)| {
                    joined == Some((rep, shift(rep_left)))
                        || self.reaches(rep, rep_left, at.watched, &fork)
                });
            self.replay.step(&mut trial);
            let next = if trial.ended() {
                alone =
                    alone.or(Some((Self::classify(self.replay.emu(), &trial), end_left(&trial))));
                None
            } else {
                Some(self.replay.emu().fork())
            };
            if let Some((rep, start, rep_left)) = known {
                joined = Some((rep, shift(rep_left)));
                for (&i, &outcome) in here.iter().zip(&self.memo.outcomes[start..]) {
                    outcomes[i] = outcome;
                }
                self.settled_state.push((lo..hi, rep));
                by.state += here.len() as u64;
            } else {
                seconds.clear();
                stored_seconds.clear();
                for &i in here {
                    self.replay.resume(&fork);
                    self.replay.inject(partners[i].0.injection());
                    let epoch = self.replay.emu().mem.write_epoch();
                    let mut pair = at;
                    self.replay.step(&mut pair);
                    let noop = !pair.ended()
                        && pair.watched == trial.watched
                        && next.as_ref().is_some_and(|n| self.replay.same_state(n));
                    let emu = self.replay.emu();
                    let clean =
                        !noop && !pair.ended() && !emu.injections().iter().any(Injection::is_armed);
                    let stores = emu.mem.write_epoch() != epoch;
                    let state = (clean && !stores).then(|| StoreFree {
                        pc: emu.pc(),
                        left: pair.left,
                        watched: pair.watched,
                        load_override: emu.load_override,
                        cpu: emu.cpu.clone(),
                    });
                    let replay = &self.replay;
                    let seen = match &state {
                        Some(s) => seconds.iter().find(|(t, _)| t == s).map(|&(_, q)| q),
                        None if clean => stored_seconds
                            .iter()
                            .find(|(f, t, _)| {
                                (t.left, t.watched) == (pair.left, pair.watched)
                                    && replay.same_state(f)
                            })
                            .map(|&(_, _, q)| q),
                        None => None,
                    };
                    if noop {
                        merged.push((i, at.left));
                        by.merge += 1;
                    } else if let Some(q) = seen {
                        outcomes[i] = outcomes[q];
                        needs[i] = needs[q];
                        self.settled_second.push((i, q));
                        by.second += 1;
                    } else {
                        if clean && stores {
                            stored_seconds.push((self.replay.emu().fork(), pair, i));
                        }
                        self.replay.run_settling(&mut pair);
                        outcomes[i] = Self::classify(self.replay.emu(), &pair);
                        needs[i] = end_left(&pair).map_or(u64::MAX, |end| at.left - end);
                        by.trial += 1;
                        steps.shared += budget - at.left;
                        seconds.extend(state.map(|s| (s, i)));
                    }
                    steps.merge(&PairSteps::run_since(&at, &pair));
                }
                stored.extend(hash.map(|h| (h, at, lo..hi)));
            }
            match &next {
                Some(next) => self.replay.resume(next),
                None => break,
            }
        }
        if trial.ended() && alone.is_none() {
            alone = Some((Self::classify(self.replay.emu(), &trial), end_left(&trial)));
        }

        for &(i, left) in &merged {
            let (outcome, end) = alone.expect("the walk ran until first's outcome was known");
            outcomes[i] = outcome;
            needs[i] = end.map_or(u64::MAX, |end| left - end);
        }
        for site in by_site.chunk_by(|&a, &b| partners[a].0.site == partners[b].0.site) {
            if std::mem::replace(&mut self.pending[slot(partners[site[0]].0.site)], false) {
                for &i in site {
                    outcomes[i] = alone.expect("the walk ran to its end").0;
                }
                by.first += site.len() as u64;
            }
        }
        for (hash, at, range) in stored.drain(..) {
            let site = partners[by_site[range.start]].0.site;
            let need = by_site[range.clone()].iter().map(|&i| needs[i]).max().unwrap_or(0);
            let here = by_site[range].iter().map(|&i| (partners[i].0, outcomes[i]));
            self.memo.insert(hash, site, first, &at, need, here);
        }
        self.by_site = by_site;
        self.merged = merged;
        self.needs = needs;
        self.seconds = seconds;
        self.stored_seconds = stored_seconds;
        self.stored = stored;
        (steps, by)
    }

    /// Classifies a finished trial of `firmware::boot` (see
    /// [`MultiFaultRunner::run`]); `emu` holds its final state.
    pub fn classify(emu: &Emu, trial: &Trial) -> Outcome {
        if trial.watched {
            return Outcome::Success;
        }
        match trial.end {
            Some(Ok(StopReason::Bkpt(_))) if emu.cpu.reg(Reg::R0) == BOOT_MARKER => {
                Outcome::NoEffect
            }
            Some(Ok(_)) => Outcome::Failed,
            Some(Err(f)) => Outcome::from_fault(&f),
            None => Outcome::Failed, // step budget exhausted
        }
    }
}

/// What the unfaulted execution of an image does within the trial
/// budget — the reference a [`DivergenceRunner`] classifies against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Baseline {
    /// Clean stop with this reason and final `r0`.
    Stop(StopReason, u32),
    /// The unfaulted run never stops inside the budget (spin loop).
    Spin,
}

/// [`MultiFaultRunner`] generalized to firmware the compiler did not
/// produce: ingested third-party images have no `uart_out` symbol and no
/// [`BOOT_MARKER`] convention, so trials classify by *divergence from
/// the unfaulted baseline* instead.
///
/// Construction boots the image into a [`Replay`] snapshotted at the
/// first scoped fetch, and replays one unfaulted trial to record the
/// baseline. Each faulted trial then classifies as:
///
/// - *Success* when the optional `(address, value)` store watch fires —
///   the glitch drove a store no honest run performs;
/// - *No Effect* for a clean stop matching the baseline stop reason and
///   final `r0` (or, for a spinning baseline, exhausting the budget at
///   some scoped PC);
/// - fault classes via [`Outcome::from_fault`];
/// - *Failed* otherwise (diverged stop, wrong `r0`, stuck when the
///   baseline finished).
#[derive(Debug)]
pub struct DivergenceRunner {
    replay: Replay,
    scope: Vec<(u32, u32)>,
    baseline: Baseline,
}

impl DivergenceRunner {
    /// Boots `image`, snapshots at the first fetch within `scope`, and
    /// records the unfaulted baseline. `watch` is the compromise oracle:
    /// a `(address, value)` store that only glitched control flow can
    /// reach.
    pub fn new(
        image: &FirmwareImage,
        cfg: Config,
        scope: &[(u32, u32)],
        watch: Option<(u32, u32)>,
    ) -> DivergenceRunner {
        let mut replay = replay(image, cfg, scope, watch);
        // One unfaulted replay pins the baseline the trials diverge from.
        let mut trial = replay.arm([]);
        replay.finish(&mut trial);
        let baseline = match trial.end {
            Some(Ok(reason)) => Baseline::Stop(reason, replay.emu().cpu.reg(Reg::R0)),
            Some(Err(f)) => panic!("unfaulted baseline faults: {f:?}"),
            None => Baseline::Spin,
        };
        DivergenceRunner { replay, scope: scope.to_vec(), baseline }
    }

    /// Steps already replayed into the snapshot.
    pub fn replayed(&self) -> u64 {
        self.replay.replayed()
    }

    /// Runs one trial with `faults` armed and classifies it against the
    /// baseline.
    pub fn run(&mut self, faults: &[FaultInstance]) -> Outcome {
        let mut trial = self.replay.arm(faults.iter().map(FaultInstance::injection));
        self.replay.finish(&mut trial);
        self.classify(self.replay.emu(), &trial)
    }

    /// Classifies a finished trial against the baseline; `emu` holds its
    /// final state.
    pub fn classify(&self, emu: &Emu, trial: &Trial) -> Outcome {
        if trial.watched {
            return Outcome::Success;
        }
        match (trial.end, self.baseline) {
            (Some(Ok(reason)), Baseline::Stop(base, r0))
                if reason == base && emu.cpu.reg(Reg::R0) == r0 =>
            {
                Outcome::NoEffect
            }
            (Some(Ok(_)), _) => Outcome::Failed,
            (Some(Err(f)), _) => Outcome::from_fault(&f),
            (None, Baseline::Spin)
                if self.scope.iter().any(|&(lo, hi)| (lo..hi).contains(&emu.pc())) =>
            {
                Outcome::NoEffect
            }
            // Budget exhausted outside the scope, or when the baseline
            // finished.
            (None, _) => Outcome::Failed,
        }
    }
}
