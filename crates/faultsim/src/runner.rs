//! The multi-fault trial loop: one booted emulator, one snapshot taken
//! at the first scoped fetch, predecoded dispatch everywhere else — the
//! `PerturbRunner` pattern generalized to N fetch-stage injections per
//! trial.

use gd_backend::FirmwareImage;
use gd_emu::{
    Config, Cpu, Emu, Fault, Fork, Injection, LoadOverride, PredecodedImage, Snapshot, StepOutcome,
    StopReason, ZERO_FILL,
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

/// A trial in progress: the state of the one step loop every runner
/// shares, carried across a fork.
#[derive(Debug, Clone, Copy)]
struct Trial {
    /// Steps left in the budget.
    left: u64,
    /// Steps slid through zero-filled flash ([`Emu::slide`]) rather than
    /// dispatched.
    slid: u64,
    /// The compromise watch fired.
    compromised: bool,
    /// Clean stop, if the trial stopped.
    stop: Option<StopReason>,
    /// Fault, if the trial faulted.
    fault: Option<Fault>,
}

impl Trial {
    fn new(budget: u64) -> Trial {
        Trial { left: budget, slid: 0, compromised: false, stop: None, fault: None }
    }

    /// Whether the trial stopped, faulted or exhausted its budget.
    fn ended(&self) -> bool {
        self.left == 0 || self.stop.is_some() || self.fault.is_some()
    }
}

/// Whether `pc` lies in one of the half-open `scope` ranges.
fn in_scope(scope: &[(u32, u32)], pc: u32) -> bool {
    scope.iter().any(|&(lo, hi)| pc >= lo && pc < hi)
}

/// What both runners share: the image booted to the first scoped fetch,
/// its snapshot there, and the working and pristine micro-op tables.
#[derive(Debug)]
struct Booted {
    emu: Emu,
    snap: Snapshot,
    image: PredecodedImage,
    pristine: PredecodedImage,
    budget: u64,
}

impl Booted {
    /// Boots `image` and snapshots at the first fetch within `scope`
    /// (half-open address ranges). Falls back to the reset state if no
    /// scoped fetch happens within the budget — execution before that
    /// point cannot observe a fault at a scoped site, so it is identical
    /// for every trial and paid once.
    fn new(image: &FirmwareImage, cfg: Config, scope: &[(u32, u32)]) -> Booted {
        let mut emu = image.boot_emu();
        emu.cfg = cfg;
        let pristine = PredecodedImage::from_bytes(image.text_base, &image.text, cfg);
        let mut clean = true;
        while !in_scope(scope, emu.pc()) && emu.steps() < MF_TRIAL_STEPS {
            match emu.step_predecoded(&pristine) {
                Ok(StepOutcome::Step(_)) => {}
                _ => {
                    clean = false;
                    break;
                }
            }
        }
        if !clean {
            emu = image.boot_emu();
            emu.cfg = cfg;
        }
        let budget = MF_TRIAL_STEPS - emu.steps();
        let snap = emu.snapshot();
        Booted { emu, snap, image: pristine.clone(), pristine, budget }
    }

    /// Restores the snapshot and arms `faults`, invalidating their sites
    /// in the working table (injections apply on the live path only).
    fn arm(&mut self, faults: &[FaultInstance]) {
        self.emu.restore(&self.snap);
        for f in faults {
            self.emu.inject(f.injection());
            self.image.invalidate_range(f.site, 2);
        }
    }

    /// Heals the slots [`Booted::arm`] invalidated.
    fn heal(&mut self, faults: &[FaultInstance]) {
        for f in faults {
            self.image.heal_range(&self.pristine, f.site, 2);
        }
    }

    /// The one trial step loop. Steps until the trial ends (returning
    /// `true`), or until the next fetch is at a PC `pause` selects
    /// (returning `false`, that fetch not yet made). `pause` is given the
    /// PC and the trial's steps so far.
    ///
    /// Runs of zero-filled flash outside the text table are slid through
    /// ([`Emu::slide`]), so `pause` sees every fetch PC inside the text
    /// table, in order, but not every one outside it. Every site the
    /// walks pause at lies inside.
    fn run(
        &mut self,
        trial: &mut Trial,
        watch: Option<(u32, u32)>,
        mut pause: impl FnMut(u32, u64) -> bool,
    ) -> bool {
        while !trial.ended() {
            if pause(self.emu.pc(), self.budget - trial.left) {
                return false;
            }
            self.step(trial, watch);
        }
        true
    }

    /// Dispatches one step of `trial`, then slides on through any
    /// zero-filled flash it entered.
    fn step(&mut self, trial: &mut Trial, watch: Option<(u32, u32)>) {
        trial.left -= 1;
        match self.emu.step_predecoded(&self.image) {
            Ok(StepOutcome::Step(s)) => {
                if watch.is_some() && s.store == watch {
                    trial.compromised = true;
                }
                if s.instr == ZERO_FILL {
                    let n = self.emu.slide(self.slide_limit(trial.left));
                    trial.left -= n;
                    trial.slid += n;
                }
            }
            Ok(StepOutcome::Stop { reason, .. }) => trial.stop = Some(reason),
            Err(f) => trial.fault = Some(f),
        }
    }

    /// How far the emulator may slide from its PC: up to `left` steps,
    /// but never into or across the text table, whose fetches `pause`
    /// must see.
    fn slide_limit(&self, left: u64) -> u64 {
        let pc = u64::from(self.emu.pc());
        let lo = u64::from(self.pristine.base());
        let hi = lo + 2 * self.pristine.len() as u64;
        if pc >= hi {
            left
        } else if pc < lo {
            left.min((lo - pc) / 2)
        } else {
            0
        }
    }

    /// Halfword index of `addr` in the text table, if it lies there.
    fn slot_index(&self, addr: u32) -> Option<usize> {
        let i = (addr.wrapping_sub(self.pristine.base()) >> 1) as usize;
        (i < self.pristine.len()).then_some(i)
    }
}

/// Step ledger of the second-order pair trials that ran: each ran from a
/// fork off its first fault's trial, sharing that trial's steps up to
/// the fork, and ran its own steps either dispatched or slid through
/// zero-filled flash. A pair settled at its fork after its faulted step
/// ([`PairsBy::merge`], [`PairsBy::second`]) adds that one dispatched
/// step (and any zero fill it slid into) and shares nothing; other
/// settled pairs add nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSteps {
    /// Steps a pair trial shares with its first fault's trial, up to the
    /// fork at the first fetch of the second fault's site.
    pub shared: u64,
    /// Steps dispatched for pair trials alone.
    pub executed: u64,
    /// Steps slid ([`Emu::slide`]) for pair trials alone.
    pub slid: u64,
}

impl PairSteps {
    /// The steps `trial` ran beyond `from` (its state at a fork, or a
    /// fresh trial), none of them shared.
    fn run_since(from: &Trial, trial: &Trial) -> PairSteps {
        let slid = trial.slid - from.slid;
        PairSteps { shared: 0, executed: from.left - trial.left - slid, slid }
    }

    /// Adds `other` into this ledger.
    pub fn merge(&mut self, other: &PairSteps) {
        self.shared += other.shared;
        self.executed += other.executed;
        self.slid += other.slid;
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
    /// steps stored nothing, left no injection armed and reached equal
    /// states.
    pub second: u64,
}

impl PairsBy {
    /// Every pair counted.
    pub fn total(&self) -> u64 {
        self.trial + self.class + self.rejoin + self.merge + self.first + self.second
    }

    /// Adds `other` into these counts.
    pub fn merge(&mut self, other: &PairsBy) {
        self.trial += other.trial;
        self.class += other.class;
        self.rejoin += other.rejoin;
        self.merge += other.merge;
        self.first += other.first;
        self.second += other.second;
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
    compromised: bool,
    load_override: Option<LoadOverride>,
    cpu: Cpu,
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
    /// Ended at that step: stop, fault, compromise flag and final `r0`.
    Ended((Option<StopReason>, Option<Fault>, bool, u32)),
    /// Never fires: the unfaulted trial never fetches its site.
    Never,
}

/// Replays `firmware::boot` under sets of armed fault injections and
/// classifies each trial.
///
/// Construction boots the image once and advances to the first fetch
/// inside any scoped range, snapshots, and replays one unfaulted trial,
/// recording when each halfword is first fetched and a [`Fork`] at every
/// step it dispatches. Each trial restores the snapshot (dropping the
/// previous trial's injections), arms the set, invalidates the injected
/// sites in a working copy of the micro-op table (injections apply on
/// the live fallback path only), runs with a compromise watch on the
/// uart store, and heals the table from a pristine copy.
/// [`MultiFaultRunner::run_pairs`] runs many two-fault trials that share
/// a first fault off that fault's trial.
#[derive(Debug)]
pub struct MultiFaultRunner {
    booted: Booted,
    /// The `(uart_out, COMPROMISE_VALUE)` store.
    watch: (u32, u32),
    /// Per text halfword: the unfaulted trial's step at its first fetch
    /// (`u32::MAX`: never fetched).
    first_fetch: Vec<u32>,
    /// The unfaulted trial's state before each step it dispatched, by
    /// step (`None`: slid past). Empty if that trial ever stores the
    /// compromise value, so nothing rejoins it.
    baseline: Vec<Option<Fork>>,
    /// The unfaulted trial's outcome.
    unfaulted: Outcome,
    /// Fork-walk scratch: per text halfword, whether a partner's site
    /// there still awaits its first fetch.
    pending: Vec<bool>,
    /// Fork-walk scratch: partner indices ordered by site.
    by_site: Vec<usize>,
    /// Fork-walk scratch: partners that take the first fault's outcome.
    merged: Vec<usize>,
    /// Fork-walk scratch: the store-free states pair trials at the
    /// current fork ran from, with their partner indices.
    seconds: Vec<(StoreFree, usize)>,
    /// `(partner, representative)` indices of the partners the last
    /// [`MultiFaultRunner::run_pairs`] settled by [`PairsBy::second`].
    settled: Vec<(usize, usize)>,
}

impl MultiFaultRunner {
    /// Boots `image` and snapshots at the first fetch within `scope`
    /// (half-open address ranges). Falls back to the reset state if no
    /// scoped fetch happens within the budget.
    pub fn new(image: &FirmwareImage, cfg: Config, scope: &[(u32, u32)]) -> MultiFaultRunner {
        let mut booted = Booted::new(image, cfg, scope);
        let watch = (image.symbol("uart_out"), COMPROMISE_VALUE);
        let mut first_fetch = vec![u32::MAX; booted.pristine.len()];
        let mut baseline = Vec::new();
        booted.emu.restore(&booted.snap);
        let mut trial = Trial::new(booted.budget);
        while !trial.ended() {
            let step = booted.budget - trial.left;
            if let Some(i) = booted.slot_index(booted.emu.pc()) {
                first_fetch[i] = first_fetch[i].min(step as u32);
            }
            baseline.resize_with(step as usize, || None);
            baseline.push(Some(booted.emu.fork()));
            booted.step(&mut trial, Some(watch));
        }
        let unfaulted = classify(&booted.emu, &trial);
        if trial.compromised {
            baseline.clear();
        }
        booted.emu.restore(&booted.snap);
        let pending = vec![false; first_fetch.len()];
        MultiFaultRunner {
            booted,
            watch,
            first_fetch,
            baseline,
            unfaulted,
            pending,
            by_site: Vec::new(),
            merged: Vec::new(),
            seconds: Vec::new(),
            settled: Vec::new(),
        }
    }

    /// Steps already replayed into the snapshot (per-trial budget is
    /// [`MF_TRIAL_STEPS`] minus this).
    pub fn replayed(&self) -> u64 {
        MF_TRIAL_STEPS - self.booted.budget
    }

    /// Steps from the snapshot to the unfaulted trial's first fetch of
    /// `site`, or `None` if it never fetches it. Of two faults, the one
    /// whose site comes first fires first in their pair trial.
    pub fn first_fetch(&self, site: u32) -> Option<u32> {
        let i = self.booted.slot_index(site)?;
        Some(self.first_fetch[i]).filter(|&s| s != u32::MAX)
    }

    /// `(partner, representative)` indices into the partners of the last
    /// [`MultiFaultRunner::run_pairs`] call: each partner it settled by
    /// [`PairsBy::second`], with the partner whose pair trial it shares.
    pub fn settled_by_second(&self) -> &[(usize, usize)] {
        &self.settled
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
        self.booted.arm(faults);
        let start = Trial::new(self.booted.budget);
        let mut trial = start;
        self.booted.run(&mut trial, Some(self.watch), |_, _| false);
        self.booted.heal(faults);
        (classify(&self.booted.emu, &trial), PairSteps::run_since(&start, &trial))
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
    /// on: no step is taken twice.
    pub fn run_classed(
        &mut self,
        fault: FaultInstance,
        classes: &mut Vec<Fired>,
    ) -> (Outcome, usize) {
        let watch = Some(self.watch);
        let fires = self.first_fetch(fault.site).map(u64::from);
        self.booted.arm(&[fault]);
        let mut trial = Trial::new(self.booted.budget);
        if let Some(at) = fires {
            if !self.booted.run(&mut trial, watch, |_, step| step == at) {
                self.booted.step(&mut trial, watch);
            }
        }
        let (booted, r0) = (&self.booted, self.booted.emu.cpu.reg(Reg::R0));
        let ended = (trial.stop, trial.fault, trial.compromised, r0);
        let same = |class: &Fired| match (&class.0, fires) {
            (FiredState::Never, None) => true,
            (FiredState::Runs(fork, compromised), Some(_)) => {
                !trial.ended()
                    && *compromised == trial.compromised
                    && booted.emu.same_state(&booted.snap, fork)
            }
            (FiredState::Ended(end), Some(_)) => trial.ended() && *end == ended,
            _ => false,
        };
        let class = classes.iter().position(same).unwrap_or_else(|| {
            classes.push(Fired(match fires {
                None => FiredState::Never,
                Some(_) if trial.ended() => FiredState::Ended(ended),
                Some(_) => FiredState::Runs(self.booted.emu.fork(), trial.compromised),
            }));
            classes.len() - 1
        });
        self.booted.run(&mut trial, watch, |_, _| false);
        self.booted.heal(&[fault]);
        (classify(&self.booted.emu, &trial), class)
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
    /// walk resumes from the second fork, so no step runs twice. Four
    /// state equalities settle partners without a trial of their own:
    ///
    /// - *merge*: a partner whose faulted step, its injection spent,
    ///   reaches the second fork's state ([`Emu::same_state`], equal
    ///   compromise flag) has `first`'s trial from there on, and takes
    ///   `first`'s own outcome.
    /// - *second*: a partner whose faulted step stored nothing (the write
    ///   epoch did not move) and left no injection armed has the first
    ///   fork's memory, so its state is its PC, budget left, CPU, load
    ///   override and compromise flag. If an earlier partner at the same
    ///   fork ran from an equal such state, the two trials are the same
    ///   from there (they invalidate the same slots too), and the partner
    ///   takes that outcome.
    /// - *rejoin*: once `first` has fired, its trial may reach the
    ///   unfaulted trial's state at the same step, uncompromised. From
    ///   there it *is* the unfaulted trial, and so is each partner's own
    ///   trial if the unfaulted trial first fetches the partner's site at
    ///   or after that step: those partners take their `o1`. Partners it
    ///   fetched earlier are still walked. With none left the walk
    ///   stops, and `first`'s own outcome is the unfaulted one.
    /// - *first*: partners whose site `first`'s trial never fetches take
    ///   `first`'s outcome: their trial *is* `first`'s.
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
        by_site.sort_unstable_by_key(|&i| partners[i].0.site);
        let mut merged = std::mem::take(&mut self.merged);
        merged.clear();
        let mut seconds = std::mem::take(&mut self.seconds);
        self.settled.clear();
        let mut left = 0; // partner sites still awaiting their first fetch
        for (p, _) in partners {
            assert_ne!(p.site, first.site, "a pair needs two sites");
            let i = self.booted.slot_index(p.site).expect("partner site in text");
            left += usize::from(!std::mem::replace(&mut self.pending[i], true));
        }
        outcomes.clear();
        outcomes.resize(partners.len(), Outcome::NoEffect);

        let (budget, watch) = (self.booted.budget, Some(self.watch));
        let base = self.booted.pristine.base();
        let slot = |addr: u32| (addr.wrapping_sub(base) >> 1) as usize;
        let mut steps = PairSteps::default();
        let mut by = PairsBy::default();
        // From the step after `first` fires, its trial may rejoin the
        // unfaulted one.
        let mut rejoin_from = self.first_fetch(first.site).map_or(u64::MAX, |at| u64::from(at) + 1);
        let mut alone = None; // `first`'s own outcome, once known
        self.booted.arm(&[first]);
        let mut trial = Trial::new(budget);
        while left > 0 || (alone.is_none() && !merged.is_empty()) {
            let (pending, baseline) = (&self.pending, &self.baseline);
            let rejoin = |pc: u32, step: u64| {
                let unfaulted = baseline.get(step as usize).and_then(Option::as_ref);
                step >= rejoin_from && unfaulted.is_some_and(|b| b.pc() == pc)
            };
            let pause =
                |pc: u32, step: u64| pending.get(slot(pc)) == Some(&true) || rejoin(pc, step);
            if self.booted.run(&mut trial, watch, pause) {
                break;
            }
            let (pc, step) = (self.booted.emu.pc(), budget - trial.left);
            if rejoin(pc, step) {
                let unfaulted = self.baseline[step as usize].as_ref().expect("paused at a step");
                if trial.compromised {
                    rejoin_from = u64::MAX;
                } else if self.booted.emu.same_state(&self.booted.snap, unfaulted) {
                    rejoin_from = u64::MAX;
                    alone = Some(self.unfaulted);
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
                self.booted.step(&mut trial, watch); // paused only to check a rejoin
                continue;
            }
            left -= 1;
            let fork = self.booted.emu.fork();
            let at = trial;
            self.booted.step(&mut trial, watch);
            let next = if trial.ended() {
                alone = alone.or(Some(classify(&self.booted.emu, &trial)));
                None
            } else {
                Some(self.booted.emu.fork())
            };
            let lo = by_site.partition_point(|&i| partners[i].0.site < pc);
            seconds.clear();
            for &i in by_site[lo..].iter().take_while(|&&i| partners[i].0.site == pc) {
                self.booted.emu.resume(&self.booted.snap, &fork);
                let second = partners[i].0;
                self.booted.emu.inject(second.injection());
                self.booted.image.invalidate_range(second.site, 2);
                let epoch = self.booted.emu.mem.write_epoch();
                let mut pair = at;
                self.booted.step(&mut pair, watch);
                let noop = !pair.ended()
                    && pair.compromised == trial.compromised
                    && next
                        .as_ref()
                        .is_some_and(|n| self.booted.emu.same_state(&self.booted.snap, n));
                let emu = &self.booted.emu;
                let state = (!noop
                    && !pair.ended()
                    && emu.mem.write_epoch() == epoch
                    && !emu.injections().iter().any(Injection::is_armed))
                .then(|| StoreFree {
                    pc: emu.pc(),
                    left: pair.left,
                    compromised: pair.compromised,
                    load_override: emu.load_override,
                    cpu: emu.cpu.clone(),
                });
                let seen = state.as_ref().and_then(|s| seconds.iter().find(|(t, _)| t == s));
                if noop {
                    merged.push(i);
                    by.merge += 1;
                } else if let Some(&(_, q)) = seen {
                    outcomes[i] = outcomes[q];
                    self.settled.push((i, q));
                    by.second += 1;
                } else {
                    self.booted.run(&mut pair, watch, |_, _| false);
                    outcomes[i] = classify(&self.booted.emu, &pair);
                    by.trial += 1;
                    steps.shared += budget - at.left;
                    seconds.extend(state.map(|s| (s, i)));
                }
                // Adjacent sites share a slot: healing the second fault's
                // range must not revalidate the first's.
                self.booted.heal(&[second]);
                self.booted.image.invalidate_range(first.site, 2);
                steps.merge(&PairSteps::run_since(&at, &pair));
            }
            match &next {
                Some(next) => self.booted.emu.resume(&self.booted.snap, next),
                None => break,
            }
        }
        self.booted.heal(&[first]);
        if trial.ended() && alone.is_none() {
            alone = Some(classify(&self.booted.emu, &trial));
        }

        for &i in &merged {
            outcomes[i] = alone.expect("the walk ran until first's outcome was known");
        }
        for site in by_site.chunk_by(|&a, &b| partners[a].0.site == partners[b].0.site) {
            if std::mem::replace(&mut self.pending[slot(partners[site[0]].0.site)], false) {
                for &i in site {
                    outcomes[i] = alone.expect("the walk ran to its end");
                }
                by.first += site.len() as u64;
            }
        }
        self.by_site = by_site;
        self.merged = merged;
        self.seconds = seconds;
        (steps, by)
    }
}

/// Classifies a finished trial of `firmware::boot` (see
/// [`MultiFaultRunner::run`]); `emu` holds its final state.
fn classify(emu: &Emu, trial: &Trial) -> Outcome {
    if trial.compromised {
        return Outcome::Success;
    }
    match (trial.stop, trial.fault) {
        (Some(StopReason::Bkpt(_)), _) if emu.cpu.reg(Reg::R0) == BOOT_MARKER => Outcome::NoEffect,
        (Some(_), _) => Outcome::Failed,
        (None, Some(f)) => Outcome::from_fault(&f),
        (None, None) => Outcome::Failed, // step budget exhausted
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
/// Construction boots the image, advances to the first scoped fetch,
/// snapshots, and replays one unfaulted trial to record the baseline.
/// Each faulted trial then classifies as:
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
    booted: Booted,
    scope: Vec<(u32, u32)>,
    watch: Option<(u32, u32)>,
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
        let mut booted = Booted::new(image, cfg, scope);
        // One unfaulted replay pins the baseline the trials diverge from.
        let mut trial = Trial::new(booted.budget);
        booted.run(&mut trial, None, |_, _| false);
        let baseline = match (trial.stop, trial.fault) {
            (Some(reason), _) => Baseline::Stop(reason, booted.emu.cpu.reg(Reg::R0)),
            (None, Some(f)) => panic!("unfaulted baseline faults: {f:?}"),
            (None, None) => Baseline::Spin,
        };
        booted.emu.restore(&booted.snap);
        DivergenceRunner { booted, scope: scope.to_vec(), watch, baseline }
    }

    /// Steps already replayed into the snapshot.
    pub fn replayed(&self) -> u64 {
        MF_TRIAL_STEPS - self.booted.budget
    }

    /// Runs one trial with `faults` armed and classifies it against the
    /// baseline.
    pub fn run(&mut self, faults: &[FaultInstance]) -> Outcome {
        self.booted.arm(faults);
        let mut trial = Trial::new(self.booted.budget);
        self.booted.run(&mut trial, self.watch, |_, _| false);
        self.booted.heal(faults);
        if trial.compromised {
            return Outcome::Success;
        }
        match (trial.stop, trial.fault, self.baseline) {
            (Some(reason), _, Baseline::Stop(base, r0))
                if reason == base && self.booted.emu.cpu.reg(Reg::R0) == r0 =>
            {
                Outcome::NoEffect
            }
            (Some(_), _, _) => Outcome::Failed,
            (None, Some(f), _) => Outcome::from_fault(&f),
            (None, None, Baseline::Spin) if in_scope(&self.scope, self.booted.emu.pc()) => {
                Outcome::NoEffect
            }
            // Budget exhausted outside the scope, or when the baseline
            // finished.
            (None, None, _) => Outcome::Failed,
        }
    }
}
