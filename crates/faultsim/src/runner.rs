//! The multi-fault trial runners: a [`Replay`] of the image booted to
//! the first scoped fetch, with N fetch-stage injections armed per
//! trial, and the classifiers that read the boot firmware's markers or
//! an ingested image's divergence from its unfaulted run.

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
    watched: bool,
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
/// a first fault off that fault's trial.
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
        if trial.watched {
            baseline.clear();
        }
        let pending = vec![false; first_fetch.len()];
        MultiFaultRunner {
            replay,
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
        let start = self.replay.arm(faults.iter().map(FaultInstance::injection));
        let mut trial = start;
        self.replay.run(&mut trial, |_, _| false);
        (Self::classify(self.replay.emu(), &trial), PairSteps::run_since(&start, &trial))
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
        let fires = self.first_fetch(fault.site).map(u64::from);
        let mut trial = self.replay.arm([fault.injection()]);
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
        self.replay.run(&mut trial, |_, _| false);
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
        let mut alone = None; // `first`'s own outcome, once known
        let mut trial = self.replay.arm([first.injection()]);
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
                self.replay.step(&mut trial); // paused only to check a rejoin
                continue;
            }
            left -= 1;
            let fork = self.replay.emu().fork();
            let at = trial;
            self.replay.step(&mut trial);
            let next = if trial.ended() {
                alone = alone.or(Some(Self::classify(self.replay.emu(), &trial)));
                None
            } else {
                Some(self.replay.emu().fork())
            };
            let lo = by_site.partition_point(|&i| partners[i].0.site < pc);
            seconds.clear();
            for &i in by_site[lo..].iter().take_while(|&&i| partners[i].0.site == pc) {
                self.replay.resume(&fork);
                self.replay.inject(partners[i].0.injection());
                let epoch = self.replay.emu().mem.write_epoch();
                let mut pair = at;
                self.replay.step(&mut pair);
                let noop = !pair.ended()
                    && pair.watched == trial.watched
                    && next.as_ref().is_some_and(|n| self.replay.same_state(n));
                let emu = self.replay.emu();
                let state = (!noop
                    && !pair.ended()
                    && emu.mem.write_epoch() == epoch
                    && !emu.injections().iter().any(Injection::is_armed))
                .then(|| StoreFree {
                    pc: emu.pc(),
                    left: pair.left,
                    watched: pair.watched,
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
                    self.replay.run(&mut pair, |_, _| false);
                    outcomes[i] = Self::classify(self.replay.emu(), &pair);
                    by.trial += 1;
                    steps.shared += budget - at.left;
                    seconds.extend(state.map(|s| (s, i)));
                }
                steps.merge(&PairSteps::run_since(&at, &pair));
            }
            match &next {
                Some(next) => self.replay.resume(next),
                None => break,
            }
        }
        if trial.ended() && alone.is_none() {
            alone = Some(Self::classify(self.replay.emu(), &trial));
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
        replay.run(&mut trial, |_, _| false);
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
        self.replay.run(&mut trial, |_, _| false);
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
