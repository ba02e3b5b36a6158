//! The multi-fault trial loop: one booted emulator, one snapshot taken
//! at the first scoped fetch, predecoded dispatch everywhere else — the
//! `PerturbRunner` pattern generalized to N fetch-stage injections per
//! trial.

use gd_backend::FirmwareImage;
use gd_emu::{Config, Emu, Fault, PredecodedImage, Snapshot, StepOutcome, StopReason, ZERO_FILL};
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

    /// The one trial step loop. Steps until the trial stops, faults or
    /// exhausts its budget (returning `true`), or until the next fetch
    /// is at a PC `pause` selects (returning `false`, that fetch not yet
    /// made). `pause` is given the PC and the trial's steps so far.
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
        while trial.left > 0 {
            if pause(self.emu.pc(), self.budget - trial.left) {
                return false;
            }
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
                Ok(StepOutcome::Stop { reason, .. }) => {
                    trial.stop = Some(reason);
                    return true;
                }
                Err(f) => {
                    trial.fault = Some(f);
                    return true;
                }
            }
        }
        true
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

/// Step ledger of second-order pair trials: every pair trial's steps
/// are either inherited from its first fault's trial or run for it, and
/// those run for it are either dispatched or slid through zero-filled
/// flash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSteps {
    /// Steps a pair trial shares with its first fault's trial, up to the
    /// fork at the first fetch of the second fault's site (the whole
    /// trial when that site is never fetched).
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

/// Replays `firmware::boot` under sets of armed fault injections and
/// classifies each trial.
///
/// Construction boots the image once and advances to the first fetch
/// inside any scoped range, snapshots, and replays one unfaulted trial
/// to record when each halfword is first fetched. Each trial restores
/// the snapshot (dropping the previous trial's injections), arms the
/// set, invalidates the injected sites in a working copy of the
/// micro-op table (injections apply on the live fallback path only),
/// runs with a compromise watch on the uart store, and heals the table
/// from a pristine copy. [`MultiFaultRunner::run_pairs`] runs many
/// two-fault trials that share a first fault off that fault's trial.
#[derive(Debug)]
pub struct MultiFaultRunner {
    booted: Booted,
    /// The `(uart_out, COMPROMISE_VALUE)` store.
    watch: (u32, u32),
    /// Per text halfword: the unfaulted trial's step at its first fetch
    /// (`u32::MAX`: never fetched).
    first_fetch: Vec<u32>,
    /// Fork-walk scratch: per text halfword, whether a partner's site
    /// there still awaits its first fetch.
    pending: Vec<bool>,
    /// Fork-walk scratch: partner indices ordered by site.
    by_site: Vec<usize>,
}

impl MultiFaultRunner {
    /// Boots `image` and snapshots at the first fetch within `scope`
    /// (half-open address ranges). Falls back to the reset state if no
    /// scoped fetch happens within the budget.
    pub fn new(image: &FirmwareImage, cfg: Config, scope: &[(u32, u32)]) -> MultiFaultRunner {
        let mut booted = Booted::new(image, cfg, scope);
        let mut first_fetch = vec![u32::MAX; booted.pristine.len()];
        let base = booted.pristine.base();
        booted.run(&mut Trial::new(booted.budget), None, |pc, step| {
            let i = (pc.wrapping_sub(base) >> 1) as usize;
            if let Some(first) = first_fetch.get_mut(i) {
                *first = (*first).min(step as u32);
            }
            false
        });
        booted.emu.restore(&booted.snap);
        let pending = vec![false; first_fetch.len()];
        let watch = (image.symbol("uart_out"), COMPROMISE_VALUE);
        MultiFaultRunner { booted, watch, first_fetch, pending, by_site: Vec::new() }
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
        (self.classify(&trial), PairSteps::run_since(&start, &trial))
    }

    /// Runs the pair trial `{first, p}` for every `p` in `partners`,
    /// writing outcomes to `outcomes` in `partners` order — each equal
    /// to `run(&[first, p])` — while simulating `first`'s trial once.
    ///
    /// Until the first fetch of `p`'s site, the pair trial *is* `first`'s
    /// trial: an injection acts only at a fetch of its site, and an
    /// invalidated slot only moves dispatch to the equivalent live path.
    /// So the walk runs `first`'s trial, forks at the first fetch of
    /// each partner site, runs each partner there from the fork to the
    /// end (carrying the compromise flag), and resumes `first`.
    /// Partners whose site is never fetched take `first`'s outcome.
    ///
    /// # Panics
    ///
    /// Panics if a partner's site lies outside the image's text, or
    /// shares `first`'s site.
    pub fn run_pairs(
        &mut self,
        first: FaultInstance,
        partners: &[FaultInstance],
        outcomes: &mut Vec<Outcome>,
    ) -> PairSteps {
        let mut by_site = std::mem::take(&mut self.by_site);
        by_site.clear();
        by_site.extend(0..partners.len());
        by_site.sort_unstable_by_key(|&i| partners[i].site);
        for p in partners {
            assert_ne!(p.site, first.site, "a pair needs two sites");
            let i = self.booted.slot_index(p.site).expect("partner site in text");
            self.pending[i] = true;
        }
        outcomes.clear();
        outcomes.resize(partners.len(), Outcome::NoEffect);

        let (budget, watch) = (self.booted.budget, Some(self.watch));
        let base = self.booted.pristine.base();
        let slot = |addr: u32| (addr.wrapping_sub(base) >> 1) as usize;
        let mut steps = PairSteps::default();
        self.booted.arm(&[first]);
        let mut trial = Trial::new(budget);
        loop {
            let pending = &self.pending;
            if self.booted.run(&mut trial, watch, |pc, _| pending.get(slot(pc)) == Some(&true)) {
                break;
            }
            let site = self.booted.emu.pc();
            self.pending[slot(site)] = false;
            let fork = self.booted.emu.fork();
            let lo = by_site.partition_point(|&i| partners[i].site < site);
            for (k, &i) in
                by_site[lo..].iter().take_while(|&&i| partners[i].site == site).enumerate()
            {
                if k > 0 {
                    self.booted.emu.resume(&self.booted.snap, &fork);
                }
                let second = partners[i];
                self.booted.emu.inject(second.injection());
                self.booted.image.invalidate_range(second.site, 2);
                let mut pair = trial;
                self.booted.run(&mut pair, watch, |_, _| false);
                // Adjacent sites share a slot: healing the second fault's
                // range must not revalidate the first's.
                self.booted.heal(&[second]);
                self.booted.image.invalidate_range(first.site, 2);
                outcomes[i] = self.classify(&pair);
                steps.shared += budget - trial.left;
                steps.merge(&PairSteps::run_since(&trial, &pair));
            }
            self.booted.emu.resume(&self.booted.snap, &fork);
        }
        self.booted.heal(&[first]);

        let alone = self.classify(&trial);
        for (p, outcome) in partners.iter().zip(outcomes.iter_mut()) {
            if self.pending[slot(p.site)] {
                *outcome = alone;
                steps.shared += budget - trial.left;
            }
        }
        for p in partners {
            self.pending[slot(p.site)] = false;
        }
        self.by_site = by_site;
        steps
    }

    fn classify(&self, trial: &Trial) -> Outcome {
        if trial.compromised {
            return Outcome::Success;
        }
        match (trial.stop, trial.fault) {
            (Some(StopReason::Bkpt(_)), _) if self.booted.emu.cpu.reg(Reg::R0) == BOOT_MARKER => {
                Outcome::NoEffect
            }
            (Some(_), _) => Outcome::Failed,
            (None, Some(f)) => Outcome::from_fault(&f),
            (None, None) => Outcome::Failed, // step budget exhausted
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
