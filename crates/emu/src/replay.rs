//! The trial kernel of every exhaustive fault sweep: boot once, snapshot
//! at the first fetch a fault can reach, then per trial restore, perturb
//! and replay on predecoded dispatch.

use crate::exec::{Emu, Fault, Fork, Injection, Snapshot, StepOutcome, StopReason, ZERO_FILL};
use crate::predecode::PredecodedImage;

/// A trial in progress: the state of the [`Replay`] step loop, carried
/// across a [`Fork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Steps left in the budget.
    pub left: u64,
    /// Steps slid through zero-filled flash ([`Emu::slide`]) rather than
    /// dispatched.
    pub slid: u64,
    /// Steps settled as whole periods of a spin ([`Replay::run_settling`]):
    /// neither dispatched nor slid.
    pub settled: u64,
    /// The store watch fired.
    pub watched: bool,
    /// The clean stop or fault the trial ended with; `None` while it runs
    /// and when its budget ran out.
    pub end: Option<Result<StopReason, Fault>>,
}

impl Trial {
    /// A trial with `budget` steps left that has not run yet.
    pub fn new(budget: u64) -> Trial {
        Trial { left: budget, slid: 0, settled: 0, watched: false, end: None }
    }

    /// Whether the trial stopped, faulted or exhausted its budget.
    #[inline]
    pub fn ended(&self) -> bool {
        self.left == 0 || self.end.is_some()
    }
}

/// Steps a [`Replay::run_settling`] run takes before its first Brent mark.
/// A run that ends sooner takes no fork, and an honest trial of the
/// sweeps here ends within a few hundred steps; a spin is still caught
/// within a few periods of its start once it has run that long.
const SETTLE_FROM: u64 = 64;

/// One booted emulator replayed for every trial of a fault sweep.
///
/// Construction boots and runs to the first fetch a `start` predicate
/// selects, where it snapshots: execution before that fetch cannot see
/// the perturbation, so it is paid once. The per-trial budget shrinks by
/// the steps replayed, so step-limit outcomes match a run from reset. If
/// the program stops, faults or spends its budget first, the snapshot is
/// the reset state.
///
/// Each trial restores the snapshot, arms its perturbation — a loader
/// poke ([`Replay::poke`]) or fetch-stage injections ([`Replay::arm`]) —
/// and runs on predecoded dispatch ([`Emu::step_predecoded`]). Zero fill
/// outside the table is slid through ([`Emu::slide`]); a slide never
/// enters the table, so a pause predicate sees every fetch inside it.
#[derive(Debug)]
pub struct Replay {
    emu: Emu,
    snap: Snapshot,
    /// The table as built.
    table: PredecodedImage,
    /// `table` with the sites of armed injections invalidated, since
    /// injections apply on the live path only: what trials dispatch from.
    dispatch: PredecodedImage,
    /// Sites invalidated in `dispatch`, healed on the next arm or resume.
    sites: Vec<u32>,
    budget: u64,
    replayed: u64,
    /// The `(address, value)` store that sets [`Trial::watched`].
    watch: Option<(u32, u32)>,
}

impl Replay {
    /// Boots with `boot` and snapshots at the first fetch `start`
    /// selects, running on `table`, which must decode the booted memory
    /// under the emulator's configuration; `budget` counts steps from
    /// reset. `start` must select PCs inside the table, since slides do
    /// not stop outside it. Stores before the snapshot do not fire the
    /// `watch`.
    pub fn new(
        boot: impl Fn() -> Emu,
        table: PredecodedImage,
        budget: u64,
        watch: Option<(u32, u32)>,
        start: impl Fn(u32) -> bool,
    ) -> Replay {
        let mut replay = Replay {
            emu: boot(),
            // Replaced below, once the run reaches the snapshot point.
            snap: Emu::new().snapshot(),
            dispatch: table.clone(),
            table,
            sites: Vec::new(),
            budget,
            replayed: 0,
            watch,
        };
        let mut trial = Trial::new(budget);
        if replay.run(&mut trial, |r, _| start(r.emu.pc())) {
            replay.emu = boot();
        } else {
            replay.budget = trial.left;
            replay.replayed = budget - trial.left;
        }
        replay.snap = replay.emu.snapshot();
        replay
    }

    /// The emulator, as the last trial left it.
    pub fn emu(&self) -> &Emu {
        &self.emu
    }

    /// The micro-op table, as built.
    pub fn table(&self) -> &PredecodedImage {
        &self.table
    }

    /// The per-trial step budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Steps replayed into the snapshot.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Restores the snapshot and loads halfword `hw` at `addr`, which the
    /// table must decode live ([`PredecodedImage::invalidate`]); returns
    /// the trial to run.
    #[inline]
    pub fn poke(&mut self, addr: u32, hw: u16) -> Trial {
        self.emu.restore(&self.snap);
        self.emu.mem.load(addr, &hw.to_le_bytes()).expect("poked address mapped");
        Trial::new(self.budget)
    }

    /// Restores the snapshot and arms `injections`; returns the trial to
    /// run.
    pub fn arm(&mut self, injections: impl IntoIterator<Item = Injection>) -> Trial {
        self.emu.restore(&self.snap);
        self.heal();
        for injection in injections {
            self.inject(injection);
        }
        Trial::new(self.budget)
    }

    /// Arms one more injection in the running trial.
    pub fn inject(&mut self, injection: Injection) {
        self.emu.inject(injection);
        self.dispatch.invalidate_range(injection.addr, 2);
        self.sites.push(injection.addr);
    }

    /// Returns to `fork`, taken in a trial of this replay. Only the sites
    /// of injections still armed there decode live: a spent one fires no
    /// more, so its site dispatches from the table again.
    pub fn resume(&mut self, fork: &Fork) {
        self.emu.resume(&self.snap, fork);
        self.heal();
        for i in 0..self.emu.injections().len() {
            let injection = self.emu.injections()[i];
            if injection.is_armed() {
                self.dispatch.invalidate_range(injection.addr, 2);
                self.sites.push(injection.addr);
            }
        }
    }

    /// Whether the emulator is in exactly `fork`'s state
    /// ([`Emu::same_state`]).
    pub fn same_state(&self, fork: &Fork) -> bool {
        self.emu.same_state(&self.snap, fork)
    }

    /// Whether the emulator is back in `fork`'s state, however many steps
    /// later ([`Emu::recurs`]).
    pub fn recurs(&self, fork: &Fork) -> bool {
        self.emu.recurs(&self.snap, fork)
    }

    /// A hash of the emulator's state that [`Replay::recurs`] checks
    /// ([`Emu::state_hash`]).
    pub fn state_hash(&self) -> u64 {
        self.emu.state_hash(&self.snap)
    }

    /// Steps `trial` until it ends (returning `true`), or until `pause`,
    /// asked before every step with the trial's steps so far, selects the
    /// next fetch (returning `false`, that fetch not yet made).
    #[inline]
    pub fn run(&mut self, trial: &mut Trial, mut pause: impl FnMut(&Replay, u64) -> bool) -> bool {
        loop {
            if trial.ended() {
                return true;
            }
            if pause(self, self.budget - trial.left) {
                return false;
            }
            self.step(trial);
        }
    }

    /// [`Replay::run`] with no pause: steps `trial` until it ends.
    pub fn finish(&mut self, trial: &mut Trial) {
        self.drive(trial, u64::MAX);
    }

    /// [`Replay::finish`], settling a run that can only spin.
    ///
    /// Brent's cycle detection looks for the run coming back to an earlier
    /// state ([`Emu::recurs`]: the same PC, CPU, load override and memory
    /// contents, no injection armed), with marks from `SETTLE_FROM`
    /// steps in. The next step depends on that state alone, so from there
    /// the run repeats the steps between the two until its budget ends:
    /// it stops, faults and stores nothing it has not already. The trial
    /// skips as many whole periods as leave it a step to run, counting
    /// them in [`Trial::settled`] and the emulator's step count, and runs
    /// the rest. It ends as `finish` would: same end, watch flag and state.
    pub fn run_settling(&mut self, trial: &mut Trial) {
        self.drive(trial, SETTLE_FROM);
    }

    /// The step loop of [`Replay::finish`] and [`Replay::run_settling`],
    /// with the first Brent mark `first_mark` steps in (`u64::MAX`: none).
    /// Never inlined: it holds one copy of the instruction body for both.
    #[inline(never)]
    fn drive(&mut self, trial: &mut Trial, first_mark: u64) {
        let mut t = *trial;
        let mut mark: Option<(Fork, u64)> = None; // a state and its `left`
        let (mut since, mut power) = (0u64, first_mark);
        while !t.ended() {
            if since == power {
                mark = Some((self.emu.fork(), t.left));
                (since, power) = (0, power * 2);
            } else if let Some((fork, left)) = &mark {
                if self.recurs(fork) {
                    let period = left - t.left;
                    let skip = (t.left - 1) / period * period;
                    t.left -= skip;
                    t.settled += skip;
                    self.emu.skip_steps(skip);
                    // Settled: run the rest with no more marks.
                    (mark, power) = (None, u64::MAX);
                }
            }
            since += 1;
            self.advance(&mut t);
        }
        *trial = t;
    }

    /// Dispatches one step of `trial`, which must not have ended, then
    /// slides on through any zero fill it entered. Never inlined: the
    /// pausing [`Replay::run`] loops, one per pause predicate, share it.
    #[inline(never)]
    pub fn step(&mut self, trial: &mut Trial) {
        self.advance(trial);
    }

    /// The body of [`Replay::step`], inlined into each step loop.
    #[inline(always)]
    fn advance(&mut self, trial: &mut Trial) {
        trial.left -= 1;
        match self.emu.step_predecoded(&self.dispatch) {
            Ok(StepOutcome::Step(s)) => {
                if let Some(store) = s.store {
                    trial.watched |= self.watch == Some(store);
                }
                if s.instr == ZERO_FILL {
                    let n = self.emu.slide(self.slide_limit(trial.left));
                    trial.left -= n;
                    trial.slid += n;
                }
            }
            Ok(StepOutcome::Stop { reason, .. }) => trial.end = Some(Ok(reason)),
            Err(f) => trial.end = Some(Err(f)),
        }
    }

    fn heal(&mut self) {
        for site in self.sites.drain(..) {
            self.dispatch.heal_range(&self.table, site, 2);
        }
    }

    /// How far the emulator may slide: up to `left` steps, but never into
    /// or across the table.
    fn slide_limit(&self, left: u64) -> u64 {
        let pc = u64::from(self.emu.pc());
        let lo = u64::from(self.table.base());
        let hi = lo + 2 * self.table.len() as u64;
        if pc >= hi {
            left
        } else if pc < lo {
            left.min((lo - pc) / 2)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use gd_thumb::Reg;

    use super::*;
    use crate::exec::{InjectKind, Persistence};
    use crate::predecode::Slot;
    use crate::Perms;

    const BASE: u32 = 0x0800_0000;

    /// A replay of four `adds r0, #1` and a `bkpt`, snapshotted at reset.
    fn replay() -> Replay {
        let src = "adds r0, #1\nadds r0, #1\nadds r0, #1\nadds r0, #1\nbkpt #0\n";
        let prog = gd_thumb::asm::assemble(src, BASE).expect("assembles");
        let boot = || {
            let mut emu = Emu::new();
            emu.mem.map_with_data("flash", BASE, prog.code.clone(), Perms::RX).expect("maps");
            emu.set_pc(BASE);
            emu
        };
        let table = PredecodedImage::from_bytes(BASE, &prog.code, Default::default());
        Replay::new(boot, table, 100, None, |_| true)
    }

    /// A fork taken after the first fault at `BASE + 2` has fired once
    /// (and the second, at `BASE + 6`, has not): on resume only the sites
    /// of injections still armed decode live.
    #[test]
    fn resume_dispatches_spent_sites_from_the_table() {
        for persistence in [Persistence::Transient, Persistence::Permanent] {
            let mut replay = replay();
            let skip = |addr| Injection::new(addr, InjectKind::Skip, persistence);
            let mut trial = replay.arm([skip(BASE + 2), skip(BASE + 6)]);
            assert!(!replay.run(&mut trial, |_, step| step == 2), "paused after the fault");
            let fork = replay.emu().fork();
            replay.resume(&fork);
            let live = |replay: &Replay, addr| replay.dispatch.slot(addr) == Some(Slot::Live);
            assert_eq!(live(&replay, BASE + 2), persistence == Persistence::Permanent);
            assert!(live(&replay, BASE + 6), "an armed site decodes live");
            replay.finish(&mut trial);
            assert_eq!(trial.end, Some(Ok(StopReason::Bkpt(0))));
            assert_eq!(replay.emu().cpu.reg(Reg::R0), 2, "both skips fired once");
        }
    }
}
