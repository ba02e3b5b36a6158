//! Exhaustive perturbation sweeps and outcome classification (paper §IV,
//! Figure 2).

use core::fmt;

use gd_emu::{Config, Emu, Fault, Replay, RunOutcome, StopReason};

use crate::harness::{TestCase, NORMAL_MARKER, NORMAL_REG, SUCCESS_MARKER, SUCCESS_REG};
use crate::masks::ChooseBits;

/// The direction bits are flipped, matching the paper's fault models:
/// glitches tend to be unidirectional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// 1 → 0 flips (`instr AND NOT mask`) — the common effect of voltage
    /// and clock glitches.
    And,
    /// 0 → 1 flips (`instr OR mask`).
    Or,
    /// Bidirectional flips (`instr XOR mask`).
    Xor,
}

impl Direction {
    /// Applies a k-bit selection mask to `hw` in this direction.
    pub fn apply(self, hw: u16, mask: u16) -> u16 {
        match self {
            Direction::And => hw & !mask,
            Direction::Or => hw | mask,
            Direction::Xor => hw ^ mask,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Direction::And => "AND",
            Direction::Or => "OR",
            Direction::Xor => "XOR",
        }
    }
}

/// Classification of one perturbed execution, mirroring Figure 2's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The instruction after the branch executed (the branch was "skipped").
    Success,
    /// Execution proceeded normally (the flip did not matter).
    NoEffect,
    /// A data access touched unmapped/protected/unaligned memory.
    BadRead,
    /// An instruction was fetched from unmapped memory (e.g. a wild branch).
    BadFetch,
    /// The perturbed pattern does not decode.
    InvalidInstruction,
    /// Anything else (stuck loop, sleep, interworking attempt, odd paths).
    Failed,
}

impl Outcome {
    /// All outcomes in reporting order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Success,
        Outcome::BadRead,
        Outcome::InvalidInstruction,
        Outcome::BadFetch,
        Outcome::Failed,
        Outcome::NoEffect,
    ];

    /// Stable index of this outcome in [`Outcome::ALL`] (reporting
    /// order). Constant-time; the tally hot loop indexes with it instead
    /// of scanning `ALL`.
    pub const fn index(self) -> usize {
        match self {
            Outcome::Success => 0,
            Outcome::BadRead => 1,
            Outcome::InvalidInstruction => 2,
            Outcome::BadFetch => 3,
            Outcome::Failed => 4,
            Outcome::NoEffect => 5,
        }
    }

    /// Maps a hard fault to its outcome class — the fault half of the
    /// paper's taxonomy, shared by the Figure 2 sweeps and the
    /// multi-fault campaigns (`gd-faultsim`) so the two engines cannot
    /// drift: *Bad Fetch* for fetch faults, *Bad Read* for other memory
    /// faults, *Invalid Instruction* for undefined patterns (whatever
    /// their payload), *Failed* for interworking attempts.
    pub fn from_fault(fault: &Fault) -> Outcome {
        match fault {
            Fault::Mem(m) => match m.access {
                gd_emu::Access::Fetch => Outcome::BadFetch,
                _ => Outcome::BadRead,
            },
            Fault::Undefined { .. } => Outcome::InvalidInstruction,
            Fault::InterworkArm { .. } => Outcome::Failed,
        }
    }

    /// The label used in Figure 2.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Success => "Success",
            Outcome::NoEffect => "No Effect",
            Outcome::BadRead => "Bad Read",
            Outcome::BadFetch => "Bad Fetch",
            Outcome::InvalidInstruction => "Invalid Instruction",
            Outcome::Failed => "Failed",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome counts for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    counts: [u64; 6],
}

impl Tally {
    /// Rebuilds a tally from raw per-outcome counts, ordered as
    /// [`Outcome::ALL`]. The inverse of [`Tally::counts`]; used by result
    /// stores that serialize tallies.
    pub fn from_counts(counts: [u64; 6]) -> Tally {
        Tally { counts }
    }

    /// Raw per-outcome counts, ordered as [`Outcome::ALL`].
    pub fn counts(&self) -> [u64; 6] {
        self.counts
    }

    /// Records one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.counts[outcome.index()] += 1;
    }

    /// Records one outcome `n` times — the weighted form used by pruned
    /// campaigns, where one simulated representative stands for a whole
    /// equivalence class of faults.
    pub fn record_n(&mut self, outcome: Outcome, n: u64) {
        self.counts[outcome.index()] += n;
    }

    /// Count for one outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.counts[outcome.index()]
    }

    /// Total executions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Success rate in percent (0 when empty).
    pub fn success_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.count(Outcome::Success) as f64 / self.total() as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Step budget per perturbed execution: generous for snippets of a dozen
/// instructions, small enough to cut stuck loops off quickly.
const TRIAL_STEPS: u64 = 256;

/// Maps how a trial ended (a clean stop, a fault, or `None` when its
/// budget ran out) to its Figure 2 outcome class, reading the marker
/// registers for clean stops. Shared by the interpreter reference path
/// and the predecoded fast path so the classification cannot drift.
fn classify_trial(end: Option<Result<StopReason, Fault>>, emu: &Emu) -> Outcome {
    match end {
        Some(Ok(StopReason::Bkpt(_))) => {
            let success = emu.cpu.reg(SUCCESS_REG) == SUCCESS_MARKER;
            let normal = emu.cpu.reg(NORMAL_REG) == NORMAL_MARKER;
            if success {
                Outcome::Success
            } else if normal {
                Outcome::NoEffect
            } else {
                Outcome::Failed
            }
        }
        Some(Ok(_)) | None => Outcome::Failed,
        Some(Err(fault)) => Outcome::from_fault(&fault),
    }
}

/// Runs the snippet with `hw` written over the targeted instruction and
/// classifies the result.
///
/// This is the interpreter reference: a fresh emulator per trial, live
/// decode on every step. The sweep engines run [`PerturbRunner`] instead
/// and the differential tests pin the two paths to each other.
pub fn run_perturbed(case: &TestCase, hw: u16, cfg: Config) -> Outcome {
    let mut emu = case.instantiate(hw, cfg);
    let end = match emu.run(TRIAL_STEPS) {
        RunOutcome::Stop { reason, .. } => Some(Ok(reason)),
        RunOutcome::Fault { fault, .. } => Some(Err(fault)),
        RunOutcome::StepLimit { .. } => None,
    };
    classify_trial(end, &emu)
}

/// The sweep hot path: a [`Replay`] of the test case that pokes each
/// perturbed halfword over the target.
///
/// The snapshot is taken at the first fetch the perturbation can
/// influence: the target itself, or the halfword before it, since a
/// 32-bit encoding starting there consumes the target as its second
/// half. Execution before then must not read the target halfword as
/// data. The table is [`TestCase::predecode`]'s, so only the slots whose
/// meaning the perturbation can change decode live, and a trial that
/// runs off the snippet slides through the zero fill after it.
#[derive(Debug)]
pub struct PerturbRunner {
    replay: Replay,
    target_addr: u32,
}

impl PerturbRunner {
    /// Boots `case` once and prepares the snapshot and micro-op table.
    pub fn new(case: &TestCase, cfg: Config) -> PerturbRunner {
        let target = case.target_addr;
        let replay = Replay::new(
            || case.instantiate(case.target_halfword(), cfg),
            case.predecode(cfg),
            TRIAL_STEPS,
            None,
            |pc| pc == target || pc == target.wrapping_sub(2),
        );
        PerturbRunner { replay, target_addr: target }
    }

    /// Runs one perturbed trial and classifies it. Equivalent to
    /// [`run_perturbed`] on the same inputs, per the differential tests.
    pub fn run(&mut self, hw: u16) -> Outcome {
        let mut trial = self.replay.poke(self.target_addr, hw);
        self.replay.finish(&mut trial);
        classify_trial(trial.end, self.replay.emu())
    }
}

/// Perturbed halfwords per worker chunk. A chunk of this many trials
/// (`BENCH_fig2.json`, stage `trial/predecoded`) amortizes its runner
/// setup and dispatch, while a panel's largest distinct set (2^16
/// halfwords, XOR) splits into 256 work units.
const HALFWORD_CHUNK: usize = 256;

/// Tallies the trials of every mask of at most `max_k` bits that
/// `direction` applies to `hw`, per flipped-bit count: `per_k[k]` holds
/// the C(16, k) masks of exactly `k` bits, `k = 0..=max_k`.
///
/// Within one (case, direction, [`Config`]) a trial's outcome is a
/// function of the perturbed halfword alone: each trial starts from the
/// same state with only that halfword poked over the target. So each
/// *distinct* perturbed halfword runs once, found without a pass over
/// the masks. The bits `direction` can change in `hw` are its ones
/// (AND), its zeros (OR) or all sixteen (XOR). Each subset `s` of them
/// gives one distinct halfword `hw ^ s`. The masks that reach it hold
/// `s` and any `j` of the `z` bits the direction cannot change, so its
/// outcome counts `C(z, j)` times in `per_k[|s| + j]`.
///
/// The trials fan out over [`gd_exec`] workers: each worker chunk calls
/// `new_trial` once and runs its halfwords through the trial it returns,
/// which must depend on nothing but the halfword it is given.
pub(crate) fn perturbed_tallies<T>(
    hw: u16,
    direction: Direction,
    max_k: u32,
    new_trial: impl Fn() -> T + Sync,
) -> Vec<Tally>
where
    T: FnMut(u16) -> Outcome,
{
    let changes = match direction {
        Direction::And => hw,
        Direction::Or => !hw,
        Direction::Xor => u16::MAX,
    };
    // Every subset of `changes` of at most `max_k` bits, in increasing order.
    let mut distinct = Vec::with_capacity(1 << changes.count_ones());
    let mut s = 0u16;
    loop {
        if s.count_ones() <= max_k {
            distinct.push(hw ^ s);
        }
        if s == changes {
            break;
        }
        s = s.wrapping_sub(changes) & changes;
    }
    let z = 16 - changes.count_ones() as u64;
    let ways: Vec<u64> =
        (0..=z).scan(1, |c, j| Some(std::mem::replace(c, *c * (z - j) / (j + 1)))).collect();
    let mut per_k = vec![Tally::default(); max_k as usize + 1];
    let outcomes = run_halfwords(&distinct, new_trial);
    for (&perturbed, outcome) in distinct.iter().zip(outcomes) {
        let flipped = (perturbed ^ hw).count_ones() as usize;
        for (tally, &n) in per_k.iter_mut().skip(flipped).zip(&ways) {
            tally.record_n(outcome, n);
        }
    }
    per_k
}

/// Runs `trial` once per halfword of `halfwords`, fanned out over
/// [`gd_exec`] workers, returning the outcomes in `halfwords` order: each
/// worker chunk calls `new_trial` once and runs its halfwords through
/// the trial it returns.
fn run_halfwords<T>(halfwords: &[u16], new_trial: impl Fn() -> T + Sync) -> Vec<Outcome>
where
    T: FnMut(u16) -> Outcome,
{
    let partials = gd_exec::par_map_chunks(halfwords, HALFWORD_CHUNK, |chunk| {
        let mut trial = new_trial();
        chunk.items.iter().map(|&perturbed| trial(perturbed)).collect::<Vec<_>>()
    });
    partials.into_iter().flatten().collect()
}

/// A trial of `case` per perturbed halfword, through one
/// [`PerturbRunner`].
fn case_trial(case: &TestCase, cfg: Config) -> impl FnMut(u16) -> Outcome {
    let mut runner = PerturbRunner::new(case, cfg);
    move |hw| runner.run(hw)
}

/// Sweeps every C(16, k) mask in `direction` over the targeted
/// instruction, running each distinct perturbed halfword once
/// (`perturbed_tallies`) and fanning those trials out across
/// [`gd_exec`] workers.
///
/// Each worker chunk replays a snapshot through one [`PerturbRunner`]
/// (predecoded dispatch, no per-trial boot), so trials are independent,
/// and the tally is identical to the serial interpreter sweep bit for
/// bit at any worker count (see `parallel_sweep_matches_serial` below).
pub fn sweep_k(case: &TestCase, direction: Direction, k: u32, cfg: Config) -> Tally {
    let per_k = perturbed_tallies(case.target_halfword(), direction, k, || case_trial(case, cfg));
    per_k[k as usize]
}

/// The serial reference implementation of [`sweep_k`] — a fresh
/// interpreter-path emulator per trial via [`run_perturbed`], no
/// predecoding, no snapshots. Kept as the differential oracle that pins
/// the parallel predecoded output to it byte for byte.
pub fn sweep_k_serial(case: &TestCase, direction: Direction, k: u32, cfg: Config) -> Tally {
    let hw = case.target_halfword();
    let mut tally = Tally::default();
    for mask in ChooseBits::new(16, k) {
        let perturbed = direction.apply(hw, mask as u16);
        tally.record(run_perturbed(case, perturbed, cfg));
    }
    tally
}

/// One row of a Figure 2 sweep: results per flipped-bit count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResult {
    /// The test case name (e.g. `"beq"`).
    pub name: String,
    /// `per_k[k]` holds the tally for exactly `k` flipped bits, `k = 0..=16`.
    pub per_k: Vec<Tally>,
}

impl SweepResult {
    /// Tally aggregated over every k ≥ 1 (perturbed executions only).
    pub fn aggregate(&self) -> Tally {
        let mut total = Tally::default();
        for t in self.per_k.iter().skip(1) {
            total.merge(t);
        }
        total
    }

    /// Success rate in percent over all perturbed executions.
    pub fn success_rate(&self) -> f64 {
        self.aggregate().success_rate()
    }
}

/// Full sweep over `k = 0..=16` for one case, running each distinct
/// perturbed halfword of the whole 2^16 mask space once
/// (`perturbed_tallies`).
pub fn sweep_case(case: &TestCase, direction: Direction, cfg: Config) -> SweepResult {
    let per_k = perturbed_tallies(case.target_halfword(), direction, 16, || case_trial(case, cfg));
    SweepResult { name: case.name.clone(), per_k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::branch_case;
    use gd_thumb::Cond;

    #[test]
    fn unmodified_is_no_effect() {
        let case = branch_case(Cond::Eq);
        let t = sweep_k(&case, Direction::And, 0, Config::default());
        assert_eq!(t.total(), 1);
        assert_eq!(t.count(Outcome::NoEffect), 1);
    }

    #[test]
    fn clearing_all_bits_succeeds_by_default() {
        let case = branch_case(Cond::Eq);
        // k = 16 under AND → 0x0000 → lsls r0, r0, #0 → skip.
        let t = sweep_k(&case, Direction::And, 16, Config::default());
        assert_eq!(t.count(Outcome::Success), 1);
    }

    #[test]
    fn clearing_all_bits_is_invalid_when_hardened() {
        let case = branch_case(Cond::Eq);
        let cfg = Config { zero_is_invalid: true, ..Config::default() };
        let t = sweep_k(&case, Direction::And, 16, cfg);
        assert_eq!(t.count(Outcome::InvalidInstruction), 1);
    }

    #[test]
    fn or_toward_all_ones_consumes_next_halfword() {
        let case = branch_case(Cond::Eq);
        // k = 16 under OR → 0xFFFF → 32-bit prefix + movs → invalid.
        let t = sweep_k(&case, Direction::Or, 16, Config::default());
        assert_eq!(t.count(Outcome::InvalidInstruction), 1);
    }

    #[test]
    fn single_bit_and_sweep_matches_manual_classification() {
        let case = branch_case(Cond::Eq);
        let t = sweep_k(&case, Direction::And, 1, Config::default());
        assert_eq!(t.total(), 16);
        // Flipping a bit that is already zero leaves the branch intact.
        let hw = case.target_halfword();
        let zero_bits = u64::from(16 - hw.count_ones());
        assert!(t.count(Outcome::NoEffect) >= zero_bits);
    }

    /// The tentpole guarantee: the fan-out over the mask space returns
    /// exactly what the serial loop returns, for every k and direction.
    #[test]
    fn parallel_sweep_matches_serial() {
        let case = branch_case(Cond::Ne);
        for direction in [Direction::And, Direction::Or, Direction::Xor] {
            for k in [0u32, 1, 2, 7, 8, 15, 16] {
                let par = sweep_k(&case, direction, k, Config::default());
                let ser = sweep_k_serial(&case, direction, k, Config::default());
                assert_eq!(par, ser, "{direction:?} k={k}");
            }
        }
    }

    /// `Outcome::index` is the tally array layout and the serialization
    /// order of every result store — pin it to `Outcome::ALL`.
    #[test]
    fn outcome_index_matches_all_order() {
        for (i, o) in Outcome::ALL.iter().enumerate() {
            assert_eq!(o.index(), i, "{o:?}");
        }
    }

    #[test]
    fn tally_percentages() {
        let mut t = Tally::default();
        t.record(Outcome::Success);
        t.record(Outcome::Failed);
        t.record(Outcome::Failed);
        t.record(Outcome::NoEffect);
        assert_eq!(t.total(), 4);
        assert!((t.success_rate() - 25.0).abs() < 1e-9);
        let mut u = Tally::default();
        u.record(Outcome::Success);
        t.merge(&u);
        assert_eq!(t.count(Outcome::Success), 2);
        assert_eq!(t.total(), 5);
    }

    /// The paper's headline §IV result, as properties of the sweep shape:
    /// AND (1→0) flips skip branches far more often than OR (0→1) flips —
    /// over 60% at high flip counts — while OR success decays toward zero
    /// as patterns leave the defined encoding space.
    #[test]
    fn and_beats_or_on_beq() {
        let case = branch_case(Cond::Eq);
        let and = sweep_case(&case, Direction::And, Config::default());
        let or = sweep_case(&case, Direction::Or, Config::default());
        assert!(
            and.success_rate() > 1.5 * or.success_rate(),
            "AND {:.1}% should dwarf OR {:.1}%",
            and.success_rate(),
            or.success_rate()
        );
        assert!(
            and.per_k[11].success_rate() > 60.0,
            "AND at k=11 reaches the paper's >60% band, got {:.1}%",
            and.per_k[11].success_rate()
        );
        assert!(
            or.per_k[11].success_rate() < 30.0,
            "OR at k=11 stays under the paper's 30% band, got {:.1}%",
            or.per_k[11].success_rate()
        );
        // Under AND the curve is monotone toward the all-zeros NOP; under
        // OR, invalid instructions take over at high k.
        assert_eq!(and.per_k[16].success_rate(), 100.0);
        assert_eq!(or.per_k[16].success_rate(), 0.0);
    }
}
