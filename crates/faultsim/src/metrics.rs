//! `gd_faultsim_*` metric families: enumeration, pruning, and outcome
//! counters labelled by fault model.

use std::sync::Arc;

use gd_glitch_emu::{Outcome, Tally};
use gd_obs::Counter;

use crate::model::Registry;

/// Per-model label set used by the order-2 executor (the pair space is
/// not one registry model).
pub const PAIRS_LABEL: &str = "pairs";

fn model_counter(name: &str, help: &str, model: &str) -> Arc<Counter> {
    gd_obs::counter(name, help, &[("model", model)])
}

/// Candidate faults enumerated (raw combinatorial space) for `model`.
pub fn candidates(model: &str) -> Arc<Counter> {
    model_counter(
        "gd_faultsim_candidates_total",
        "candidate faults enumerated before pruning, by fault model",
        model,
    )
}

/// Candidates pruned before simulation for `model`.
pub fn pruned(model: &str) -> Arc<Counter> {
    model_counter(
        "gd_faultsim_pruned_total",
        "candidate faults pruned by architectural-effect canonicalization, by fault model",
        model,
    )
}

/// Trials actually simulated for `model`.
pub fn simulated(model: &str) -> Arc<Counter> {
    model_counter(
        "gd_faultsim_simulated_total",
        "fault trials simulated (one canonical representative per class), by fault model",
        model,
    )
}

/// Second-order pair-trial steps of `kind`: `"shared"` with the first
/// fault's trial, or for the pair alone `"executed"` (dispatched),
/// `"slid"` (through zero-filled flash in one step) or `"settled"` (whole
/// periods of a spin, skipped).
pub fn pair_steps(kind: &str) -> Arc<Counter> {
    gd_obs::counter(
        "gd_faultsim_pair_steps_total",
        "second-order pair-trial steps: shared, executed, slid or settled",
        &[("kind", kind)],
    )
}

/// Both-live second-order pairs decided `by` a pair trial (`"trial"`), or
/// settled by state equality: shared with their first fault's class
/// (`"class"`), rejoining the unfaulted trial (`"rejoin"`), taking the
/// first fault's own outcome (`"merge"`, `"first"`), taking another
/// partner's outcome at the same fork (`"second"`), or taking the outcome
/// an earlier walk stored for the same state (`"state"`) — see
/// [`PairsBy`](crate::PairsBy).
pub fn pairs(by: &str) -> Arc<Counter> {
    gd_obs::counter(
        "gd_faultsim_pairs_total",
        "both-live second-order pairs, by what decided their outcome",
        &[("by", by)],
    )
}

/// The `by` labels of [`pairs`].
const PAIRS_BY: [&str; 7] = ["trial", "class", "rejoin", "merge", "first", "second", "state"];

/// Weighted trial outcomes for `model` and `outcome`.
pub fn outcomes(model: &str, outcome: Outcome) -> Arc<Counter> {
    gd_obs::counter(
        "gd_faultsim_outcomes_total",
        "weighted fault-trial outcomes, by fault model and outcome class",
        &[("model", model), ("outcome", outcome.label())],
    )
}

/// Adds a weighted tally into the per-outcome counters of `model`.
pub fn record_tally(model: &str, tally: &Tally) {
    for o in Outcome::ALL {
        let n = tally.count(o);
        if n > 0 {
            outcomes(model, o).add(n);
        }
    }
}

/// Registers every `gd_faultsim_*` family at zero for the standard
/// registry (plus the order-2 pair space), so `/metrics` shows the
/// full inventory before any campaign runs.
pub fn register_metrics() {
    let registry = Registry::standard();
    for name in registry.names().into_iter().chain([PAIRS_LABEL]) {
        let _ = candidates(name);
        let _ = pruned(name);
        let _ = simulated(name);
        for o in Outcome::ALL {
            let _ = outcomes(name, o);
        }
    }
    let _ = pair_steps("shared");
    let _ = pair_steps("executed");
    let _ = pair_steps("slid");
    let _ = pair_steps("settled");
    for by in PAIRS_BY {
        let _ = pairs(by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_every_family_at_zero() {
        register_metrics();
        let text = gd_obs::global().render_prometheus();
        for family in [
            "# TYPE gd_faultsim_candidates_total counter",
            "# TYPE gd_faultsim_pruned_total counter",
            "# TYPE gd_faultsim_simulated_total counter",
            "# TYPE gd_faultsim_outcomes_total counter",
            "# TYPE gd_faultsim_pair_steps_total counter",
            "# TYPE gd_faultsim_pairs_total counter",
        ] {
            assert!(text.contains(family), "missing {family:?}");
        }
        assert!(text.contains(r#"gd_faultsim_candidates_total{model="xor1.t"}"#));
        assert!(text.contains(r#"gd_faultsim_outcomes_total{model="pairs",outcome="Success"}"#));
        assert!(text.contains(r#"gd_faultsim_pair_steps_total{kind="shared"}"#));
        assert!(text.contains(r#"gd_faultsim_pair_steps_total{kind="slid"}"#));
        for by in PAIRS_BY {
            assert!(text.contains(&format!(r#"gd_faultsim_pairs_total{{by="{by}"}}"#)));
        }
    }
}
