//! The fork walk against its oracles: every pair outcome it produces must
//! equal a from-snapshot trial with both faults armed, and every
//! second-order bucket must tally exactly as the reference executor.

use gd_emu::Persistence;
use gd_exec::check::cases;
use gd_faultsim::{boot_campaign, order2_bucket, FaultInstance, O2Executor, O2_BUCKETS, O2_MODELS};
use gd_glitch_emu::Outcome;

/// Representatives the second-order campaign simulates (both-live
/// members of its pair space).
fn live_reps() -> Vec<FaultInstance> {
    live_reps_of(&O2_MODELS)
}

fn live_reps_of(models: &[usize]) -> Vec<FaultInstance> {
    let campaign = boot_campaign();
    models
        .iter()
        .flat_map(|&m| campaign.per_model[m].classes.iter().filter(|c| c.outcome.is_none()))
        .map(|c| c.rep())
        .collect()
}

/// For a deterministic sample of first faults — the first few that
/// compromise the boot on their own, so forks inherit a set compromise
/// flag, plus random ones — every partner's walked outcome equals
/// `run(&[first, partner])`.
#[test]
fn walked_pairs_match_from_snapshot_trials() {
    let reps = live_reps();
    let mut runner = boot_campaign().runner();
    let mut outcomes = Vec::new();
    let compromising: Vec<_> =
        reps.iter().copied().filter(|&r| runner.run(&[r]) == Outcome::Success).take(2).collect();
    assert!(!compromising.is_empty(), "some single fault compromises the boot");
    let mut check = |first: FaultInstance| {
        let partners: Vec<_> = reps.iter().copied().filter(|p| p.site != first.site).collect();
        let steps = runner.run_pairs(first, &partners, &mut outcomes);
        assert!(steps.shared > 0, "{steps:?}");
        for (p, &walked) in partners.iter().zip(&outcomes) {
            assert_eq!(walked, runner.run(&[first, *p]), "pair {first:?} + {p:?}");
        }
    };
    for &first in &compromising {
        check(first);
    }
    cases(4, "fork walk ≡ pair trial", |rng| check(reps[rng.usize(0, reps.len())]));
}

/// Adjacent sites share a micro-op slot (a site's range covers its
/// prefix predecessor): healing a partner's slots must keep the first
/// fault's site invalidated for the rest of the walk. Permanent first
/// faults stay armed after the fork, so half the samples start from
/// one; partners at both neighbouring sites plus a spread of others
/// (served later, or never fetched and so given the first fault's own
/// outcome) observe the walk's continuation.
#[test]
fn adjacent_site_pairs_match_from_snapshot_trials() {
    let campaign = boot_campaign();
    let models: Vec<usize> = (0..campaign.per_model.len())
        .filter(|&m| ["xor1.t", "xor1.p", "skip.t", "skip.p"].contains(&campaign.per_model[m].name))
        .collect();
    let reps = live_reps_of(&models);
    let permanent: Vec<_> =
        reps.iter().copied().filter(|r| r.persistence == Persistence::Permanent).collect();
    let spread: Vec<_> = reps.iter().copied().step_by(61).collect();
    let mut runner = campaign.runner();
    let mut outcomes = Vec::new();
    let mut checked = 0;
    cases(24, "adjacent pair walk ≡ pair trial", |rng| {
        let first = if rng.bool() {
            permanent[rng.usize(0, permanent.len())]
        } else {
            reps[rng.usize(0, reps.len())]
        };
        let adjacent = |p: &FaultInstance| p.site == first.site + 2 || p.site + 2 == first.site;
        let mut partners: Vec<_> = reps.iter().copied().filter(adjacent).collect();
        if partners.is_empty() {
            return;
        }
        partners.extend(spread.iter().copied().filter(|p| p.site != first.site));
        let steps = runner.run_pairs(first, &partners, &mut outcomes);
        let mut want_steps = 0;
        for (p, &walked) in partners.iter().zip(&outcomes) {
            let (want, n) = runner.run_counted(&[first, *p]);
            assert_eq!(walked, want, "{first:?} + {p:?}");
            assert_eq!(n.shared, 0);
            want_steps += n.executed + n.slid;
        }
        assert_eq!(steps.shared + steps.executed + steps.slid, want_steps, "{first:?}");
        checked += 1;
    });
    assert!(checked > 0, "the pair space has adjacent sites");
}

/// A partner whose site the first fault's trial never fetches takes the
/// first fault's outcome without a step of its own.
#[test]
fn never_fetched_partner_takes_the_first_faults_outcome() {
    let reps = live_reps();
    let mut runner = boot_campaign().runner();
    let mut outcomes = Vec::new();
    let unfetched: Vec<_> =
        reps.iter().copied().filter(|r| runner.first_fetch(r.site).is_none()).collect();
    assert!(!unfetched.is_empty(), "some scoped site is off the unfaulted path");
    let mut found = false;
    for &first in reps.iter().step_by(7) {
        let Some(&second) = unfetched.iter().find(|r| r.site != first.site) else { continue };
        let steps = runner.run_pairs(first, &[second], &mut outcomes);
        assert_eq!(outcomes[0], runner.run(&[first, second]), "{first:?} + {second:?}");
        if steps.executed == 0 {
            assert_eq!(outcomes[0], runner.run(&[first]));
            found = true;
            break;
        }
    }
    assert!(found, "some first fault never reaches an unfetched site");
}

/// Every bucket of the second-order campaign over a strided sample of
/// representatives (both models, every scoped routine): the walk and
/// the reference agree on tallies and ledgers, and the walk's pair
/// trials have exactly the reference's steps, part of them shared, and
/// some of them slid through the zero fill after the text.
#[test]
fn every_bucket_walk_equals_reference() {
    const STRIDE: usize = 5;
    for bucket in 0..O2_BUCKETS {
        let (tally, stats, walk) = order2_bucket(bucket, STRIDE, O2Executor::Fork);
        let (want, want_stats, reference) = order2_bucket(bucket, STRIDE, O2Executor::Reference);
        assert_eq!((tally, stats), (want, want_stats), "bucket {bucket}");
        assert!(stats.simulated > 0, "bucket {bucket} simulates pairs");
        assert_eq!(reference.shared, 0);
        assert_eq!(
            walk.shared + walk.executed + walk.slid,
            reference.executed + reference.slid,
            "bucket {bucket}"
        );
        assert!(walk.executed < reference.executed, "bucket {bucket} shares prefixes");
        assert!(reference.slid > 0, "bucket {bucket} slides");
    }
}
