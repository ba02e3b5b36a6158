//! The fork walk against its oracles: every pair outcome it produces must
//! equal a from-snapshot trial with both faults armed, whether it ran the
//! pair or settled it by state equality, and every second-order bucket
//! must tally exactly as the reference executor.

mod common;

use std::collections::BTreeMap;

use common::{fault, image, text_scope};
use gd_backend::layout::FLASH_BASE;
use gd_emu::{Config, InjectKind, Persistence};
use gd_exec::check::cases;
use gd_faultsim::{
    boot_campaign, order1_shard, order2_bucket, FaultClass, FaultInstance, MultiFaultRunner,
    O2Executor, PairsBy, MF_TRIAL_STEPS, O2_BUCKETS, O2_MODELS,
};
use gd_glitch_emu::{Outcome, Tally};

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

/// `partners` with their first-order outcomes, as `run_pairs` takes them.
fn with_o1(
    runner: &mut MultiFaultRunner,
    partners: &[FaultInstance],
) -> Vec<(FaultInstance, Outcome)> {
    partners.iter().map(|&p| (p, runner.run(&[p]))).collect()
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
        let others: Vec<_> = reps.iter().copied().filter(|p| p.site != first.site).collect();
        let partners = with_o1(&mut runner, &others);
        let (steps, by) = runner.run_pairs(first, &partners, &mut outcomes);
        assert!(steps.shared > 0, "{steps:?}");
        assert_eq!(by.total(), partners.len() as u64, "{by:?}");
        for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
            assert_eq!(walked, runner.run(&[first, p]), "pair {first:?} + {p:?}");
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
/// outcome) observe the walk's continuation. The pair trials that ran
/// share a prefix with the first fault's trial, so they dispatch and
/// slide no more steps than the same pairs run from the snapshot.
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
        let mut others: Vec<_> = reps.iter().copied().filter(adjacent).collect();
        if others.is_empty() {
            return;
        }
        others.extend(spread.iter().copied().filter(|p| p.site != first.site));
        let partners = with_o1(&mut runner, &others);
        let (steps, by) = runner.run_pairs(first, &partners, &mut outcomes);
        assert_eq!(by.total(), partners.len() as u64, "{by:?}");
        let mut want_steps = 0;
        for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
            let (want, n) = runner.run_counted(&[first, p]);
            assert_eq!(walked, want, "{first:?} + {p:?}");
            assert_eq!(n.shared, 0);
            want_steps += n.executed + n.slid;
        }
        assert!(steps.shared + steps.executed + steps.slid <= want_steps, "{first:?}");
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
        let partners = with_o1(&mut runner, &[second]);
        let (steps, by) = runner.run_pairs(first, &partners, &mut outcomes);
        assert_eq!(outcomes[0], runner.run(&[first, second]), "{first:?} + {second:?}");
        if by.first == 1 {
            assert_eq!(steps.executed, 0);
            assert_eq!(outcomes[0], runner.run(&[first]));
            found = true;
            break;
        }
    }
    assert!(found, "some first fault never reaches an unfetched site");
}

/// The first-fault classes of the pair space, formed site by site as the
/// campaign forms them, keeping those with at least two members, each
/// with its `(first fetch, site)` order key.
fn shared_classes(runner: &mut MultiFaultRunner) -> Vec<((u32, u32), Vec<FaultInstance>)> {
    let mut by_site: BTreeMap<u32, Vec<FaultInstance>> = BTreeMap::new();
    for r in live_reps() {
        by_site.entry(r.site).or_default().push(r);
    }
    let mut classes = Vec::new();
    for (site, faults) in by_site {
        let key = (runner.first_fetch(site).unwrap_or(u32::MAX), site);
        let (mut fired, mut groups) = (Vec::new(), Vec::<Vec<FaultInstance>>::new());
        for f in faults {
            let (_, class) = runner.run_classed(f, &mut fired);
            if class == groups.len() {
                groups.push(Vec::new());
            }
            groups[class].push(f);
        }
        classes.extend(groups.into_iter().filter(|g| g.len() >= 2).map(|g| (key, g)));
    }
    classes
}

/// Members of one first-fault class are interchangeable as the first
/// firing fault of a pair: for sampled classes and sampled partners
/// fetched later, every member's pair trial has the outcome the walk
/// computes once, off one member's trial.
#[test]
fn first_fault_class_members_share_their_pair_outcomes() {
    let reps = live_reps();
    let mut runner = boot_campaign().runner();
    let classes = shared_classes(&mut runner);
    assert!(classes.len() > 10, "the pair space has shared first-fault classes");
    let keyed: Vec<_> = reps
        .iter()
        .map(|&r| ((runner.first_fetch(r.site).unwrap_or(u32::MAX), r.site), r))
        .collect();
    let mut outcomes = Vec::new();
    cases(32, "class members share pair outcomes", |rng| {
        let (key, members) = &classes[rng.usize(0, classes.len())];
        let later: Vec<_> = keyed.iter().filter(|(k, _)| k > key).map(|&(_, r)| r).collect();
        if later.is_empty() {
            return;
        }
        let picked: Vec<_> = (0..6).map(|_| later[rng.usize(0, later.len())]).collect();
        let partners = with_o1(&mut runner, &picked);
        runner.run_pairs(members[0], &partners, &mut outcomes);
        for &m in members {
            for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
                assert_eq!(
                    runner.run(&[m, p]),
                    walked,
                    "{m:?} (class of {:?}) + {p:?}",
                    members[0]
                );
            }
        }
    });
}

/// A partial rejoin: skipping the branch to `path_a` runs `path_b`,
/// which does the same in as many steps, so the first fault's trial
/// rejoins the unfaulted one at `join`. A partner the unfaulted trial
/// fetches after `join` takes its own first-order outcome there; a
/// partner in `path_a`, which the unfaulted trial fetched *before*
/// `join` but this trial never did, does not — its pair is the first
/// fault's trial, No Effect, while on its own it fails the boot.
#[test]
fn a_rejoin_settles_only_partners_fetched_after_it() {
    let src = "movs r0, #0\nb path_a\n\
               path_b:\nmovs r0, #1\nb join\n\
               path_a:\nmovs r0, #1\nb join\n\
               join:\ncmp r0, #1\nbne bad\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n\
               bad:\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let first = fault(FLASH_BASE + 2, InjectKind::Skip);
    let in_path_a = fault(FLASH_BASE + 8, InjectKind::Skip);
    let after_join = fault(FLASH_BASE + 20, InjectKind::Skip); // adds r0, #7
    assert_eq!(runner.first_fetch(in_path_a.site), Some(2));
    assert_eq!(runner.first_fetch(after_join.site), Some(8));
    assert_eq!(runner.run(&[first]), Outcome::NoEffect);

    let partners = with_o1(&mut runner, &[in_path_a, after_join]);
    assert_eq!(partners[0].1, Outcome::Failed);
    assert_eq!(partners[1].1, Outcome::Failed);
    let mut outcomes = Vec::new();
    let (steps, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!(outcomes, [Outcome::NoEffect, Outcome::Failed]);
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[first, p]), "{p:?}");
    }
    assert_eq!(by, PairsBy { rejoin: 1, first: 1, ..PairsBy::default() });
    assert_eq!(steps.executed + steps.slid, 0, "no pair trial ran");
}

/// A no-op second fault: skipping `mov r8, r8` leaves the state its
/// execution would, so the pair runs on as the first fault's trial and
/// takes its outcome after one step. The first fault (`movs r1, #1` for
/// `movs r1, #0`) keeps its trial off the unfaulted one, so nothing
/// rejoins.
#[test]
fn a_no_op_second_fault_takes_the_first_faults_outcome() {
    let src = "movs r1, #0\nmovs r0, #0xb0\nmov r8, r8\n\
               lsls r0, r0, #8\nadds r0, #7\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let first = fault(FLASH_BASE, InjectKind::Corrupt { hw: 0x2101 });
    let no_op = fault(FLASH_BASE + 4, InjectKind::Skip);
    let clobber = fault(FLASH_BASE + 8, InjectKind::Skip); // adds r0, #7
    let partners = with_o1(&mut runner, &[no_op, clobber]);
    let mut outcomes = Vec::new();
    let (steps, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!(outcomes, [Outcome::NoEffect, Outcome::Failed]);
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[first, p]), "{p:?}");
    }
    assert_eq!(by, PairsBy { trial: 1, merge: 1, ..PairsBy::default() });
    assert_eq!(steps.executed, 1 + 2, "one step to merge, two to run the clobbered pair");
}

/// The compromise flag is part of a trial's state that memory does not
/// show: a store of the compromise value over the same value leaves
/// memory as it was. So equal states with different flags must not be
/// merged into one class, settled as a no-op second fault, or rejoin
/// the unfaulted trial. Out of scope, the image stores the compromise
/// value to `uart_out` first; the scoped code is two `nop`s and the
/// clean stop, and `str r1, [r0]` for a `nop` stores it again.
#[test]
fn a_compromise_flag_keeps_equal_states_apart() {
    let src = "movs r0, #0x20\nlsls r0, r0, #24\n\
               movs r1, #0xc0\nlsls r1, r1, #8\nadds r1, #0xde\nstr r1, [r0]\n\
               scope:\nnop\nnop\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n";
    let image = image(src);
    let (s1, s2) = (FLASH_BASE + 12, FLASH_BASE + 14);
    let scope = [(s1, FLASH_BASE + image.text.len() as u32)];
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &scope);
    let store = |site| fault(site, InjectKind::Corrupt { hw: 0x6001 }); // str r1, [r0]
    let skip = |site| fault(site, InjectKind::Skip);
    assert_eq!(runner.run(&[]), Outcome::NoEffect);

    let mut fired = Vec::new();
    assert_eq!(runner.run_classed(store(s1), &mut fired), (Outcome::Success, 0));
    assert_eq!(runner.run_classed(skip(s1), &mut fired), (Outcome::NoEffect, 1));

    let mut outcomes = Vec::new();
    // Not a no-op: the partner's store sets the flag the first fault's
    // own step (`movs r2, #1` for the first `nop`) does not.
    let first = fault(s1, InjectKind::Corrupt { hw: 0x2201 });
    let partners = with_o1(&mut runner, &[store(s2)]);
    let (_, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!((outcomes[0], by.trial), (Outcome::Success, 1));
    // No rejoin: the compromised trial equals the unfaulted one in every
    // other respect, but the partner's own trial is not compromised.
    let partners = with_o1(&mut runner, &[skip(s2)]);
    assert_eq!(partners[0].1, Outcome::NoEffect);
    let (_, by) = runner.run_pairs(store(s1), &partners, &mut outcomes);
    assert_eq!((outcomes[0], by.rejoin), (Outcome::Success, 0));
}

/// Partners settled by the store-free second-fault rule share their
/// representative's pair trial: for sampled first faults, every settled
/// partner `p` has `run(&[first, p]) == run(&[first, q])` for the
/// partner `q` whose trial it took, and the walk settles some.
#[test]
fn second_fault_classes_share_their_representatives_trial() {
    let reps = live_reps();
    let mut runner = boot_campaign().runner();
    let mut outcomes = Vec::new();
    let mut settled = 0;
    cases(6, "second-fault class ≡ representative", |rng| {
        let first = reps[rng.usize(0, reps.len())];
        let others: Vec<_> = reps.iter().copied().filter(|p| p.site != first.site).collect();
        let partners = with_o1(&mut runner, &others);
        let (_, by) = runner.run_pairs(first, &partners, &mut outcomes);
        let classed = runner.settled_by_second().to_vec();
        assert_eq!(classed.len() as u64, by.second, "{by:?}");
        for (p, q) in classed {
            let (p, q) = (partners[p].0, partners[q].0);
            assert_eq!(p.site, q.site, "a class lies at one fork");
            assert_eq!(
                runner.run(&[first, p]),
                runner.run(&[first, q]),
                "{first:?}: {p:?} ~ {q:?}"
            );
        }
        settled += by.second;
    });
    assert!(settled > 0, "some sampled walk settles a partner by its second fault");
}

/// Two store-free faulted steps that reach one state share a trial:
/// `movs r4, #2` and `lsls r4, r1, #0` (with `r1 = 2`) both leave
/// `r4 = 2` with N and Z clear, and store nothing. The first fault
/// (`movs r3, #1` for a `nop`) keeps its trial off the unfaulted one.
#[test]
fn equal_store_free_second_steps_share_one_trial() {
    let src = "movs r1, #2\nmovs r4, #1\nnop\nnop\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #6\nadds r0, r0, r4\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    assert_eq!(runner.run(&[]), Outcome::NoEffect);
    let first = fault(FLASH_BASE + 4, InjectKind::Corrupt { hw: 0x2301 }); // movs r3, #1
    let movs = fault(FLASH_BASE + 6, InjectKind::Corrupt { hw: 0x2402 }); // movs r4, #2
    let lsls = fault(FLASH_BASE + 6, InjectKind::Corrupt { hw: 0x000C }); // lsls r4, r1, #0
    let partners = with_o1(&mut runner, &[movs, lsls]);
    let mut outcomes = Vec::new();
    let (_, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { trial: 1, second: 1, ..PairsBy::default() });
    assert_eq!(outcomes, [Outcome::Failed, Outcome::Failed], "the marker is off by one");
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[first, p]), "{p:?}");
    }
}

/// A faulted step that stores is classed only with a partner that
/// reaches its memory too: `str r1, [r0]` and `str r1, [r0, #4]` leave
/// the same registers but different memory, which the code after them
/// reads, so each runs.
#[test]
fn a_storing_second_step_is_never_classed() {
    let src = "movs r0, #0x20\nlsls r0, r0, #24\nadds r0, #0x40\nmovs r1, #1\n\
               nop\nnop\n\
               ldr r2, [r0]\ncmp r2, #1\nbeq bad\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n\
               bad:\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let first = fault(FLASH_BASE + 8, InjectKind::Corrupt { hw: 0x2301 }); // movs r3, #1
    let hit = fault(FLASH_BASE + 10, InjectKind::Corrupt { hw: 0x6001 }); // str r1, [r0]
    let miss = fault(FLASH_BASE + 10, InjectKind::Corrupt { hw: 0x6041 }); // str r1, [r0, #4]
    let partners = with_o1(&mut runner, &[hit, miss]);
    let mut outcomes = Vec::new();
    let (_, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { trial: 2, ..PairsBy::default() });
    assert_eq!(outcomes, [Outcome::Failed, Outcome::NoEffect]);
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[first, p]), "{p:?}");
    }
}

/// Faulted steps that store the same value to the same word, `str r1,
/// [r0]` and `str r1, [r0, r2]` with `r2` zero, reach one state: the
/// second partner takes the first's pair trial.
#[test]
fn equal_storing_second_steps_share_one_trial() {
    let src = "movs r0, #0x20\nlsls r0, r0, #24\nadds r0, #0x40\nmovs r1, #1\nmovs r2, #0\n\
               nop\nnop\n\
               ldr r2, [r0]\ncmp r2, #1\nbeq bad\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n\
               bad:\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let first = fault(FLASH_BASE + 10, InjectKind::Corrupt { hw: 0x2301 }); // movs r3, #1
    let imm = fault(FLASH_BASE + 12, InjectKind::Corrupt { hw: 0x6001 }); // str r1, [r0]
    let reg = fault(FLASH_BASE + 12, InjectKind::Corrupt { hw: 0x5081 }); // str r1, [r0, r2]
    let partners = with_o1(&mut runner, &[imm, reg]);
    let mut outcomes = Vec::new();
    let (_, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { trial: 1, second: 1, ..PairsBy::default() });
    assert_eq!(runner.settled_by_second(), [(1, 0)]);
    assert_eq!(outcomes, [Outcome::Failed, Outcome::Failed], "the stored 1 takes `beq bad`");
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[first, p]), "{p:?}");
    }
}

/// Equal second-fault states with different compromise flags stay
/// apart. `uart_out` already holds the compromise value (stored out of
/// scope), so `str r1, [r0]` for `movs r2, #1` leaves memory and
/// registers as `nop` does, but compromises the boot. Only a store sets
/// the flag, so the write epoch and the flag in the signature each keep
/// the two apart.
#[test]
fn second_fault_states_with_different_compromise_flags_stay_apart() {
    let src = "movs r0, #0x20\nlsls r0, r0, #24\n\
               movs r1, #0xc0\nlsls r1, r1, #8\nadds r1, #0xde\nstr r1, [r0]\n\
               scope:\nnop\nmovs r2, #1\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n";
    let image = image(src);
    let (s1, s2) = (FLASH_BASE + 12, FLASH_BASE + 14);
    let scope = [(s1, FLASH_BASE + image.text.len() as u32)];
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &scope);
    assert_eq!(runner.run(&[]), Outcome::NoEffect);
    let first = fault(s1, InjectKind::Corrupt { hw: 0x2301 }); // movs r3, #1
    let store = fault(s2, InjectKind::Corrupt { hw: 0x6001 }); // str r1, [r0]
    let nop = fault(s2, InjectKind::Corrupt { hw: 0xBF00 });
    let partners = with_o1(&mut runner, &[store, nop]);
    let mut outcomes = Vec::new();
    let (_, by) = runner.run_pairs(first, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { trial: 2, ..PairsBy::default() });
    assert_eq!(outcomes, [Outcome::Success, Outcome::NoEffect]);
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[first, p]), "{p:?}");
    }
}

/// Walks on one runner share partner outcomes through its state memo.
/// First faults are taken in first-fetch order, each paired with every
/// representative at a site fetched later, as the campaign pairs them, so
/// a site's partners are the same in every walk. Every partner a walk
/// settles by state has the outcome of `run(&[first, p])`, and of
/// `run(&[rep, p])` for the earlier first fault `rep` whose walk stored
/// it; and the walks settle some.
#[test]
fn state_settled_pairs_match_from_snapshot_trials() {
    let mut runner = boot_campaign().runner();
    let order = |runner: &MultiFaultRunner, r: &FaultInstance| {
        (runner.first_fetch(r.site).unwrap_or(u32::MAX), r.site)
    };
    let mut reps = live_reps();
    reps.sort_by_key(|r| order(&runner, r));
    let partners = with_o1(&mut runner, &reps);
    let mut outcomes = Vec::new();
    let mut settled = 0;
    for first in reps.iter().copied().skip(reps.len() / 3).step_by(3).take(12) {
        let later = partners.partition_point(|(p, _)| order(&runner, p) <= order(&runner, &first));
        let (_, by) = runner.run_pairs(first, &partners[later..], &mut outcomes);
        let shared: Vec<_> = runner.settled_by_state().collect();
        assert_eq!(shared.len() as u64, by.state, "{by:?}");
        for (i, rep) in shared {
            let p = partners[later + i].0;
            assert_eq!(outcomes[i], runner.run(&[first, p]), "{first:?} + {p:?}");
            assert_eq!(outcomes[i], runner.run(&[rep, p]), "{rep:?} + {p:?} for {first:?}");
        }
        settled += by.state;
    }
    assert!(settled > 0, "some walk reaches a partner site in a stored state");
}

/// `uart_out` already holds the compromise value, stored out of scope;
/// the scoped code is four `nop`s at `s1`..`s4` and the clean stop.
const FOUR_NOPS: &str = "movs r0, #0x20\nlsls r0, r0, #24\n\
                         movs r1, #0xc0\nlsls r1, r1, #8\nadds r1, #0xde\nstr r1, [r0]\n\
                         scope:\nnop\nnop\nnop\nnop\n\
                         movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n";

/// The runner of [`FOUR_NOPS`], scoped from its first `nop`, and the
/// sites of the four `nop`s.
fn four_nops() -> (MultiFaultRunner, [u32; 4]) {
    let image = image(FOUR_NOPS);
    let s = [12, 14, 16, 18].map(|off| FLASH_BASE + off);
    let scope = [(s[0], FLASH_BASE + image.text.len() as u32)];
    (MultiFaultRunner::new(&image, Config::default(), &scope), s)
}

/// Two first faults at different sites that reach the later partner
/// sites in one state: `movs r3, #1` for the first `nop`, or for the
/// second. The second walk takes every partner outcome the first stored
/// — at both partner sites, whether the first walk ran, classed or
/// merged the partner — and runs no pair trial.
#[test]
fn a_walk_reaching_a_stored_state_takes_its_outcomes() {
    let (mut runner, s) = four_nops();
    let set_r3 = |site| fault(site, InjectKind::Corrupt { hw: 0x2301 }); // movs r3, #1
    let others = [
        fault(s[2], InjectKind::Corrupt { hw: 0x6001 }), // str r1, [r0]: compromises
        fault(s[2], InjectKind::Skip),                   // a no-op
        fault(s[3], InjectKind::Corrupt { hw: 0x2201 }), // movs r2, #1
        fault(s[3], InjectKind::Corrupt { hw: 0xBE00 }), // bkpt #0: stops early
    ];
    let partners = with_o1(&mut runner, &others);
    let mut outcomes = Vec::new();
    let (_, by) = runner.run_pairs(set_r3(s[0]), &partners, &mut outcomes);
    assert_eq!(by, PairsBy { trial: 3, merge: 1, ..PairsBy::default() });
    let (first, second) = (set_r3(s[0]), set_r3(s[1]));
    let (steps, by) = runner.run_pairs(second, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { state: 4, ..PairsBy::default() });
    assert_eq!(steps.executed + steps.slid, 0, "no pair trial ran");
    assert_eq!(outcomes, [Outcome::Success, Outcome::NoEffect, Outcome::NoEffect, Outcome::Failed]);
    let shared: Vec<_> = runner.settled_by_state().collect();
    assert_eq!(shared, (0..4).map(|i| (i, first)).collect::<Vec<_>>());
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[second, p]), "{p:?}");
    }
    // Other partners at a stored site are not those its outcomes are
    // for: the first site's partners run, the second site's still share.
    let partners = with_o1(&mut runner, &others[1..]);
    let (_, by) = runner.run_pairs(second, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { merge: 1, state: 2, ..PairsBy::default() });
    for (&(p, _), &walked) in partners.iter().zip(&outcomes) {
        assert_eq!(walked, runner.run(&[second, p]), "{p:?}");
    }
}

/// Equal states with different compromise flags keep their outcomes
/// apart. `stmia r0!, {r1}` for the first `nop` stores the compromise
/// value over itself and steps `r0` past `uart_out`; `adds r0, #4` for
/// the second `nop` leaves the same registers and memory without the
/// store. Skipping the third `nop` then succeeds after the first and has
/// no effect after the second.
#[test]
fn a_stored_state_with_another_compromise_flag_is_not_taken() {
    let (mut runner, s) = four_nops();
    let compromised = fault(s[0], InjectKind::Corrupt { hw: 0xC002 }); // stmia r0!, {r1}
    let clean = fault(s[1], InjectKind::Corrupt { hw: 0x3004 }); // adds r0, #4
    let partners = with_o1(&mut runner, &[fault(s[2], InjectKind::Skip)]);
    let mut outcomes = Vec::new();
    runner.run_pairs(compromised, &partners, &mut outcomes);
    assert_eq!(outcomes, [Outcome::Success]);
    let (_, by) = runner.run_pairs(clean, &partners, &mut outcomes);
    assert_eq!((outcomes[0], by.state), (Outcome::NoEffect, 0), "{by:?}");
    assert_eq!(outcomes[0], runner.run(&[clean, partners[0].0]));
}

/// A spin loop at `spin` and, after it, a countdown of `n` two-step
/// iterations that ends in the clean stop; the unfaulted run stops after
/// three `nop`s.
fn spin_then_countdown(n: u32) -> gd_backend::FirmwareImage {
    image(&format!(
        "nop\nnop\nnop\n\
         movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n\
         spin:\nb spin\n\
         movs r4, #{}\nlsls r4, r4, #8\nadds r4, #{}\n\
         count:\nsubs r4, #1\nbne count\n\
         movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n",
        n >> 8,
        n & 0xff
    ))
}

/// A stored state is taken at another step. Branching to the spin loop
/// from the first `nop` or from the third reaches it in one state two
/// steps apart; the partner at `spin` branches to a short countdown that
/// ends well inside either budget, so the second walk takes the first
/// walk's outcome.
#[test]
fn a_stored_state_is_taken_at_another_step() {
    let early = fault(FLASH_BASE, InjectKind::Corrupt { hw: 0xE005 }); // b spin
    let late = fault(FLASH_BASE + 4, InjectKind::Corrupt { hw: 0xE003 }); // b spin
    let exit = fault(FLASH_BASE + 14, InjectKind::Corrupt { hw: 0xE7FF }); // b to the countdown
    let image = spin_then_countdown(16);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let partners = with_o1(&mut runner, &[exit]);
    let mut outcomes = Vec::new();
    runner.run_pairs(early, &partners, &mut outcomes);
    let (_, by) = runner.run_pairs(late, &partners, &mut outcomes);
    assert_eq!(by, PairsBy { state: 1, ..PairsBy::default() });
    assert_eq!(runner.settled_by_state().collect::<Vec<_>>(), [(0, early)]);
    assert_eq!(outcomes, [Outcome::NoEffect]);
    assert_eq!(outcomes[0], runner.run(&[late, exit]));
}

/// A stored state is taken only with budget left for its pair trials.
/// As [`a_stored_state_is_taken_at_another_step`], but the countdown is
/// sized to end on the last step of the budget after the first branch,
/// so after the second it runs out: the second walk must not take the
/// first walk's outcome, although the first fault's trial reaches its
/// state.
#[test]
fn a_stored_state_is_taken_only_with_budget_for_its_trials() {
    let early = fault(FLASH_BASE, InjectKind::Corrupt { hw: 0xE005 }); // b spin
    let late = fault(FLASH_BASE + 4, InjectKind::Corrupt { hw: 0xE003 }); // b spin
    let exit = fault(FLASH_BASE + 14, InjectKind::Corrupt { hw: 0xE7FF }); // b to the countdown

    // The steps of the early pair around its countdown, to size it.
    let image = spin_then_countdown(16);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let (outcome, steps) = runner.run_counted(&[early, exit]);
    assert_eq!(outcome, Outcome::NoEffect);
    let around = steps.executed + steps.slid - 2 * 16;
    let budget = MF_TRIAL_STEPS - runner.replayed();
    let image = spin_then_countdown(((budget - around) / 2) as u32);

    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    assert_eq!(runner.run(&[]), Outcome::NoEffect);
    assert_eq!(runner.run(&[early, exit]), Outcome::NoEffect);
    assert_eq!(runner.run(&[late, exit]), Outcome::Failed, "the budget runs out");
    let partners = with_o1(&mut runner, &[exit]);
    let mut outcomes = Vec::new();
    runner.run_pairs(early, &partners, &mut outcomes);
    assert_eq!(outcomes, [Outcome::NoEffect]);
    let (_, by) = runner.run_pairs(late, &partners, &mut outcomes);
    assert_eq!((outcomes[0], by.state), (Outcome::Failed, 0), "{by:?}");
}

/// The clean stop after three `nop`s and, after it, a `nop` at `setup`
/// and a countdown of `n` two-step iterations that ends in the clean
/// stop.
fn nop_then_countdown(n: u32) -> gd_backend::FirmwareImage {
    image(&format!(
        "nop\nnop\nnop\n\
         movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n\
         setup:\nnop\n\
         movs r4, #{}\nlsls r4, r4, #8\nadds r4, #{}\n\
         count:\nsubs r4, #1\nbne count\n\
         movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n",
        n >> 8,
        n & 0xff
    ))
}

/// A merged partner's stored outcome is the first fault's own, so it
/// holds only with budget left for the rest of that trial. Branching to
/// `setup` from the first `nop` or from the third reaches it in one
/// state two steps apart; skipping the `nop` there merges. The countdown
/// is sized to end within the budget after the first branch but not
/// after the second: the second walk must not take the stored outcome.
#[test]
fn a_stored_merge_is_taken_only_with_budget_for_the_first_faults_trial() {
    let early = fault(FLASH_BASE, InjectKind::Corrupt { hw: 0xE005 }); // b setup
    let late = fault(FLASH_BASE + 4, InjectKind::Corrupt { hw: 0xE003 }); // b setup
    let skip = fault(FLASH_BASE + 14, InjectKind::Skip);
    let image = nop_then_countdown(16);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    let (_, steps) = runner.run_counted(&[early]);
    let around = steps.executed + steps.slid - 2 * 16;
    let budget = MF_TRIAL_STEPS - runner.replayed();
    let image = nop_then_countdown(((budget - around) / 2) as u32);

    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    assert_eq!(runner.run(&[early, skip]), Outcome::NoEffect);
    assert_eq!(runner.run(&[late, skip]), Outcome::Failed, "the budget runs out");
    let partners = with_o1(&mut runner, &[skip]);
    let mut outcomes = Vec::new();
    let (_, by) = runner.run_pairs(early, &partners, &mut outcomes);
    assert_eq!((outcomes[0], by.merge), (Outcome::NoEffect, 1), "{by:?}");
    let (_, by) = runner.run_pairs(late, &partners, &mut outcomes);
    assert_eq!((outcomes[0], by.state), (Outcome::Failed, 0), "{by:?}");
}

/// Order-1 shards start each trial at its fault's first fetch on the
/// unfaulted trial: for every model, the shard tallies as a loop of
/// from-snapshot trials over the same classes. Faults at sites the
/// unfaulted trial never fetches, and every fault of an image whose
/// unfaulted trial stores the compromise value (so it keeps no states),
/// start from the snapshot instead.
#[test]
fn order1_shards_equal_from_snapshot_trials() {
    let campaign = boot_campaign();
    let mut runner = campaign.runner();
    for (model, mc) in campaign.per_model.iter().enumerate() {
        let mut want = Tally::default();
        for class in &mc.classes {
            let outcome = class.outcome.unwrap_or_else(|| runner.run(&[class.rep()]));
            want.record_n(outcome, class.weight());
        }
        let walked: u64 = mc.classes.iter().map(FaultClass::weight).sum();
        want.record_n(Outcome::NoEffect, mc.enumerated - walked);
        assert_eq!(order1_shard(model).0, want, "{}", mc.name);
    }

    let src = "nop\nmovs r0, #0x20\nlsls r0, r0, #24\n\
               movs r1, #0xc0\nlsls r1, r1, #8\nadds r1, #0xde\nstr r1, [r0]\n\
               movs r0, #0xb0\nlsls r0, r0, #8\nadds r0, #7\nbkpt #0\n";
    let image = image(src);
    let mut runner = MultiFaultRunner::new(&image, Config::default(), &text_scope(&image));
    assert_eq!(runner.run(&[]), Outcome::Success);
    for site in (0..image.text.len() as u32).step_by(2).map(|off| FLASH_BASE + off) {
        for kind in [InjectKind::Skip, InjectKind::Corrupt { hw: 0x2000 }] {
            let f = fault(site, kind);
            assert_eq!(runner.run_at_fetch(f), runner.run(&[f]), "{f:?}");
        }
    }
}

/// Every bucket of the second-order campaign over a strided sample of
/// representatives (both models, every scoped routine; first-fault
/// classes formed over the sample): the walk and the reference agree on
/// tallies and ledgers, every both-live pair is accounted for once —
/// by a pair trial, its class, a rejoin, a merge, the first fault's
/// outcome, another partner's at its fork or an earlier walk's from the
/// same state — the walk dispatches fewer steps, and walks share some
/// outcomes through the state memo (over the whole space, in every
/// bucket; a sample's buckets hold too few neighbouring classes).
#[test]
fn every_bucket_walk_equals_reference() {
    every_bucket_walk_equals_reference_over(5);
}

/// [`every_bucket_walk_equals_reference`] over the whole pair space,
/// whose classes differ from any sample's (release build: a few seconds).
#[test]
#[ignore = "the full pair space: run in release (scripts/ci.sh)"]
fn every_bucket_walk_equals_reference_full_space() {
    every_bucket_walk_equals_reference_over(1);
}

fn every_bucket_walk_equals_reference_over(stride: usize) {
    let (mut seconds, mut states) = (0, 0);
    for bucket in 0..O2_BUCKETS {
        let walk = order2_bucket(bucket, stride, O2Executor::Fork);
        let reference = order2_bucket(bucket, stride, O2Executor::Reference);
        assert_eq!((walk.tally, walk.stats), (reference.tally, reference.stats), "bucket {bucket}");
        assert!(walk.stats.simulated > 0, "bucket {bucket} simulates pairs");
        assert_eq!(walk.pairs.total(), walk.stats.simulated, "bucket {bucket}: {:?}", walk.pairs);
        assert_eq!(reference.pairs, PairsBy { trial: walk.stats.simulated, ..PairsBy::default() });
        assert_eq!(reference.steps.shared, 0);
        assert!(walk.steps.executed < reference.steps.executed, "bucket {bucket}");
        assert!(reference.steps.slid > 0, "bucket {bucket} slides");
        assert!(stride > 1 || walk.pairs.state > 0, "bucket {bucket}: {:?}", walk.pairs);
        seconds += walk.pairs.second;
        states += walk.pairs.state;
    }
    assert!(seconds > 0, "some pair is settled by its second fault's state");
    assert!(states > 0, "some pair is settled by an earlier walk's state");
}
