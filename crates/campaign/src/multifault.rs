//! The multifault workload's campaign-side glue: strict-JSON mappings
//! for the `gd-faultsim` typed fault spaces (so fault instances and the
//! registry inventory travel through the same codec as specs and shard
//! results) and the renderer for the `multifault_boot` report.

use gd_emu::{InjectKind, LoadOverride, Persistence};
use gd_faultsim::{FaultInstance, Registry, SCOPE_FUNCS};
use gd_glitch_emu::{Outcome, Tally};

use crate::json::Json;
use crate::shards::{ShardResult, ShardWork};

/// One concrete fault as a self-describing JSON value:
/// `{"site": .., "kind": .., "persistence": ..}` with the kind split
/// into its own tagged object. Insertion order is fixed, so the
/// serialization is canonical.
pub fn fault_to_json(f: &FaultInstance) -> Json {
    let kind = match f.kind {
        InjectKind::Corrupt { hw } => {
            Json::obj(vec![("kind", Json::Str("corrupt".into())), ("hw", Json::Int(hw.into()))])
        }
        InjectKind::Skip => Json::obj(vec![("kind", Json::Str("skip".into()))]),
        InjectKind::LoadBus(over) => {
            let (op, value) = match over {
                LoadOverride::Replace(v) => ("replace", v),
                LoadOverride::And(v) => ("and", v),
                LoadOverride::Or(v) => ("or", v),
            };
            Json::obj(vec![
                ("kind", Json::Str("bus".into())),
                ("op", Json::Str(op.into())),
                ("value", Json::Int(value.into())),
            ])
        }
    };
    let persistence = match f.persistence {
        Persistence::Transient => "transient",
        Persistence::Permanent => "permanent",
    };
    Json::obj(vec![
        ("site", Json::Int(f.site.into())),
        ("kind", kind),
        ("persistence", Json::Str(persistence.into())),
    ])
}

/// Parses a fault instance back from [`fault_to_json`] output.
///
/// # Errors
///
/// Returns a message naming the missing or ill-typed field.
pub fn fault_from_json(v: &Json) -> Result<FaultInstance, String> {
    let u32_field = |obj: &Json, name: &str| {
        obj.get(name)
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("fault: field `{name}` must be a u32"))
    };
    let site = u32_field(v, "site")?;
    let k = v.get("kind").ok_or("fault: missing field `kind`")?;
    let tag = k.get("kind").and_then(Json::as_str).ok_or("fault: missing `kind.kind`")?;
    let kind = match tag {
        "corrupt" => {
            let hw = k
                .get("hw")
                .and_then(Json::as_u64)
                .and_then(|n| u16::try_from(n).ok())
                .ok_or("fault: corrupt kind needs a u16 `hw`")?;
            InjectKind::Corrupt { hw }
        }
        "skip" => InjectKind::Skip,
        "bus" => {
            let value = u32_field(k, "value")?;
            let over = match k.get("op").and_then(Json::as_str) {
                Some("replace") => LoadOverride::Replace(value),
                Some("and") => LoadOverride::And(value),
                Some("or") => LoadOverride::Or(value),
                other => return Err(format!("fault: unknown bus op {other:?}")),
            };
            InjectKind::LoadBus(over)
        }
        other => return Err(format!("fault: unknown kind {other:?}")),
    };
    let persistence = match v.get("persistence").and_then(Json::as_str) {
        Some("transient") => Persistence::Transient,
        Some("permanent") => Persistence::Permanent,
        other => return Err(format!("fault: unknown persistence {other:?}")),
    };
    Ok(FaultInstance { site, kind, persistence })
}

/// The standard registry as a JSON inventory: name and per-site
/// candidate count of each model, in registry order.
pub fn registry_json() -> Json {
    Json::Arr(
        Registry::standard()
            .models()
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("name", Json::Str(m.name().into())),
                    ("candidates_per_site", Json::Int(m.candidates_per_site().into())),
                ])
            })
            .collect(),
    )
}

fn milli(part: u64, whole: u64) -> u64 {
    (part * 1000).checked_div(whole).unwrap_or(0)
}

fn percent_milli(part: u64, whole: u64) -> String {
    let m = milli(part, whole);
    format!("{}.{}%", m / 10, m % 10)
}

fn row(out: &mut String, label: &str, tally: &Tally, enumerated: u64, pruned: u64, simulated: u64) {
    out.push_str(&format!("{label:<10} {enumerated:>10} {simulated:>9} {pruned:>10}"));
    for o in Outcome::ALL {
        let w = o.label().len().max(9);
        out.push_str(&format!("  {:>w$}", tally.count(o)));
    }
    out.push('\n');
}

/// Merges multifault shards — in plan order — into the report text: one
/// order-1 row per fault model, one aggregated order-2 row for the pair
/// buckets, and a totals line with the pruned-fraction in milli-units.
/// Partial campaigns render the rows they completed (pair buckets only
/// aggregate when all of them are present — a partial sum would
/// masquerade as the full pair space).
///
/// # Errors
///
/// Returns a message when a result's variant contradicts its work item.
pub fn render_multifault(shards: &[(ShardWork, ShardResult)]) -> Result<String, String> {
    let names = Registry::standard().names();
    let mut models: Vec<Option<(Tally, u64, u64, u64)>> = vec![None; names.len()];
    let mut pairs = (Tally::default(), 0u64, 0u64, 0u64);
    let mut buckets = 0u32;
    for (work, result) in shards {
        let (tally, enumerated, pruned, simulated) = match result {
            ShardResult::Multifault { tally, enumerated, pruned, simulated } => {
                (tally, *enumerated, *pruned, *simulated)
            }
            _ => return Err(format!("shard {} carries a result of the wrong type", work.label())),
        };
        match work {
            ShardWork::MultifaultModel { model } => {
                models[*model] = Some((*tally, enumerated, pruned, simulated));
            }
            ShardWork::MultifaultPairs { .. } => {
                pairs.0.merge(tally);
                pairs.1 += enumerated;
                pairs.2 += pruned;
                pairs.3 += simulated;
                buckets += 1;
            }
            _ => return Err(format!("shard {} carries a result of the wrong type", work.label())),
        }
    }
    let mut out = String::new();
    out.push_str(&"-".repeat(60));
    out.push('\n');
    out.push_str(&format!("Multi-fault campaigns — firmware::boot ({})\n", SCOPE_FUNCS.join(", ")));
    out.push_str(&"-".repeat(60));
    out.push('\n');
    let header = {
        let mut h =
            format!("{:<10} {:>10} {:>9} {:>10}", "Model", "Enumerated", "Simulated", "Pruned");
        for o in Outcome::ALL {
            h.push_str(&format!("  {:>9}", o.label()));
        }
        h.push('\n');
        h
    };
    let (mut enumerated, mut pruned, mut simulated) = (0u64, 0u64, 0u64);
    if models.iter().any(Option::is_some) {
        out.push_str("Order 1 — one armed fault per trial\n");
        out.push_str(&header);
        for (name, slot) in names.iter().zip(&models) {
            if let Some((tally, e, p, s)) = slot {
                row(&mut out, name, tally, *e, *p, *s);
                enumerated += e;
                pruned += p;
                simulated += s;
            }
        }
        out.push('\n');
    }
    if buckets == gd_faultsim::O2_BUCKETS {
        out.push_str("Order 2 — distinct-site representative pairs (xor1.t × skip.t)\n");
        out.push_str(&header);
        row(&mut out, "pairs", &pairs.0, pairs.1, pairs.2, pairs.3);
        enumerated += pairs.1;
        pruned += pairs.2;
        simulated += pairs.3;
        out.push('\n');
    }
    out.push_str(&format!(
        "Pruned {pruned} of {enumerated} candidate trials ({} = {} milli); simulated {simulated}\n",
        percent_milli(pruned, enumerated),
        milli(pruned, enumerated),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use gd_exec::check::{cases, Rng};

    use super::*;

    fn random_fault(rng: &mut Rng) -> FaultInstance {
        let kind = match rng.range(0, 5) {
            0 => InjectKind::Corrupt { hw: rng.u16() },
            1 => InjectKind::Skip,
            2 => InjectKind::LoadBus(LoadOverride::Replace(rng.u32())),
            3 => InjectKind::LoadBus(LoadOverride::And(rng.u32())),
            _ => InjectKind::LoadBus(LoadOverride::Or(rng.u32())),
        };
        let persistence = if rng.bool() { Persistence::Transient } else { Persistence::Permanent };
        FaultInstance { site: rng.u32(), kind, persistence }
    }

    #[test]
    fn fault_instances_round_trip_through_the_codec() {
        cases(256, "fault instance JSON round-trip", |rng| {
            let fault = random_fault(rng);
            let text = fault_to_json(&fault).to_string_compact().unwrap();
            let back = fault_from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, fault, "through {text}");
        });
    }

    #[test]
    fn registry_candidates_round_trip_through_the_codec() {
        // Every candidate the registry would enumerate at a plausible
        // site — not just synthetic instances — survives the codec.
        let site = gd_faultsim::SiteInfo {
            addr: 0x0800_0100,
            hw: 0x2001,
            hw2: Some(0xF800),
            instr: gd_thumb::Instr::MovImm { rd: gd_thumb::Reg::R0, imm8: 1 },
            size: 2,
        };
        for model in Registry::standard().models() {
            for fault in model.candidates_at(&site) {
                let text = fault_to_json(&fault).to_string_compact().unwrap();
                let back = fault_from_json(&crate::json::parse(&text).unwrap()).unwrap();
                assert_eq!(back, fault, "{} through {text}", model.name());
            }
        }
    }

    #[test]
    fn corrupt_fault_json_errors_cleanly() {
        for text in [
            r#"{"kind":{"kind":"skip"},"persistence":"transient"}"#,
            r#"{"site":1,"persistence":"transient"}"#,
            r#"{"site":1,"kind":{"kind":"corrupt","hw":65536},"persistence":"transient"}"#,
            r#"{"site":1,"kind":{"kind":"bus","op":"xor","value":1},"persistence":"transient"}"#,
            r#"{"site":1,"kind":{"kind":"skip"},"persistence":"sticky"}"#,
        ] {
            let v = crate::json::parse(text).unwrap();
            assert!(fault_from_json(&v).is_err(), "{text} must be rejected");
        }
    }

    #[test]
    fn registry_inventory_names_every_model() {
        let v = registry_json();
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), Registry::standard().len());
        assert_eq!(items[0].get("name").and_then(Json::as_str), Some("xor1.t"));
        assert_eq!(items[0].get("candidates_per_site").and_then(Json::as_u64), Some(16));
    }
}
