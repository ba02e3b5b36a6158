//! Typed campaign specifications: which published workload to run, over
//! which parameter sub-space, with which fault-model constants, seeds,
//! thread count, and shard range — plus the JSON mapping and the
//! content-address under which results are cached.

use std::sync::OnceLock;

use gd_chipwhisperer::{targets, Device, FaultModel};
use gd_glitch_emu::branch_case;
use gd_thumb::Cond;

use crate::hash::Sha256;
use crate::json::{parse, Json, JsonError};

/// Spec format version accepted by this engine.
pub const SPEC_VERSION: i64 = 1;

/// Which published experiment a campaign reproduces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2: exhaustive bit-flip sweeps over every conditional branch
    /// under the AND / OR / AND-0x0000-invalid / XOR fault models.
    Fig2,
    /// Table I: per-cycle single-glitch grid scans over `cycles`
    /// (half-open), with comparator post-mortems.
    Table1 {
        /// Glitch cycles scanned (the paper uses `[0, 8)`).
        cycles: (u32, u32),
    },
    /// Table II: multi-glitch scans over `cycles` against the doubled
    /// guards.
    Table2 {
        /// Glitch cycles scanned (the paper uses `[0, 8)`).
        cycles: (u32, u32),
    },
    /// Table III: long glitches of `lens` cycles (half-open) from cycle 0.
    Table3 {
        /// Glitch lengths scanned (the paper uses `[10, 21)`).
        lens: (u32, u32),
    },
    /// Table VI: the three attack shapes against every hardened firmware
    /// target under All and All\Delay.
    Table6,
    /// Exhaustive first- and second-order fault campaigns over
    /// `firmware::boot`: the `gd-faultsim` registry's typed fault spaces
    /// with architectural-effect pruning.
    Multifault,
}

impl Workload {
    /// The kind tag used in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Fig2 => "fig2",
            Workload::Table1 { .. } => "table1",
            Workload::Table2 { .. } => "table2",
            Workload::Table3 { .. } => "table3",
            Workload::Table6 => "table6",
            Workload::Multifault => "multifault",
        }
    }
}

/// The tunable [`FaultModel`] constants carried in a spec. Mirrors
/// `gd_chipwhisperer::FaultModel` field for field so two specs hash
/// identically exactly when they simulate the same silicon.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Landscape seed (a different chip/bench setup).
    pub seed: u64,
    /// Peak probability that an in-region glitch produces any fault.
    pub peak_fault_rate: f64,
    /// Minimum per-bit 1→0 clear probability.
    pub bit_clear_min: f64,
    /// Maximum additional per-bit clear probability at full severity.
    pub bit_clear_span: f64,
}

impl Default for ModelSpec {
    fn default() -> ModelSpec {
        ModelSpec::from(&FaultModel::default())
    }
}

impl From<&FaultModel> for ModelSpec {
    fn from(m: &FaultModel) -> ModelSpec {
        ModelSpec {
            seed: m.seed,
            peak_fault_rate: m.peak_fault_rate,
            bit_clear_min: m.bit_clear_min,
            bit_clear_span: m.bit_clear_span,
        }
    }
}

impl ModelSpec {
    /// The concrete fault model this spec describes.
    pub fn model(&self) -> FaultModel {
        FaultModel {
            seed: self.seed,
            peak_fault_rate: self.peak_fault_rate,
            bit_clear_min: self.bit_clear_min,
            bit_clear_span: self.bit_clear_span,
        }
    }
}

/// A complete campaign description. Serializable, hashable, shardable.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The workload and its parameter sub-space.
    pub workload: Workload,
    /// Fault-model constants (ignored by [`Workload::Fig2`], which faults
    /// at the encoding level, but still part of the spec's identity).
    pub model: ModelSpec,
    /// Worker-thread override for this campaign (`None` = the engine
    /// default). Never part of the cache key: output is bit-identical at
    /// any thread count.
    pub threads: Option<u32>,
    /// Half-open range of shard indices to run (`None` = all). Part of
    /// the cache key — a partial campaign is a different result — but
    /// *not* of the checkpoint key, so partial runs seed full ones.
    pub shards: Option<(u32, u32)>,
}

impl CampaignSpec {
    fn with_workload(workload: Workload) -> CampaignSpec {
        CampaignSpec { workload, model: ModelSpec::default(), threads: None, shards: None }
    }

    /// The published Figure 2 campaign.
    pub fn fig2() -> CampaignSpec {
        CampaignSpec::with_workload(Workload::Fig2)
    }

    /// The published Table I campaign (cycles 0..8).
    pub fn table1() -> CampaignSpec {
        CampaignSpec::with_workload(Workload::Table1 { cycles: (0, 8) })
    }

    /// The published Table II campaign (cycles 0..8).
    pub fn table2() -> CampaignSpec {
        CampaignSpec::with_workload(Workload::Table2 { cycles: (0, 8) })
    }

    /// The published Table III campaign (lengths 10..=20).
    pub fn table3() -> CampaignSpec {
        CampaignSpec::with_workload(Workload::Table3 { lens: (10, 21) })
    }

    /// The published Table VI campaign.
    pub fn table6() -> CampaignSpec {
        CampaignSpec::with_workload(Workload::Table6)
    }

    /// The exhaustive multi-fault campaign over `firmware::boot`.
    pub fn multifault() -> CampaignSpec {
        CampaignSpec::with_workload(Workload::Multifault)
    }

    /// Structural validation beyond what parsing enforces.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let check_range = |name: &str, (lo, hi): (u32, u32)| {
            if lo >= hi {
                Err(format!("{name} range [{lo}, {hi}) is empty"))
            } else {
                Ok(())
            }
        };
        match self.workload {
            Workload::Table1 { cycles } => check_range("cycles", cycles)?,
            Workload::Table2 { cycles } => check_range("cycles", cycles)?,
            Workload::Table3 { lens } => check_range("lens", lens)?,
            Workload::Fig2 | Workload::Table6 | Workload::Multifault => {}
        }
        if let Some((lo, hi)) = self.shards {
            check_range("shards", (lo, hi))?;
        }
        if self.threads == Some(0) {
            return Err("threads must be >= 1 when given".into());
        }
        if !(self.model.peak_fault_rate.is_finite()
            && self.model.bit_clear_min.is_finite()
            && self.model.bit_clear_span.is_finite())
        {
            return Err("fault-model rates must be finite".into());
        }
        Ok(())
    }

    /// The spec as a JSON value (insertion order is fixed, so the
    /// serialization is canonical).
    pub fn to_json(&self) -> Json {
        let workload = match &self.workload {
            Workload::Fig2 => Json::obj(vec![("kind", Json::Str("fig2".into()))]),
            Workload::Table1 { cycles } => Json::obj(vec![
                ("kind", Json::Str("table1".into())),
                ("cycles", range_json(*cycles)),
            ]),
            Workload::Table2 { cycles } => Json::obj(vec![
                ("kind", Json::Str("table2".into())),
                ("cycles", range_json(*cycles)),
            ]),
            Workload::Table3 { lens } => {
                Json::obj(vec![("kind", Json::Str("table3".into())), ("lens", range_json(*lens))])
            }
            Workload::Table6 => Json::obj(vec![("kind", Json::Str("table6".into()))]),
            Workload::Multifault => Json::obj(vec![("kind", Json::Str("multifault".into()))]),
        };
        let mut fields = vec![
            ("version", Json::Int(SPEC_VERSION.into())),
            ("workload", workload),
            (
                "model",
                Json::obj(vec![
                    ("seed", Json::Int(self.model.seed.into())),
                    ("peak_fault_rate", Json::Num(self.model.peak_fault_rate)),
                    ("bit_clear_min", Json::Num(self.model.bit_clear_min)),
                    ("bit_clear_span", Json::Num(self.model.bit_clear_span)),
                ]),
            ),
        ];
        if let Some(t) = self.threads {
            fields.push(("threads", Json::Int(t.into())));
        }
        if let Some(r) = self.shards {
            fields.push(("shards", range_json(r)));
        }
        Json::obj(fields)
    }

    /// Parses a spec from its JSON value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed field; also
    /// rejects structurally invalid specs (see [`CampaignSpec::validate`]).
    pub fn from_json(v: &Json) -> Result<CampaignSpec, String> {
        let version =
            v.get("version").and_then(Json::as_i64).ok_or("missing integer field `version`")?;
        if version != SPEC_VERSION {
            return Err(format!("unsupported spec version {version} (expected {SPEC_VERSION})"));
        }
        let w = v.get("workload").ok_or("missing field `workload`")?;
        let kind = w.get("kind").and_then(Json::as_str).ok_or("missing `workload.kind`")?;
        let workload = match kind {
            "fig2" => Workload::Fig2,
            "table1" => Workload::Table1 { cycles: range_field(w, "cycles", (0, 8))? },
            "table2" => Workload::Table2 { cycles: range_field(w, "cycles", (0, 8))? },
            "table3" => Workload::Table3 { lens: range_field(w, "lens", (10, 21))? },
            "table6" => Workload::Table6,
            "multifault" => Workload::Multifault,
            other => return Err(format!("unknown workload kind {other:?}")),
        };
        let model = match v.get("model") {
            None => ModelSpec::default(),
            Some(m) => ModelSpec {
                seed: m.get("seed").and_then(Json::as_u64).ok_or("missing `model.seed`")?,
                peak_fault_rate: f64_field(m, "peak_fault_rate")?,
                bit_clear_min: f64_field(m, "bit_clear_min")?,
                bit_clear_span: f64_field(m, "bit_clear_span")?,
            },
        };
        let threads = match v.get("threads") {
            None => None,
            Some(t) => Some(
                t.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("field `threads` must be a u32")?,
            ),
        };
        let shards = match v.get("shards") {
            None => None,
            Some(r) => Some(parse_range(r).ok_or("field `shards` must be [lo, hi]")?),
        };
        let spec = CampaignSpec { workload, model, threads, shards };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Propagates both JSON syntax errors and spec-shape errors as text.
    pub fn from_json_text(text: &str) -> Result<CampaignSpec, String> {
        let v = parse(text).map_err(|e| e.to_string())?;
        CampaignSpec::from_json(&v)
    }

    /// Pretty JSON text for on-disk specs.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (non-finite model rates).
    pub fn to_json_text(&self) -> Result<String, JsonError> {
        self.to_json().to_string_pretty()
    }

    /// The canonical preimage fields shared by [`CampaignSpec::cache_key`]
    /// and [`CampaignSpec::checkpoint_key`]: spec JSON (threads and —
    /// for the checkpoint key — shard range stripped) plus the firmware
    /// image bytes of every target the workload attacks.
    fn hash_base(&self, include_shards: bool) -> Result<Sha256, String> {
        let mut stripped = self.clone();
        stripped.threads = None;
        if !include_shards {
            stripped.shards = None;
        }
        let spec_json = stripped.to_json().to_string_compact().map_err(|e| format!("spec: {e}"))?;
        let mut h = Sha256::new();
        h.update_field(b"gd-campaign-v1");
        h.update_field(spec_json.as_bytes());
        for (name, image) in self.target_material()? {
            h.update_field(name.as_bytes());
            h.update_field(image);
        }
        Ok(h)
    }

    /// The content address of this campaign's *result*: everything that
    /// determines output bytes — canonical spec (workload + parameter
    /// sub-space + fault-model constants + seed + shard range) and the
    /// firmware image bytes of every target. Thread count is excluded:
    /// the engine guarantees bit-identical output at any worker count.
    ///
    /// # Errors
    ///
    /// Fails if the spec does not serialize or a target does not build.
    pub fn cache_key(&self) -> Result<String, String> {
        Ok(self.hash_base(true)?.finish_hex())
    }

    /// The checkpoint address: like [`CampaignSpec::cache_key`] but with
    /// the shard range stripped, so a partial campaign's completed shards
    /// are found again by the full campaign (and by a restarted engine).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CampaignSpec::cache_key`].
    pub fn checkpoint_key(&self) -> Result<String, String> {
        Ok(self.hash_base(false)?.finish_hex())
    }

    /// The attack-target bytes folded into the content address: assembled
    /// or compiled firmware images for the scan workloads, instruction
    /// encodings for the Figure 2 sweeps.
    ///
    /// They depend on the workload's kind alone (Tables II and III share
    /// theirs) and on nothing but fixtures, so each is built once per
    /// process and kept.
    ///
    /// # Errors
    ///
    /// Fails if a guard fails to assemble or a firmware fails to harden
    /// and lower (fixture bugs, surfaced as errors instead of panics).
    pub fn target_material(&self) -> Result<&'static [(String, Vec<u8>)], String> {
        type Material = Result<Vec<(String, Vec<u8>)>, String>;
        static MEMO: [OnceLock<Material>; 5] = [const { OnceLock::new() }; 5];
        let slot = match &self.workload {
            Workload::Fig2 => 0,
            Workload::Table1 { .. } => 1,
            Workload::Table2 { .. } | Workload::Table3 { .. } => 2,
            Workload::Table6 => 3,
            Workload::Multifault => 4,
        };
        MEMO[slot]
            .get_or_init(|| build_target_material(&self.workload))
            .as_deref()
            .map_err(Clone::clone)
    }
}

/// Builds [`CampaignSpec::target_material`] for `workload`.
fn build_target_material(workload: &Workload) -> Result<Vec<(String, Vec<u8>)>, String> {
    match workload {
        Workload::Fig2 => Ok(Cond::ALL
            .iter()
            .map(|&c| {
                let case = branch_case(c);
                (case.name.clone(), case.target_halfword().to_le_bytes().to_vec())
            })
            .collect()),
        Workload::Table1 { .. } => targets::table1_guards()
            .into_iter()
            .map(|(name, src)| {
                let dev = Device::from_asm(src)
                    .map_err(|e| format!("guard {name} fails to assemble: {e}"))?;
                Ok((name.to_owned(), dev.text))
            })
            .collect(),
        Workload::Table2 { .. } | Workload::Table3 { .. } => doubled_guards()
            .into_iter()
            .map(|(name, src)| {
                let dev = Device::from_asm(&src)
                    .map_err(|e| format!("guard {name} fails to assemble: {e}"))?;
                Ok((name.to_owned(), dev.text))
            })
            .collect(),
        Workload::Table6 => {
            let mut out = Vec::new();
            for (target, module) in gd_firmware::table6_targets() {
                for (label, defenses) in [
                    ("All", glitch_resistor::Defenses::ALL),
                    ("All\\Delay", glitch_resistor::Defenses::ALL_EXCEPT_DELAY),
                ] {
                    let mut m = module.clone();
                    glitch_resistor::harden(&mut m, &glitch_resistor::Config::new(defenses));
                    let image = gd_backend::compile(&m, "main")
                        .map_err(|e| format!("{target}/{label} fails to lower: {e}"))?;
                    let mut bytes = image.text.clone();
                    for (addr, data) in &image.data {
                        bytes.extend_from_slice(&addr.to_le_bytes());
                        bytes.extend_from_slice(data);
                    }
                    out.push((format!("{target}/{label}"), bytes));
                }
            }
            Ok(out)
        }
        Workload::Multifault => {
            let image = gd_backend::compile(&gd_firmware::boot(), "main")
                .map_err(|e| format!("boot fails to lower: {e}"))?;
            let mut bytes = image.text.clone();
            for (addr, data) in &image.data {
                bytes.extend_from_slice(&addr.to_le_bytes());
                bytes.extend_from_slice(data);
            }
            Ok(vec![("boot".to_owned(), bytes)])
        }
    }
}

/// The doubled loop guards shared by the Table II and III workloads, in
/// row order.
pub fn doubled_guards() -> Vec<(&'static str, String)> {
    vec![
        ("while(!a)", targets::while_not_a_doubled()),
        ("while(a)", targets::while_a_doubled()),
        ("while(a!=0xD3B9AEC6)", targets::while_a_ne_const_doubled()),
    ]
}

fn range_json((lo, hi): (u32, u32)) -> Json {
    Json::Arr(vec![Json::Int(lo.into()), Json::Int(hi.into())])
}

fn parse_range(v: &Json) -> Option<(u32, u32)> {
    let items = v.as_arr()?;
    if items.len() != 2 {
        return None;
    }
    let lo = items[0].as_u64().and_then(|n| u32::try_from(n).ok())?;
    let hi = items[1].as_u64().and_then(|n| u32::try_from(n).ok())?;
    Some((lo, hi))
}

fn range_field(obj: &Json, name: &str, default: (u32, u32)) -> Result<(u32, u32), String> {
    match obj.get(name) {
        None => Ok(default),
        Some(v) => parse_range(v).ok_or(format!("field `{name}` must be [lo, hi]")),
    }
}

fn f64_field(obj: &Json, name: &str) -> Result<f64, String> {
    obj.get(name).and_then(Json::as_f64).ok_or(format!("missing number field `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_specs_round_trip() {
        for spec in [
            CampaignSpec::fig2(),
            CampaignSpec::table1(),
            CampaignSpec::table2(),
            CampaignSpec::table3(),
            CampaignSpec::table6(),
            CampaignSpec::multifault(),
        ] {
            let text = spec.to_json_text().unwrap();
            let back = CampaignSpec::from_json_text(&text).unwrap();
            assert_eq!(back, spec, "through\n{text}");
        }
    }

    #[test]
    fn optional_fields_round_trip() {
        let mut spec = CampaignSpec::table1();
        spec.threads = Some(4);
        spec.shards = Some((3, 9));
        let text = spec.to_json().to_string_compact().unwrap();
        assert_eq!(CampaignSpec::from_json_text(&text).unwrap(), spec);
    }

    #[test]
    fn cache_key_ignores_threads_but_not_shards() {
        let base = CampaignSpec::table1();
        let mut threaded = base.clone();
        threaded.threads = Some(8);
        assert_eq!(base.cache_key().unwrap(), threaded.cache_key().unwrap());
        let mut partial = base.clone();
        partial.shards = Some((0, 2));
        assert_ne!(base.cache_key().unwrap(), partial.cache_key().unwrap());
        // ...while the checkpoint key treats them as the same space.
        assert_eq!(base.checkpoint_key().unwrap(), partial.checkpoint_key().unwrap());
    }

    #[test]
    fn cache_key_sees_the_fault_model() {
        let base = CampaignSpec::table1();
        let mut reseeded = base.clone();
        reseeded.model.seed ^= 1;
        assert_ne!(base.cache_key().unwrap(), reseeded.cache_key().unwrap());
    }

    #[test]
    fn cache_keys_differ_across_workloads() {
        let keys: Vec<String> = [
            CampaignSpec::fig2(),
            CampaignSpec::table1(),
            CampaignSpec::table2(),
            CampaignSpec::table3(),
            CampaignSpec::table6(),
            CampaignSpec::multifault(),
        ]
        .iter()
        .map(|s| s.cache_key().unwrap())
        .collect();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "{keys:?}");
    }

    #[test]
    fn target_material_is_built_once_and_equals_a_fresh_build() {
        for spec in [
            CampaignSpec::fig2(),
            CampaignSpec::table1(),
            CampaignSpec::table2(),
            CampaignSpec::table3(),
            CampaignSpec::table6(),
            CampaignSpec::multifault(),
        ] {
            let first = spec.target_material().unwrap();
            let again = spec.target_material().unwrap();
            assert!(std::ptr::eq(first, again), "{} is kept", spec.workload.kind());
            assert_eq!(first, build_target_material(&spec.workload).unwrap().as_slice());
            assert!(!first.is_empty() && first.iter().all(|(_, bytes)| !bytes.is_empty()));
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for (label, text) in [
            ("empty cycles", r#"{"version":1,"workload":{"kind":"table1","cycles":[3,3]}}"#),
            ("zero threads", r#"{"version":1,"workload":{"kind":"fig2"},"threads":0}"#),
            ("bad version", r#"{"version":2,"workload":{"kind":"fig2"}}"#),
            ("bad kind", r#"{"version":1,"workload":{"kind":"table9"}}"#),
            ("no workload", r#"{"version":1}"#),
            ("bad shards", r#"{"version":1,"workload":{"kind":"fig2"},"shards":[5,2]}"#),
        ] {
            assert!(CampaignSpec::from_json_text(text).is_err(), "{label} must be rejected");
        }
    }
}
