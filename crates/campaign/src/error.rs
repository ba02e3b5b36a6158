//! Typed campaign failures — the engine's failure taxonomy.
//!
//! Torn or corrupt store files are recomputed inside the engine, so a
//! [`CampaignError`] is a failure the engine could not work around.

/// Why a campaign failed. `Display` renders the operator-facing
/// message (the service serves it verbatim in `409` bodies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec is unusable: validation failed, the shard range exceeds
    /// the plan, or a target fixture does not build. Deterministic —
    /// resubmitting the same spec fails the same way.
    Invalid(String),
    /// Store I/O the engine could not work around (an uncreatable
    /// checkpoint directory, an unwritable cache).
    Store(String),
    /// The merged shard results could not be rendered into the report.
    Render(String),
    /// A shard panicked. Carries everything an operator needs to triage
    /// without a core dump: which shard, what it was doing, and the
    /// panic message.
    ShardFailed {
        /// Plan index of the failing shard.
        shard: u32,
        /// The shard's human-readable work label.
        label: String,
        /// The panic message.
        cause: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Invalid(m) | CampaignError::Store(m) | CampaignError::Render(m) => {
                f.write_str(m)
            }
            CampaignError::ShardFailed { shard, label, cause } => {
                write!(f, "shard {shard} ({label}) panicked: {cause}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// The pre-PR-4 engine API returned `Result<_, String>`; existing
/// callers (the CLI, doc examples) keep working through this.
impl From<CampaignError> for String {
    fn from(e: CampaignError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_shard_attempts_and_cause() {
        let e = CampaignError::ShardFailed {
            shard: 17,
            label: "table1 vdd=3 width=5".into(),
            cause: "index out of bounds".into(),
        };
        assert_eq!(e.to_string(), "shard 17 (table1 vdd=3 width=5) panicked: index out of bounds");
    }

    #[test]
    fn string_conversion_preserves_the_message() {
        let s: String = CampaignError::Invalid("shard range end 99 exceeds".into()).into();
        assert!(s.contains("exceeds"));
    }
}
