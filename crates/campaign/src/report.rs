//! Small helpers for rendering experiment tables.
//!
//! Every table renderer in this crate builds a `String` (so results can
//! be served over HTTP, cached, and diffed against golden files).
//! Formatting is pinned by the committed `results/*.txt` files —
//! change nothing here without regenerating them.

/// Formats a rate as a percentage with the paper's precision.
pub fn pct(num: u64, denom: u64) -> String {
    if denom == 0 {
        "-".to_owned()
    } else {
        format!("{:.3}%", 100.0 * num as f64 / denom as f64)
    }
}

/// A horizontal rule sized to `width`, with trailing newline.
pub fn rule_str(width: usize) -> String {
    format!("{}\n", "-".repeat(width))
}

/// A heading with rules, exactly as the legacy binaries printed it: a
/// blank line, a rule, the text, a rule.
pub fn heading_str(text: &str) -> String {
    let r = rule_str(text.len().max(60));
    format!("\n{r}{text}\n{r}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(585, 78_408), "0.746%");
        assert_eq!(pct(0, 0), "-");
        assert_eq!(pct(1, 4), "25.000%");
    }

    #[test]
    fn heading_matches_the_legacy_print_sequence() {
        let h = heading_str("Table I — x");
        assert_eq!(h, format!("\n{0}\nTable I — x\n{0}\n", "-".repeat(60)));
        let long = "y".repeat(70);
        assert!(heading_str(&long).contains(&"-".repeat(70)));
    }
}
