//! Leveled structured logging: one `key=value` line per event on
//! stderr, filtered by the `GD_LOG` environment variable.
//!
//! `GD_LOG` is a comma-separated list of `level` (the default for all
//! targets) and `target=level` overrides, matched by longest target
//! prefix — e.g. `GD_LOG=warn,gd_exec=trace` silences everything below
//! `warn` except `gd_exec*`, which logs down to `trace`. Levels are
//! `off`, `error`, `warn`, `info` (the default when `GD_LOG` is
//! unset), `debug`, and `trace`.
//!
//! Lines look like:
//!
//! ```text
//! t=152 level=warn target=gd_campaign::engine msg="checkpoint write failed" shard=3
//! ```
//!
//! where `t` is milliseconds since the first log line of the process.
//! Use the [`error!`](crate::error!), [`warn!`](crate::warn!),
//! [`info!`](crate::info!), [`debug!`](crate::debug!), and
//! [`trace!`](crate::trace!) macros; they skip all formatting when the
//! level is filtered out.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The failure itself.
    Error,
    /// Degraded but proceeding (lost checkpoint, backoff).
    Warn,
    /// Milestones (service start, campaign done). The default.
    Info,
    /// Per-request / per-shard detail.
    Debug,
    /// Per-chunk firehose.
    Trace,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name; `None` means `off`.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized word back.
    pub fn parse(s: &str) -> Result<Option<Level>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(None),
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            other => Err(format!("unknown GD_LOG level {other:?}")),
        }
    }
}

/// A parsed `GD_LOG` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Default maximum level (`None` = off).
    default: Option<Level>,
    /// `(target-prefix, level)` overrides; longest matching prefix wins.
    targets: Vec<(String, Option<Level>)>,
}

impl Filter {
    /// The filter used when `GD_LOG` is unset: `info` for every target.
    pub fn default_filter() -> Filter {
        Filter { default: Some(Level::Info), targets: Vec::new() }
    }

    /// Parses a `GD_LOG` value. Unknown words are ignored rather than
    /// fatal — a typo'd filter must not take the process down — but the
    /// rest of the spec still applies.
    pub fn parse(spec: &str) -> Filter {
        let mut filter = Filter::default_filter();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            match clause.split_once('=') {
                None => {
                    if let Ok(level) = Level::parse(clause) {
                        filter.default = level;
                    }
                }
                Some((target, level)) => {
                    if let Ok(level) = Level::parse(level) {
                        filter.targets.push((target.trim().to_owned(), level));
                    }
                }
            }
        }
        // Longest prefix first, so the first match below is the winner.
        filter.targets.sort_by_key(|t| std::cmp::Reverse(t.0.len()));
        filter
    }

    /// Whether an event for `target` at `level` passes this filter.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        let max = self
            .targets
            .iter()
            .find(|(prefix, _)| target.starts_with(prefix.as_str()))
            .map_or(self.default, |(_, level)| *level);
        max.is_some_and(|max| level <= max)
    }
}

fn active() -> &'static Filter {
    static ACTIVE: OnceLock<Filter> = OnceLock::new();
    ACTIVE.get_or_init(|| match std::env::var("GD_LOG") {
        Ok(spec) => Filter::parse(&spec),
        Err(_) => Filter::default_filter(),
    })
}

/// Whether an event would be written — callers use this to skip field
/// formatting entirely (the macros do it for you).
pub fn enabled(target: &str, level: Level) -> bool {
    active().enabled(target, level)
}

/// Milliseconds since the first logging call of the process.
fn uptime_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(Instant::now);
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Quotes a value for `key=value` output when it needs it (spaces,
/// quotes, `=`, or emptiness).
fn format_value(v: &str) -> String {
    let bare = !v.is_empty()
        && v.chars().all(|c| c.is_ascii_graphic() && c != '"' && c != '=' && c != '\\');
    if bare {
        v.to_owned()
    } else {
        let mut out = String::from("\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
}

/// Writes one structured line to stderr. Prefer the level macros; this
/// is their single funnel (and what tests can call directly).
pub fn emit(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    let mut line = format!(
        "t={} level={} target={} msg={}",
        uptime_ms(),
        level.as_str(),
        target,
        format_value(msg)
    );
    for (key, value) in fields {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        line.push_str(&format_value(value));
    }
    line.push('\n');
    // One write_all per line keeps concurrent lines from interleaving.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Logs at an explicit [`Level`]: `logline!(level, "target", "msg", key = value, …)`.
#[macro_export]
macro_rules! logline {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        if $crate::log::enabled($target, $level) {
            $crate::log::emit(
                $level,
                $target,
                &::std::string::ToString::to_string(&$msg),
                &[$((stringify!($key), ::std::format!("{}", $value))),*],
            );
        }
    }};
}

/// Logs at [`Level::Error`]. See [`logline!`](crate::logline!).
#[macro_export]
macro_rules! error {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::logline!($crate::Level::Error, $target, $msg $(, $key = $value)*)
    };
}

/// Logs at [`Level::Warn`]. See [`logline!`](crate::logline!).
#[macro_export]
macro_rules! warn {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::logline!($crate::Level::Warn, $target, $msg $(, $key = $value)*)
    };
}

/// Logs at [`Level::Info`]. See [`logline!`](crate::logline!).
#[macro_export]
macro_rules! info {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::logline!($crate::Level::Info, $target, $msg $(, $key = $value)*)
    };
}

/// Logs at [`Level::Debug`]. See [`logline!`](crate::logline!).
#[macro_export]
macro_rules! debug {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::logline!($crate::Level::Debug, $target, $msg $(, $key = $value)*)
    };
}

/// Logs at [`Level::Trace`]. See [`logline!`](crate::logline!).
#[macro_export]
macro_rules! trace {
    ($target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::logline!($crate::Level::Trace, $target, $msg $(, $key = $value)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_most_severe_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn level_parsing_accepts_aliases_and_rejects_noise() {
        assert_eq!(Level::parse("WARN"), Ok(Some(Level::Warn)));
        assert_eq!(Level::parse("warning"), Ok(Some(Level::Warn)));
        assert_eq!(Level::parse(" off "), Ok(None));
        assert!(Level::parse("loud").is_err());
    }

    #[test]
    fn default_filter_is_info() {
        let f = Filter::default_filter();
        assert!(f.enabled("anything", Level::Info));
        assert!(f.enabled("anything", Level::Error));
        assert!(!f.enabled("anything", Level::Debug));
    }

    #[test]
    fn bare_level_sets_the_default() {
        let f = Filter::parse("debug");
        assert!(f.enabled("gd_exec", Level::Debug));
        assert!(!f.enabled("gd_exec", Level::Trace));
        let off = Filter::parse("off");
        assert!(!off.enabled("gd_exec", Level::Error), "off silences even errors");
    }

    #[test]
    fn target_overrides_win_by_longest_prefix() {
        let f = Filter::parse("warn,gd_exec=trace,gd_campaign::service=off");
        assert!(f.enabled("gd_exec", Level::Trace));
        assert!(f.enabled("gd_exec::check", Level::Trace), "prefix match covers submodules");
        assert!(!f.enabled("gd_campaign", Level::Info), "default warn applies elsewhere");
        assert!(f.enabled("gd_campaign", Level::Warn));
        assert!(!f.enabled("gd_campaign::service", Level::Error), "exact override is off");
        // The longer of two matching prefixes wins, regardless of spec order.
        let g = Filter::parse("error,gd=off,gd_exec=debug");
        assert!(g.enabled("gd_exec", Level::Debug));
        assert!(!g.enabled("gd_emu", Level::Error));
    }

    #[test]
    fn unknown_words_are_ignored_not_fatal() {
        let f = Filter::parse("garbage,debug,also=bogus");
        assert!(f.enabled("x", Level::Debug), "the valid clause still applies");
        assert_eq!(Filter::parse("???"), Filter::default_filter());
    }

    #[test]
    fn values_are_quoted_only_when_needed() {
        assert_eq!(format_value("plain"), "plain");
        assert_eq!(format_value("/campaigns/3"), "/campaigns/3");
        assert_eq!(format_value("two words"), "\"two words\"");
        assert_eq!(format_value(""), "\"\"");
        assert_eq!(format_value("a=b"), "\"a=b\"");
        assert_eq!(format_value("say \"hi\"\n"), "\"say \\\"hi\\\"\\n\"");
    }

    #[test]
    fn macros_compile_with_and_without_fields() {
        // Emission goes to stderr; this only pins the macro surface.
        crate::info!("gd_obs::test", "plain message");
        crate::debug!("gd_obs::test", "with fields", a = 1, b = "two words",);
        crate::trace!("gd_obs::test", format!("computed {}", 3), n = 3);
    }
}
