//! Measurement helpers: robust statistics, process CPU time and peak
//! memory from `/proc`, the metric list a run prints, and the scratch
//! directory runs write into.

use std::path::PathBuf;
use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (the "type 7" estimator).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds `f` takes, as the median of `reps` timed calls.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// User plus system CPU seconds of this whole process, every thread
/// (exited ones included), from `/proc/self/stat` in clock ticks of
/// 1/100 s — the Linux `USER_HZ` on every mainstream architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present");
    kib / 1024.0
}

/// The directory runs write traces and temporary stores into, inside
/// the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".out");
    std::fs::create_dir_all(&dir).expect("creating the benchmark's output directory");
    dir
}

/// A fresh, empty directory under [`out_dir`] for one store.
pub fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The metrics one run reports, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends `name` = `value` in `unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|(_, v, _)| *v)
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Operation accounting behind the result line: everything attempted,
/// everything that failed or produced wrong output, and why.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (campaigns, requests, correctness checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` records `why` as a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(why());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(why);
    }
}

/// FNV-1a over `bytes`: a short fingerprint for logging outputs that
/// have no committed golden.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.75) - 3.25).abs() < 1e-12);
    }
}
