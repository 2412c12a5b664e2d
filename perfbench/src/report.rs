//! Result assembly: metric lists, order statistics, the run record, and the
//! final JSON line the benchmark prints.

use aod_core::json::JsonObject;
use aod_core::{DiscoveryResult, LevelStats};

/// The end-to-end metrics (`--trace 0`) with their units, in the order of
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// The per-layer metrics (`--trace 1`) with their units, in the order of
/// `BENCHMARK.json`. Every workload reports all of them; a layer that is
/// not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.levels", "count"),
    ("core.nodes", "count"),
    ("core.oc_candidates", "count"),
    ("core.oc_pruned", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.ofd_candidates", "count"),
    ("core.oc_accept_ratio", "ratio"),
    ("core.level_wall_s.max", "s"),
    ("partition.products", "count"),
    ("partition.busy_s", "s"),
    ("partition.us_per_product", "us"),
    ("validate.oc.calls", "count"),
    ("validate.oc.busy_s", "s"),
    ("validate.oc.call_us.p50", "us"),
    ("validate.oc.call_us.p99", "us"),
    ("validate.oc.rows_offered", "count"),
    ("validate.oc.ns_per_row", "ns"),
    ("validate.oc.valid_ratio", "ratio"),
    ("validate.oc.ctx_class_max", "count"),
    ("validate.ofd.busy_s", "s"),
    ("validate.presample.hits", "count"),
    ("validate.presample.misses", "count"),
    ("validate.presample.hit_ratio", "ratio"),
    ("validate.presample.replay_us", "us"),
    ("lis.lnds_us", "us"),
    ("lis.elems", "count"),
    ("validate.oc.replay_us", "us"),
    ("validate.oc.gather_sort_us", "us"),
    ("exec.workers", "count"),
    ("exec.busy_share", "ratio"),
    ("exec.imbalance", "ratio"),
    ("exec.steal_share", "ratio"),
    ("table.rank_s", "s"),
    ("datagen.gen_s", "s"),
    ("serve.post_job_ms.p50", "ms"),
    ("serve.events_ms.p50", "ms"),
    ("serve.result_ms.p50", "ms"),
    ("serve.status_ms.p95", "ms"),
    ("serve.metrics_ms.p95", "ms"),
    ("serve.job_server_ms.p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.jobs_executed", "count"),
    ("serve.jobs_rejected", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_dropped", "count"),
    ("error_rate", "ratio"),
];

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (discovery runs, serve jobs and requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong or partial answer.
    pub failed: u64,
    /// Consistency checks beyond per-operation output checks (traced vs
    /// untraced counters, probe totals vs engine counters) that failed.
    pub inconsistencies: Vec<String>,
    /// Measured values by metric name; see [`END_TO_END`] and [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a measured value.
    ///
    /// # Panics
    /// If `name` is not a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "`{name}` is not a metric of BENCHMARK.json"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value));
    }

    /// The reported list: every metric of `listed`, in order, with its
    /// unit; 0 for a metric this run did not measure.
    pub fn report(
        &self,
        listed: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        listed
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .rev()
                    .find(|&&(n, _)| n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value, unit)
            })
            .collect()
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    pub fn inconsistent(&mut self, what: String) {
        self.notes.push(format!("INCONSISTENT: {what}"));
        self.inconsistencies.push(what);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.inconsistencies.is_empty() && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, listed: &[(&'static str, &'static str)]) -> String {
        let mut metrics = JsonObject::new();
        for (name, value, unit) in self.report(listed) {
            let mut one = JsonObject::new();
            one.num_f64("value", value).str("unit", unit);
            metrics.raw(name, &one.finish());
        }
        let mut obj = JsonObject::new();
        obj.bool("correct", self.correct())
            .num_u64("attempted", self.attempted.max(1))
            .num_u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        obj.finish()
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Set-up batches per run, and set-ups per batch. Each set-up is timed on
/// its own; `setup_s` is [`median_of_minima`] over the batches.
pub const SETUP_BATCHES: usize = 9;
pub const SETUPS_PER_BATCH: usize = 5;

/// Median over `batches` of each batch's fastest time. Whatever else runs
/// on the machine only adds time to a set-up, so the minimum of a batch is
/// its steadiest reading; the median over batches then drops a batch that
/// fell entirely into a slow stretch.
pub fn median_of_minima(batches: &[Vec<f64>]) -> f64 {
    median(&batch_minima(batches))
}

/// The fastest time of each non-empty batch.
pub fn batch_minima(batches: &[Vec<f64>]) -> Vec<f64> {
    batches
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| b.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Nearest-rank percentile (`p` in `[0, 100]`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, the same hash the table crate uses for fingerprints.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of a result's dependency lists: FNV-1a over the wire
/// encoding of every OC and then every OFD, in reported order. Timing
/// fields are not part of the dependency encodings, so the fingerprint is
/// a pure function of the lists.
pub fn deps_fingerprint(result: &DiscoveryResult) -> u64 {
    let mut h = FNV_OFFSET;
    for oc in &result.ocs {
        h = fnv1a(oc.to_json().as_bytes(), h);
    }
    h = fnv1a(b"|", h);
    for ofd in &result.ofds {
        h = fnv1a(ofd.to_json().as_bytes(), h);
    }
    h
}

/// Sum of one counter over a run's levels.
pub fn level_sum(levels: &[LevelStats], f: impl Fn(&LevelStats) -> usize) -> usize {
    levels.iter().map(f).sum()
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3, so fields 14/15 sit at offsets 11/12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine and build the numbers were taken on, as `key=value` pairs.
pub fn run_record(seed: u64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut record = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("profile".to_string(), profile.to_string()),
        ("git_rev".to_string(), git_revision()),
        (
            "rustc".to_string(),
            option_env!("PERFBENCH_RUSTC")
                .unwrap_or("unknown")
                .to_string(),
        ),
        ("seed".to_string(), seed.to_string()),
    ];
    for (level, size) in cache_sizes() {
        record.push((format!("cache_l{level}"), size));
    }
    record
}

/// The checked-out revision, read from `.git` when the working directory
/// is a git checkout; `unknown` otherwise (e.g. an exported tree).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Unified and data cache sizes of CPU 0 from sysfs, L2 and up.
fn cache_sizes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        if level.parse::<u32>().is_ok_and(|l| l >= 2) {
            out.push((level, size));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.metric("wall_s", 1.25);
        out.metric("cpu_s", f64::NAN);
        let v = aod_core::json::JsonValue::parse(&out.to_json(END_TO_END)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, listed, "every listed metric, in order");
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        let cpu = v.get("metrics").unwrap().get("cpu_s").unwrap();
        assert_eq!(
            cpu.get("value").unwrap().as_f64(),
            Some(0.0),
            "NaN is reported as 0"
        );
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    #[should_panic(expected = "is not a metric")]
    fn unknown_metric_names_are_refused() {
        Outcome::default().metric("wall_ms", 1.0);
    }
}
