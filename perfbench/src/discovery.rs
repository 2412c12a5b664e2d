//! The three discovery workloads: timed runs, the traced run, and the
//! output checks.
//!
//! Untraced runs call `DiscoveryBuilder::run` exactly as a user would,
//! with nothing attached. Traced runs alternate an untraced run with one
//! that carries the layer probes (timing validator wrapper, recording
//! sink, span trace), so the tracing overhead is measured in the same
//! process on the same input.

use crate::clock::Stopwatch;
use crate::inputs::{build_input, DiscoverySpec, Workload};
use crate::probe::{Call, Probe};
use crate::replay::{replay, Replay};
use crate::report::{
    batch_minima, deps_fingerprint, level_sum, median, median_of_minima, peak_rss_mb, percentile,
    process_cpu_s, ratio, Outcome, SETUPS_PER_BATCH, SETUP_BATCHES,
};
use aod_core::{AocStrategy, LevelStats, Phase};
use aod_obs::{MonotonicClock, TraceSink};
use aod_table::RankedTable;
use aod_validate::{exact_backend, strategy_backend, SampleVerdict};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The seed whose dependency-list fingerprints are committed below; other
/// seeds are checked against an untimed cross-run instead.
pub const DEFAULT_SEED: u64 = 1;

/// Fingerprints (see [`deps_fingerprint`]) of each discovery workload's
/// OC and OFD lists at [`DEFAULT_SEED`].
pub fn committed_fingerprint(workload: Workload) -> Option<u64> {
    match workload {
        Workload::AodFlight => Some(0x349b_1736_c7da_6974),
        Workload::AodDirtyHybrid => Some(0xafff_c90b_1391_82d7),
        Workload::OdNcvoterExact => Some(0x235b_3394_8a6b_e0d6),
        Workload::ServeMixed => None,
    }
}

/// Capacity per trace lane: large enough that no span of these workloads
/// is evicted (`obs.trace_dropped` must stay 0).
const TRACE_CAPACITY: usize = 1 << 20;

/// One discovery run, as the user sees it.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    fingerprint: u64,
    levels: Vec<LevelStats>,
    partial: bool,
    threads_used: usize,
}

fn timed_run(spec: &DiscoverySpec, table: &RankedTable, probes: Option<&Traced>) -> Sample {
    let mut builder = spec.run.builder();
    if let Some(t) = probes {
        let inner = match spec.run.epsilon {
            None => exact_backend(),
            Some(_) => strategy_backend(spec.run.strategy),
        };
        builder = builder
            .validator(t.probe.backend(inner))
            .event_sink(t.probe.sink())
            .trace_sink(Arc::clone(&t.trace));
    }
    let cpu0 = process_cpu_s();
    let t0 = Stopwatch::start();
    let result = builder.run(table);
    let wall_s = t0.secs();
    let cpu_s = process_cpu_s() - cpu0;
    Sample {
        wall_s,
        cpu_s,
        fingerprint: deps_fingerprint(&result),
        partial: result.stats.is_partial(),
        threads_used: result.stats.threads_used,
        levels: result.stats.per_level,
    }
}

/// The probes attached to one traced run.
struct Traced {
    probe: Arc<Probe>,
    trace: Arc<TraceSink>,
}

/// Set-up times of one batch: (generation, rank encoding) per set-up.
type SetupBatch = Vec<(f64, f64)>;

/// Times one batch of input set-ups, each dropped at once.
fn set_up_batch(workload: Workload, seed: u64) -> SetupBatch {
    (0..SETUPS_PER_BATCH)
        .map(|_| {
            let i = build_input(workload, seed);
            (i.gen_s, i.rank_s)
        })
        .collect()
}

/// One component of every set-up, batch by batch.
fn component(batches: &[SetupBatch], f: impl Fn(&(f64, f64)) -> f64) -> Vec<Vec<f64>> {
    batches.iter().map(|b| b.iter().map(&f).collect()).collect()
}

/// Runs one discovery workload for about `seconds` and reports its
/// end-to-end metrics, or its per-layer metrics when `traced`.
///
/// Set-up batches are interleaved with the timed runs, one after each run
/// until there are [`SETUP_BATCHES`], so `setup_s` samples the whole run
/// rather than one moment of it. The input the runs use is built first and
/// not counted: it pays the process's first-touch costs.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let spec = workload
        .discovery()
        .expect("discovery::run is only called for discovery workloads");

    let input = build_input(workload, seed);
    let table = &input.table;
    let mut setups: Vec<SetupBatch> = Vec::with_capacity(SETUP_BATCHES);
    out.notes.push(format!(
        "input {}: {} rows x {} columns, {} bytes",
        workload.name(),
        table.n_rows(),
        table.n_cols(),
        input.bytes()
    ));

    let start = Stopwatch::start();
    let mut plain: Vec<Sample> = Vec::new();
    let mut probed: Vec<(Sample, Traced)> = Vec::new();
    // Peak RSS through set-up and the first discovery. Later runs of the
    // same process raise it further as freed memory stays with the
    // allocator, by an amount that depends on how many runs fit.
    let mut peak_rss = None;
    loop {
        plain.push(timed_run(&spec, table, None));
        peak_rss.get_or_insert_with(peak_rss_mb);
        if traced {
            let t = Traced {
                probe: Probe::new(table, spec.replay_every),
                trace: Arc::new(TraceSink::with_capacity(
                    Arc::new(MonotonicClock::new()),
                    TRACE_CAPACITY,
                )),
            };
            probed.push((timed_run(&spec, table, Some(&t)), t));
        }
        if setups.len() < SETUP_BATCHES {
            setups.push(set_up_batch(workload, seed));
        }
        let elapsed = start.secs();
        let per_round = elapsed / plain.len() as f64;
        if elapsed + per_round > seconds {
            break;
        }
    }
    while setups.len() < SETUP_BATCHES {
        setups.push(set_up_batch(workload, seed));
    }

    check_outputs(workload, seed, &spec, table, &plain, &probed, out);

    let walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    out.notes.push(format!(
        "wall_s median of {} runs: {:.4} s (runs: {:?})",
        walls.len(),
        median(&walls),
        walls
    ));
    if !traced {
        let cpus: Vec<f64> = plain.iter().map(|s| s.cpu_s).collect();
        out.metric("wall_s", median(&walls));
        out.metric("cpu_s", median(&cpus));
        let totals = component(&setups, |&(g, r)| g + r);
        out.notes.push(format!(
            "setup_s batch minima ({SETUPS_PER_BATCH} set-ups each): {:?} s",
            batch_minima(&totals)
        ));
        out.metric("setup_s", median_of_minima(&totals));
        out.metric("peak_rss_mb", peak_rss.unwrap_or_default());
        out.metric("job_latency_p50_ms", median(&walls) * 1e3);
        out.metric("job_latency_p95_ms", percentile(&walls, 95.0) * 1e3);
        out.metric("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        return;
    }

    let traced_walls: Vec<f64> = probed.iter().map(|(s, _)| s.wall_s).collect();
    let per_sample: Vec<Vec<(&'static str, f64)>> =
        probed.iter().map(|(s, t)| layer_metrics(s, t)).collect();
    // Counts are identical across samples (checked above); times take the
    // median over the traced samples.
    for (i, &(name, _)) in per_sample[0].iter().enumerate() {
        let values: Vec<f64> = per_sample.iter().map(|ms| ms[i].1).collect();
        out.metric(name, median(&values));
    }

    let (_, first) = &probed[0];
    let stride = match spec.run.strategy {
        AocStrategy::Hybrid { stride } if spec.run.epsilon.is_some() => Some(stride),
        _ => None,
    };
    let r = match spec.replay_every {
        Some(_) => replay(&first.probe.replay_cases(), table, stride),
        None => Replay::default(),
    };
    out.notes.push(match spec.replay_every {
        Some(every) => format!(
            "kernel replay over {} sampled candidates (1 in {every})",
            r.cases
        ),
        None => "no kernel replay: the exact backend runs neither Algorithm 2 nor LNDS".to_string(),
    });
    out.metric("validate.oc.replay_us", r.oc_us);
    out.metric("lis.lnds_us", r.lnds_us);
    out.metric("lis.elems", r.lnds_elems as f64);
    out.metric("validate.oc.gather_sort_us", (r.oc_us - r.lnds_us).max(0.0));
    out.metric("validate.presample.replay_us", r.presample_us);
    out.metric(
        "table.rank_s",
        median_of_minima(&component(&setups, |&(_, r)| r)),
    );
    out.metric(
        "datagen.gen_s",
        median_of_minima(&component(&setups, |&(g, _)| g)),
    );
    out.metric(
        "obs.trace_overhead",
        median(&traced_walls) / median(&walls) - 1.0,
    );
    out.metric(
        "obs.trace_dropped",
        probed.iter().map(|(_, t)| t.trace.dropped()).sum::<u64>() as f64,
    );
    write_chrome_trace(workload, seed, &first.trace, out);
}

/// Per-layer metrics of one traced sample (replay and set-up metrics are
/// added by the caller).
fn layer_metrics(s: &Sample, t: &Traced) -> Vec<(&'static str, f64)> {
    let mut m = Vec::new();
    let mut put = |name: &'static str, value: f64| m.push((name, value));
    let lv = &s.levels;
    let candidates = level_sum(lv, |l| l.n_oc_candidates) as f64;
    let pruned = level_sum(lv, |l| l.n_oc_pruned) as f64;
    let level_walls = t.probe.level_walls_s();
    put("core.levels", lv.len() as f64);
    put("core.nodes", level_sum(lv, |l| l.n_nodes) as f64);
    put("core.oc_candidates", candidates);
    put("core.oc_pruned", pruned);
    put("core.prune_ratio", ratio(pruned, pruned + candidates));
    put(
        "core.ofd_candidates",
        level_sum(lv, |l| l.n_ofd_candidates) as f64,
    );
    put(
        "core.oc_accept_ratio",
        ratio(level_sum(lv, |l| l.n_oc_found) as f64, candidates),
    );
    put(
        "core.level_wall_s.max",
        level_walls.iter().map(|&(_, w)| w).fold(0.0, f64::max),
    );

    let products = level_sum(lv, |l| l.n_products) as f64;
    let partition_s = t.probe.phase_s(Phase::Partitioning);
    put("partition.products", products);
    put("partition.busy_s", partition_s);
    put(
        "partition.us_per_product",
        ratio(partition_s * 1e6, products),
    );

    let calls = t.probe.calls();
    let call_us: Vec<f64> = calls.iter().map(|c| c.nanos as f64 / 1e3).collect();
    let busy_ns: u64 = calls.iter().map(|c| c.nanos).sum();
    let rows: u64 = calls.iter().map(|c| c.rows as u64).sum();
    put("validate.oc.calls", calls.len() as f64);
    put("validate.oc.busy_s", busy_ns as f64 / 1e9);
    put("validate.oc.call_us.p50", percentile(&call_us, 50.0));
    put("validate.oc.call_us.p99", percentile(&call_us, 99.0));
    put("validate.oc.rows_offered", rows as f64);
    put("validate.oc.ns_per_row", ratio(busy_ns as f64, rows as f64));
    put(
        "validate.oc.valid_ratio",
        ratio(
            calls.iter().filter(|c| c.valid).count() as f64,
            calls.len() as f64,
        ),
    );
    put(
        "validate.oc.ctx_class_max",
        calls.iter().map(|c| c.class_max).max().unwrap_or(0) as f64,
    );
    put("validate.ofd.busy_s", t.probe.phase_s(Phase::OfdValidation));

    let hits = level_sum(lv, |l| l.n_sample_hits) as f64;
    let misses = level_sum(lv, |l| l.n_sample_misses) as f64;
    put("validate.presample.hits", hits);
    put("validate.presample.misses", misses);
    put("validate.presample.hit_ratio", ratio(hits, hits + misses));

    let workers = s.threads_used.max(1);
    let (busy_share, imbalance) = executor_balance(&calls, &level_walls, workers);
    put("exec.workers", workers as f64);
    put("exec.busy_share", busy_share);
    put("exec.imbalance", imbalance);
    put("exec.steal_share", steal_share(&t.trace));
    m
}

/// Validator busy time over worker capacity (`workers` × level wall), and
/// the per-level imbalance Σ max-worker busy ÷ Σ mean-worker busy.
fn executor_balance(calls: &[Call], level_walls: &[(usize, f64)], workers: usize) -> (f64, f64) {
    let mut per_level: BTreeMap<usize, Vec<(std::thread::ThreadId, u64)>> = BTreeMap::new();
    for c in calls {
        let busy = per_level.entry(c.level).or_default();
        match busy.iter_mut().find(|(t, _)| *t == c.thread) {
            Some((_, ns)) => *ns += c.nanos,
            None => busy.push((c.thread, c.nanos)),
        }
    }
    let (mut max_sum, mut mean_sum, mut busy_sum) = (0.0, 0.0, 0.0);
    for busy in per_level.values() {
        let total: f64 = busy.iter().map(|&(_, ns)| ns as f64).sum();
        let max = busy.iter().map(|&(_, ns)| ns as f64).fold(0.0, f64::max);
        max_sum += max;
        mean_sum += total / workers.max(busy.len()) as f64;
        busy_sum += total;
    }
    let wall: f64 = level_walls.iter().map(|&(_, w)| w).sum();
    (
        ratio(busy_sum / 1e9, wall * workers as f64),
        if mean_sum == 0.0 {
            1.0
        } else {
            max_sum / mean_sum
        },
    )
}

/// Share of executor item time spent on stolen items (worker trace lane).
fn steal_share(trace: &TraceSink) -> f64 {
    let spans = trace.worker_spans();
    let total: u64 = spans.iter().map(|s| s.dur_us).sum();
    let stolen: u64 = spans
        .iter()
        .filter(|s| s.name == "steal")
        .map(|s| s.dur_us)
        .sum();
    ratio(stolen as f64, total as f64)
}

/// Checks every sample's output and the probes' consistency with the
/// engine's own counters.
fn check_outputs(
    workload: Workload,
    seed: u64,
    spec: &DiscoverySpec,
    table: &RankedTable,
    plain: &[Sample],
    probed: &[(Sample, Traced)],
    out: &mut Outcome,
) {
    // The expected lists: committed at the default seed, otherwise an
    // untimed run under a different thread count or strategy.
    let expected = match committed_fingerprint(workload).filter(|_| seed == DEFAULT_SEED) {
        Some(fp) => fp,
        None => {
            let cross = spec.cross.builder().run(table);
            if cross.stats.is_partial() {
                out.inconsistent("the cross-run returned partial results".to_string());
            }
            deps_fingerprint(&cross)
        }
    };
    out.notes
        .push(format!("dependency-list fingerprint: {expected:#018x}"));
    let all = plain.iter().chain(probed.iter().map(|(s, _)| s));
    for (i, s) in all.enumerate() {
        out.check(!s.partial && s.fingerprint == expected, || {
            format!(
                "run {i}: fingerprint {:#018x}, expected {expected:#018x}, partial {}",
                s.fingerprint, s.partial
            )
        });
    }
    let reference = &plain[0].levels;
    for (i, (s, t)) in probed.iter().enumerate() {
        if &s.levels != reference {
            out.inconsistent(format!(
                "traced run {i}: level counters differ from untraced"
            ));
        }
        if !t.probe.finished() {
            out.inconsistent(format!("traced run {i}: the sink saw no finish"));
        }
        let calls = t.probe.calls();
        let candidates = level_sum(&s.levels, |l| l.n_oc_candidates);
        if calls.len() != candidates {
            out.inconsistent(format!(
                "traced run {i}: {} validator calls for {candidates} OC candidates",
                calls.len()
            ));
        }
        let verdicts = |v: SampleVerdict| calls.iter().filter(|c| c.sample == Some(v)).count();
        let hits = level_sum(&s.levels, |l| l.n_sample_hits);
        let misses = level_sum(&s.levels, |l| l.n_sample_misses);
        if verdicts(SampleVerdict::ProvenInvalid) != hits
            || verdicts(SampleVerdict::NeedFullValidation) != misses
        {
            out.inconsistent(format!(
                "traced run {i}: wrapper presample verdicts disagree with level counters"
            ));
        }
    }
}

/// Writes the traced run's spans (both lanes) as Chrome `trace_event`
/// JSON under `.bench_out/` in the working directory.
fn write_chrome_trace(workload: Workload, seed: u64, trace: &TraceSink, out: &mut Outcome) {
    let mut spans = trace.spans();
    spans.extend(trace.worker_spans());
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, aod_core::chrome_trace(&spans)))
    {
        Ok(()) => out.notes.push(format!("chrome trace: {}", path.display())),
        Err(e) => out.notes.push(format!("chrome trace not written: {e}")),
    }
}
