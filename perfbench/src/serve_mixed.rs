//! The `serve-mixed` workload: an in-process `aod-serve` server with two
//! resident generated datasets, driven over HTTP by one client process
//! with two threads.
//!
//! * A **closed loop** submits a fixed, seeded schedule of jobs one after
//!   another. About a quarter of the submissions repeat an earlier config,
//!   so the result cache is hit on exactly those. Each job's `/events`
//!   stream is followed to its end and then `/result` is fetched; job
//!   latency is submit → result received.
//! * An **open loop** alternates `GET /jobs/{id}` (the job in flight) and
//!   `GET /metrics` on a fixed period, each timed from when it was due.
//!
//! One schedule on a freshly set-up server is a *round*. Every job result
//! is checked against an in-process `DiscoveryBuilder` run of the same
//! config after the timed rounds.

use crate::clock::Stopwatch;
use crate::inputs::{SplitMix, POPULATION_SEED};
use crate::report::{
    batch_minima, fnv1a, median, median_of_minima, peak_rss_mb, percentile, process_cpu_s, Outcome,
    FNV_OFFSET, SETUPS_PER_BATCH, SETUP_BATCHES,
};
use aod_core::json::{JsonObject, JsonValue};
use aod_core::{AocStrategy, DiscoveryBuilder};
use aod_datagen::{flight, ncvoter};
use aod_serve::client::{request, EventStream};
use aod_serve::{ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Rows of each generated dataset.
const ROWS: usize = 6_000;
/// Jobs per round.
const JOBS: usize = 200;
const COLUMNS_PER_JOB: usize = 8;
/// Column sets per dataset in the config pool: 2 datasets × 13 sets × 3 ε
/// × 2 strategies = 156 configs, a few more than the ≈150 fresh
/// submissions of a schedule.
const COLUMN_SETS: usize = 13;
const EPSILONS: [f64; 3] = [0.05, 0.1, 0.2];
const HYBRID_STRIDE: usize = 8;
/// The open loop sends one request per period.
const POLL_PERIOD: Duration = Duration::from_millis(20);
/// Pause between a server's spawn and its registration requests (see
/// [`set_up`]); shorter than the server's 10 ms accept poll.
const SETTLE: Duration = Duration::from_millis(2);
const DATASETS: [&str; 2] = ["flight", "ncvoter"];

/// Fingerprint (FNV-1a over every job's OC and OFD lists, in schedule
/// order) of the default seed's schedule.
const COMMITTED_FINGERPRINT: u64 = 0xd817_202f_0079_fd91;

/// One job's configuration.
#[derive(Debug, Clone, PartialEq)]
struct JobConfig {
    dataset: usize,
    columns: Vec<usize>,
    epsilon: f64,
    hybrid: bool,
}

impl JobConfig {
    fn body(&self, traced: bool) -> String {
        let cols: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let mut config = JsonObject::new();
        config
            .str("mode", "approximate")
            .num_f64("epsilon", self.epsilon)
            .str("strategy", if self.hybrid { "hybrid" } else { "optimal" })
            .num_u64("threads", 1)
            .raw("columns", &format!("[{}]", cols.join(",")));
        if self.hybrid {
            config.num_u64("sample_stride", HYBRID_STRIDE as u64);
        }
        if traced {
            config.bool("trace", true);
        }
        let mut body = JsonObject::new();
        body.str("dataset", DATASETS[self.dataset])
            .raw("config", &config.finish());
        body.finish()
    }

    fn builder(&self) -> DiscoveryBuilder {
        let strategy = if self.hybrid {
            AocStrategy::Hybrid {
                stride: HYBRID_STRIDE,
            }
        } else {
            AocStrategy::Optimal
        };
        DiscoveryBuilder::new()
            .approximate(self.epsilon)
            .strategy(strategy)
            .parallelism(1)
            .scope(self.columns.iter().copied())
    }
}

fn n_columns(dataset: usize) -> usize {
    [flight::N_COLS, ncvoter::N_COLS][dataset]
}

/// Every config a schedule draws from: each dataset with
/// [`COLUMN_SETS`] fixed column sets, crossed with every ε and strategy.
/// The pool is the same for every seed; seeds differ in which configs are
/// submitted, in what order, and which are repeated.
fn config_pool() -> Vec<JobConfig> {
    let mut pool = Vec::new();
    for dataset in 0..DATASETS.len() {
        let mut rng = SplitMix(POPULATION_SEED + dataset as u64);
        let mut sets: Vec<Vec<usize>> = Vec::new();
        while sets.len() < COLUMN_SETS {
            let mut columns: Vec<usize> = (0..n_columns(dataset)).collect();
            for i in 0..COLUMNS_PER_JOB {
                let j = i + rng.below(columns.len() - i);
                columns.swap(i, j);
            }
            columns.truncate(COLUMNS_PER_JOB);
            columns.sort_unstable();
            if !sets.contains(&columns) {
                sets.push(columns);
            }
        }
        for columns in sets {
            for epsilon in EPSILONS {
                for hybrid in [false, true] {
                    pool.push(JobConfig {
                        dataset,
                        columns: columns.clone(),
                        epsilon,
                        hybrid,
                    });
                }
            }
        }
    }
    pool
}

/// The seeded job schedule. After the first four, each submission repeats
/// an earlier one with probability 1/4; the others take the next config of
/// the shuffled pool, so cache hits come from the repeats only.
fn schedule(seed: u64) -> Vec<JobConfig> {
    let mut rng = SplitMix(seed ^ 0x5e7e_0000_0000_0001);
    let mut deck = config_pool();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    let mut jobs: Vec<JobConfig> = Vec::with_capacity(JOBS);
    while jobs.len() < JOBS {
        let repeat = jobs.len() >= 4 && rng.below(4) == 0;
        let fresh = if repeat { None } else { deck.pop() };
        match fresh {
            Some(config) => jobs.push(config),
            None => jobs.push(jobs[rng.below(jobs.len())].clone()),
        }
    }
    jobs
}

/// Each config of the schedule once, in order of first submission.
fn distinct_configs(jobs: &[JobConfig]) -> Vec<&JobConfig> {
    jobs.iter()
        .enumerate()
        .filter(|(i, j)| !jobs[..*i].contains(j))
        .map(|(_, j)| j)
        .collect()
}

/// The dependency lists of one result, as parsed JSON values.
type Deps = (JsonValue, JsonValue);

fn deps_of(result: &JsonValue) -> Option<Deps> {
    let stats = result.get("stats")?;
    let partial = stats.get("timed_out")?.as_bool()? || stats.get("stopped_early")?.as_bool()?;
    if partial {
        return None;
    }
    Some((result.get("ocs")?.clone(), result.get("ofds")?.clone()))
}

/// What one round measured.
#[derive(Default)]
struct Round {
    wall_s: f64,
    cpu_s: f64,
    latency_ms: Vec<f64>,
    post_ms: Vec<f64>,
    events_ms: Vec<f64>,
    result_ms: Vec<f64>,
    server_ms: Vec<f64>,
    status_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    /// How late the open loop sent its requests, worst case.
    poll_late_ms: f64,
    jobs_executed: u64,
    jobs_rejected: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Per scheduled job: its dependency lists, or `None` if it failed.
    results: Vec<Option<Deps>>,
    failures: Vec<String>,
    poll_attempted: u64,
    poll_failed: u64,
    /// Id of the last job the server executed rather than answered from
    /// its cache.
    last_executed: Option<u64>,
    trace_json: Option<String>,
}

/// Registers one generated dataset.
fn register(addr: SocketAddr, kind: &str) -> Result<(), String> {
    let mut generate = JsonObject::new();
    generate
        .str("dataset", kind)
        .num_u64("rows", ROWS as u64)
        .num_u64("seed", POPULATION_SEED);
    let mut body = JsonObject::new();
    body.str("name", kind).raw("generate", &generate.finish());
    match request(addr, "POST", "/datasets", Some(&body.finish())) {
        Ok(r) if r.status == 201 => Ok(()),
        Ok(r) => Err(format!("POST /datasets {kind}: {} {}", r.status, r.body)),
        Err(e) => Err(format!("POST /datasets {kind}: {e}")),
    }
}

/// Binds a server with two accept workers and registers both datasets, one
/// request each, sent at the same time. Returns the server and the set-up
/// time: bind + spawn, plus registration.
///
/// Registration starts [`SETTLE`] after the spawn, when both accept workers
/// have found no connection and are in their idle poll; the pause is not
/// counted. Sent at once, the two requests then wait for the same poll
/// wake-up in every set-up. Sent one after the other, or right after the
/// spawn, they race the workers' `accept` calls, and the set-up time jumps
/// by one poll interval from one set-up to the next.
fn set_up() -> Result<(ServerHandle, f64), String> {
    let t0 = Stopwatch::start();
    let server = Server::bind(&ServeConfig {
        port: 0,
        threads: 2,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let spawn_s = t0.secs();
    std::thread::sleep(SETTLE);

    let addr = handle.addr();
    let t1 = Stopwatch::start();
    let registered = std::thread::scope(|scope| {
        let second = scope.spawn(|| register(addr, DATASETS[1]));
        let first = register(addr, DATASETS[0]);
        first.and(second.join().expect("a registration thread does not panic"))
    });
    let register_s = t1.secs();
    match registered {
        Ok(()) => Ok((handle, spawn_s + register_s)),
        Err(e) => {
            stop(handle);
            Err(e)
        }
    }
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Times `batches` batches of set-ups; each server is stopped at once.
fn time_set_ups(batches: usize, into: &mut Vec<Vec<f64>>) -> Result<(), String> {
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(SETUPS_PER_BATCH);
        for _ in 0..SETUPS_PER_BATCH {
            let (handle, secs) = set_up()?;
            stop(handle);
            batch.push(secs);
        }
        into.push(batch);
    }
    Ok(())
}

/// One closed-loop job: submit, follow events, fetch the result.
fn one_job(
    addr: SocketAddr,
    body: &str,
    current: &AtomicU64,
    round: &mut Round,
) -> Result<Deps, String> {
    let t0 = Stopwatch::start();
    let posted =
        request(addr, "POST", "/jobs", Some(body)).map_err(|e| format!("POST /jobs: {e}"))?;
    round.post_ms.push(t0.ms());
    if posted.status != 201 {
        return Err(format!("POST /jobs: {} {}", posted.status, posted.body));
    }
    let posted = posted.json().map_err(|e| format!("POST /jobs body: {e}"))?;
    let id = posted
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("POST /jobs: no id")?;
    let cached = posted.get("cached").and_then(JsonValue::as_bool) == Some(true);
    current.store(id, Ordering::Relaxed);
    if !cached {
        round.last_executed = Some(id);
    }

    let t1 = Stopwatch::start();
    EventStream::open(addr, &format!("/jobs/{id}/events"))
        .and_then(|mut s| s.collect_lines())
        .map_err(|e| format!("GET /jobs/{id}/events: {e}"))?;
    round.events_ms.push(t1.ms());

    let t2 = Stopwatch::start();
    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None)
        .map_err(|e| format!("GET /jobs/{id}/result: {e}"))?;
    round.result_ms.push(t2.ms());
    round.latency_ms.push(t0.ms());
    if result.status != 200 {
        return Err(format!("GET /jobs/{id}/result: {}", result.status));
    }
    let result = result.json().map_err(|e| format!("result body: {e}"))?;
    let deps = deps_of(&result).ok_or_else(|| format!("job {id}: partial or malformed result"))?;

    // Off the latency path: the server's own timing of executed jobs.
    if !cached {
        let status = request(addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        let total_ms = status
            .json()
            .ok()
            .and_then(|s| s.get("stats")?.get("total_ms")?.as_u64());
        match (status.status, total_ms) {
            (200, Some(ms)) => round.server_ms.push(ms as f64),
            (code, _) => return Err(format!("GET /jobs/{id}: {code} without stats")),
        }
    }
    Ok(deps)
}

/// The open loop: alternates job-status polls and metric scrapes on a
/// fixed schedule until `stop`, timing each from when it was due.
fn poller(
    addr: SocketAddr,
    current: &AtomicU64,
    stop: &AtomicBool,
) -> (Vec<f64>, Vec<f64>, f64, u64, u64) {
    let (mut status_ms, mut metrics_ms) = (Vec::new(), Vec::new());
    let (mut late_ms, mut attempted, mut failed) = (0.0f64, 0u64, 0u64);
    let start = Stopwatch::start();
    let mut k: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        let due = POLL_PERIOD * k;
        start.sleep_until(due);
        late_ms = late_ms.max(start.ms_since(due));
        let id = current.load(Ordering::Relaxed);
        let (path, into) = if k.is_multiple_of(2) && id > 0 {
            (format!("/jobs/{id}"), &mut status_ms)
        } else {
            ("/metrics".to_string(), &mut metrics_ms)
        };
        attempted += 1;
        match request(addr, "GET", &path, None) {
            Ok(r) if r.status == 200 => into.push(start.ms_since(due)),
            _ => failed += 1,
        }
        k += 1;
    }
    (status_ms, metrics_ms, late_ms, attempted, failed)
}

fn stats_counter(stats: &JsonValue, key: &str) -> u64 {
    stats.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Runs the schedule once against a set-up server, then stops it.
fn run_round(handle: ServerHandle, jobs: &[JobConfig], traced: bool) -> Round {
    let addr = handle.addr();
    let mut round = Round::default();
    let current = AtomicU64::new(0);
    let stop_polling = AtomicBool::new(false);
    let cpu0 = process_cpu_s();
    let t0 = Stopwatch::start();
    let polled = std::thread::scope(|scope| {
        let poll = scope.spawn(|| poller(addr, &current, &stop_polling));
        for (i, job) in jobs.iter().enumerate() {
            match one_job(addr, &job.body(traced), &current, &mut round) {
                Ok(deps) => round.results.push(Some(deps)),
                Err(e) => {
                    round.failures.push(format!("job {i}: {e}"));
                    round.results.push(None);
                }
            }
        }
        stop_polling.store(true, Ordering::Relaxed);
        poll.join().expect("the poller thread does not panic")
    });
    round.wall_s = t0.secs();
    round.cpu_s = process_cpu_s() - cpu0;
    (
        round.status_ms,
        round.metrics_ms,
        round.poll_late_ms,
        round.poll_attempted,
        round.poll_failed,
    ) = polled;

    match request(addr, "GET", "/stats", None).map(|r| (r.status, r.json())) {
        Ok((200, Ok(stats))) => {
            round.jobs_executed = stats_counter(&stats, "jobs_executed");
            round.jobs_rejected = stats_counter(&stats, "jobs_rejected");
            round.cache_hits = stats_counter(&stats, "cache_hits");
            round.cache_misses = stats_counter(&stats, "cache_misses");
        }
        _ => round.failures.push("GET /stats failed".to_string()),
    }
    if let Some(id) = round.last_executed.filter(|_| traced) {
        match request(addr, "GET", &format!("/jobs/{id}/trace"), None) {
            Ok(r) if r.status == 200 => round.trace_json = Some(r.body),
            Ok(r) => round
                .failures
                .push(format!("GET /jobs/{id}/trace: {}", r.status)),
            Err(e) => round.failures.push(format!("GET /jobs/{id}/trace: {e}")),
        }
    }
    stop(handle);
    round
}

/// Runs `serve-mixed` for about `seconds` (at least one round; two, one of
/// them with traced jobs, when `traced`).
///
/// Half the timed set-up batches run before the rounds and half after, so
/// `setup_s` samples both ends of the run. A first, untimed set-up pays the
/// process's first bind and first-touch costs. Each round's own server is
/// set up untimed.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let jobs = schedule(seed);
    let distinct = distinct_configs(&jobs).len();
    out.notes.push(format!(
        "input serve-mixed: {} datasets of {ROWS} rows ({} and {} columns), {} bytes; {} jobs, {distinct} distinct configs",
        DATASETS.len(),
        flight::N_COLS,
        ncvoter::N_COLS,
        ROWS * (flight::N_COLS + ncvoter::N_COLS) * std::mem::size_of::<u32>(),
        jobs.len()
    ));

    let mut setups: Vec<Vec<f64>> = Vec::with_capacity(SETUP_BATCHES);
    let warmed = set_up()
        .map(|(h, _)| stop(h))
        .and_then(|()| time_set_ups(SETUP_BATCHES / 2, &mut setups));
    if let Err(e) = warmed {
        out.check(false, || format!("set-up: {e}"));
        return;
    }

    let start = Stopwatch::start();
    let mut plain: Vec<Round> = Vec::new();
    let mut with_trace: Vec<Round> = Vec::new();
    loop {
        let h = match set_up() {
            Ok((h, _)) => h,
            Err(e) => {
                out.check(false, || format!("set-up: {e}"));
                break;
            }
        };
        let trace_this = traced && plain.len() > with_trace.len();
        let round = run_round(h, &jobs, trace_this);
        if trace_this {
            with_trace.push(round);
        } else {
            plain.push(round);
        }
        let rounds = plain.len() + with_trace.len();
        let elapsed = start.secs();
        let done = elapsed + elapsed / rounds as f64 > seconds;
        if done && (!traced || !with_trace.is_empty()) {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    if plain.is_empty() {
        return;
    }
    if let Err(e) = time_set_ups(SETUP_BATCHES - setups.len(), &mut setups) {
        out.check(false, || format!("set-up: {e}"));
    }

    check_results(seed, &jobs, &plain, &with_trace, out);

    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let all = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        plain.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    out.notes.push(format!(
        "{} rounds, round wall {:?} s, open loop worst lateness {:.2} ms",
        walls.len(),
        walls,
        plain.iter().map(|r| r.poll_late_ms).fold(0.0, f64::max)
    ));
    let latency = all(|r| &r.latency_ms);
    if !traced {
        let cpus: Vec<f64> = plain.iter().map(|r| r.cpu_s).collect();
        out.metric("wall_s", median(&walls));
        out.metric("cpu_s", median(&cpus));
        out.notes.push(format!(
            "setup_s batch minima ({SETUPS_PER_BATCH} set-ups each): {:?} s",
            batch_minima(&setups)
        ));
        out.metric("setup_s", median_of_minima(&setups));
        out.metric("peak_rss_mb", peak_rss);
        out.metric("job_latency_p50_ms", median(&latency));
        out.metric("job_latency_p95_ms", percentile(&latency, 95.0));
        out.metric(
            "jobs_per_s",
            median(
                &plain
                    .iter()
                    .map(|r| JOBS as f64 / r.wall_s)
                    .collect::<Vec<_>>(),
            ),
        );
        return;
    }

    let first = &plain[0];
    out.metric("serve.post_job_ms.p50", median(&all(|r| &r.post_ms)));
    out.metric("serve.events_ms.p50", median(&all(|r| &r.events_ms)));
    out.metric("serve.result_ms.p50", median(&all(|r| &r.result_ms)));
    out.metric(
        "serve.status_ms.p95",
        percentile(&all(|r| &r.status_ms), 95.0),
    );
    out.metric(
        "serve.metrics_ms.p95",
        percentile(&all(|r| &r.metrics_ms), 95.0),
    );
    out.metric("serve.job_server_ms.p50", median(&all(|r| &r.server_ms)));
    out.metric(
        "serve.cache_hit_ratio",
        first.cache_hits as f64 / (first.cache_hits + first.cache_misses).max(1) as f64,
    );
    out.metric("serve.jobs_executed", first.jobs_executed as f64);
    out.metric("serve.jobs_rejected", first.jobs_rejected as f64);
    let traced_walls: Vec<f64> = with_trace.iter().map(|r| r.wall_s).collect();
    out.metric(
        "obs.trace_overhead",
        median(&traced_walls) / median(&walls) - 1.0,
    );
    if let Some(trace) = with_trace.iter().find_map(|r| r.trace_json.as_ref()) {
        let path =
            std::path::Path::new(".bench_out").join(format!("serve-mixed-seed{seed}.trace.json"));
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => out.notes.push(format!(
                "chrome trace (last traced job): {}",
                path.display()
            )),
            Err(e) => out.notes.push(format!("chrome trace not written: {e}")),
        }
    }
}

/// Checks every job of every round, and the rounds' server counters
/// against each other.
fn check_results(
    seed: u64,
    jobs: &[JobConfig],
    plain: &[Round],
    with_trace: &[Round],
    out: &mut Outcome,
) {
    let rounds: Vec<&Round> = plain.iter().chain(with_trace).collect();

    // Reference lists: one in-process run per distinct config, on the same
    // generated tables the server registered, spread over two threads.
    let tables = [
        flight::flight(POPULATION_SEED).ranked(ROWS),
        ncvoter::ncvoter(POPULATION_SEED).ranked(ROWS),
    ];
    let distinct = distinct_configs(jobs);
    let reference_of = |job: &JobConfig| {
        let result = job.builder().run(&tables[job.dataset]);
        JsonValue::parse(&result.to_json())
            .ok()
            .and_then(|v| deps_of(&v))
    };
    let half = distinct.len().div_ceil(2);
    let reference: Vec<Option<Deps>> = std::thread::scope(|scope| {
        let second = scope.spawn(|| {
            distinct[half..]
                .iter()
                .map(|j| reference_of(j))
                .collect::<Vec<_>>()
        });
        let mut first: Vec<Option<Deps>> =
            distinct[..half].iter().map(|j| reference_of(j)).collect();
        first.extend(second.join().expect("a reference run does not panic"));
        first
    });
    let mut fingerprint = FNV_OFFSET;
    for (i, job) in jobs.iter().enumerate() {
        let k = distinct
            .iter()
            .position(|j| *j == job)
            .expect("every job has a distinct config");
        let Some(expected) = &reference[k] else {
            out.inconsistent(format!("job {i}: the in-process reference run failed"));
            continue;
        };
        fingerprint = fnv1a(expected.0.to_json().as_bytes(), fingerprint);
        fingerprint = fnv1a(expected.1.to_json().as_bytes(), fingerprint);
        for (r, round) in rounds.iter().enumerate() {
            let got = round.results.get(i).and_then(Option::as_ref);
            out.check(got == Some(expected), || {
                format!("round {r} job {i}: result differs from the in-process run")
            });
        }
    }
    out.notes
        .push(format!("dependency-list fingerprint: {fingerprint:#018x}"));
    if seed == crate::discovery::DEFAULT_SEED && fingerprint != COMMITTED_FINGERPRINT {
        out.inconsistent(format!(
            "fingerprint {fingerprint:#018x} differs from the committed {COMMITTED_FINGERPRINT:#018x}"
        ));
    }
    for round in &rounds {
        for failure in &round.failures {
            out.notes.push(format!("FAILED: {failure}"));
        }
        out.attempted += round.poll_attempted;
        out.failed += round.poll_failed;
        // Failed jobs are already counted by the result check above.
        let job_failures = round.results.iter().filter(|r| r.is_none()).count();
        let other = round.failures.len().saturating_sub(job_failures) as u64;
        out.attempted += other;
        out.failed += other;
    }
    let counters = |r: &Round| {
        (
            r.jobs_executed,
            r.jobs_rejected,
            r.cache_hits,
            r.cache_misses,
        )
    };
    if rounds.iter().any(|r| counters(r) != counters(rounds[0])) {
        out.inconsistent("server job/cache counters differ between rounds".to_string());
    }
}
