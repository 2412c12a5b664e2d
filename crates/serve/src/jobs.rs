//! The job manager: JSON configs in, background discovery sessions out.
//!
//! A `POST /jobs` body is parsed into a [`JobSpec`] (strictly — unknown
//! keys, bad types and out-of-range values are 400s, mirroring the CLI's
//! unknown-flag discipline), canonicalized into the result-cache key, and
//! either replayed from the [`ResultCache`] or run on a background thread
//! as a streaming `DiscoverySession`:
//!
//! * every emitted `DiscoveryEvent` is serialized once (via the stable
//!   [`aod_core::wire`] encoding) and appended, newline-terminated, to the
//!   job's NDJSON event log, which `GET /jobs/{id}/events` streams —
//!   including to clients that attach mid-run or after completion (the log
//!   replays from the start);
//! * `DELETE /jobs/{id}` fires the session's `CancelToken`; the engine
//!   stops at the next node boundary and the job finishes with partial,
//!   well-formed results flagged `stopped_early`;
//! * completed (non-partial) runs are stored in the cache, so an identical
//!   later request is answered without re-validating anything.

use crate::cache::{CachedRun, ResultCache};
use crate::metrics::ServeMetrics;
use crate::registry::Dataset;
use crate::sync::{lock_or_recover, wait_or_recover, wait_timeout_or_recover};
use aod_core::json::{JsonArray, JsonObject, JsonValue};
use aod_core::{AocStrategy, CancelToken, DiscoveryBuilder, DiscoveryEvent};
use aod_obs::{MonotonicClock, TraceSink};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The discovery session is running (or about to).
    Running,
    /// Finished with a well-formed (possibly partial) result.
    Done,
    /// The runner thread failed; see the job's `error`.
    Failed,
}

impl JobStatus {
    /// Stable wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// A fully validated, canonicalized job request.
///
/// Plain data (`Send`), so the runner thread can rebuild the
/// `DiscoveryBuilder` on its side of the spawn.
#[derive(Debug, Clone)]
pub struct JobSpec {
    epsilon: Option<f64>,
    strategy: AocStrategy,
    max_level: Option<usize>,
    timeout_ms: Option<u64>,
    top_k: Option<usize>,
    threads: usize,
    columns: Option<Vec<usize>>,
    /// Artificial pause between lattice levels — a pacing/debug knob that
    /// makes cooperative cancellation deterministic to exercise.
    level_delay_ms: u64,
    /// Record a span trace of the run, served by `GET /jobs/{id}/trace`.
    /// Part of the canonical form (a traced run is a distinct cache
    /// entry); a traced job answered from a *cached* traced run carries no
    /// trace of its own — the trace belongs to the job that executed.
    trace: bool,
}

impl JobSpec {
    /// Parses and validates a `POST /jobs` `config` object against a
    /// dataset (column names resolve against its schema). Errors are
    /// user-facing 400 texts.
    pub fn parse(config: &JsonValue, dataset: &Dataset) -> Result<JobSpec, String> {
        let fields = config
            .as_object()
            .ok_or_else(|| "`config` must be a JSON object".to_string())?;
        const KNOWN: &[&str] = &[
            "mode",
            "epsilon",
            "strategy",
            "sample_stride",
            "max_level",
            "timeout_ms",
            "top_k",
            "threads",
            "columns",
            "level_delay_ms",
            "trace",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!(
                    "unknown config field `{key}` (known: {})",
                    KNOWN.join(", ")
                ));
            }
        }

        let mode = match config.get("mode") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "`mode` must be \"exact\" or \"approximate\"".to_string())?,
            ),
        };
        let epsilon = match config.get("epsilon") {
            None => None,
            Some(v) => {
                let e = v
                    .as_f64()
                    .ok_or_else(|| "`epsilon` must be a number".to_string())?;
                if !(0.0..=1.0).contains(&e) {
                    return Err(format!("`epsilon`: {e} is not within [0, 1]"));
                }
                Some(e)
            }
        };
        let epsilon = match mode {
            Some("exact") => {
                if epsilon.is_some() {
                    return Err("`epsilon` is meaningless with \"mode\":\"exact\"".to_string());
                }
                None
            }
            Some("approximate") => Some(epsilon.unwrap_or(0.1)),
            None => epsilon, // mode inferred: approximate iff epsilon given
            Some(other) => {
                return Err(format!(
                    "unknown mode `{other}` (\"exact\" or \"approximate\")"
                ))
            }
        };

        let uint = |key: &str| -> Result<Option<u64>, String> {
            match config.get(key) {
                None => Ok(None),
                Some(v) if v.is_null() => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
            }
        };

        let sample_stride = uint("sample_stride")?.map(|v| v as usize);
        if sample_stride.is_some_and(|s| s > 4096) {
            // Request-controlled work bound; the shared parser handles the
            // lower bound and the hybrid-only coupling.
            return Err("`sample_stride` must be at most 4096".to_string());
        }
        // One shared name→strategy mapping with the CLI
        // (`AocStrategy::from_name`), so the accepted set can't drift
        // between surfaces.
        let strategy = match config.get("strategy") {
            None => AocStrategy::from_name("optimal", sample_stride)?,
            Some(v) => {
                let name = v.as_str().ok_or_else(|| {
                    "`strategy` must be \"optimal\", \"iterative\" or \"hybrid\"".to_string()
                })?;
                AocStrategy::from_name(name, sample_stride)?
            }
        };
        if epsilon.is_none() && config.get("strategy").is_some() {
            return Err("`strategy` is meaningless in exact mode".to_string());
        }
        let max_level = uint("max_level")?.map(|v| v as usize);
        if max_level == Some(0) {
            return Err("`max_level` must be at least 1".to_string());
        }
        let timeout_ms = uint("timeout_ms")?;
        let top_k = uint("top_k")?.map(|v| v as usize);
        let threads = uint("threads")?.map_or(1, |v| v as usize);
        if threads > 256 {
            // The engine forks one validator backend per worker up front;
            // an unbounded request-controlled count is a DoS vector.
            return Err("`threads` must be at most 256 (0 = one per core)".to_string());
        }
        let level_delay_ms = uint("level_delay_ms")?.unwrap_or(0);
        if level_delay_ms > 60_000 {
            return Err("`level_delay_ms` must be at most 60000".to_string());
        }
        let trace = match config.get("trace") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "`trace` must be a boolean".to_string())?,
        };

        let columns = match config.get("columns") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| "`columns` must be an array".to_string())?;
                if items.is_empty() {
                    return Err("`columns` must not be empty".to_string());
                }
                let mut indices = Vec::with_capacity(items.len());
                for item in items {
                    let idx = match item {
                        JsonValue::String(name) => dataset
                            .column_index(name)
                            .ok_or_else(|| format!("unknown column `{name}`"))?,
                        JsonValue::Number(_) => {
                            let idx = item.as_u64().ok_or_else(|| {
                                "`columns` entries must be names or indices".to_string()
                            })? as usize;
                            if idx >= dataset.table.n_cols() {
                                return Err(format!(
                                    "column index {idx} out of range (dataset has {} columns)",
                                    dataset.table.n_cols()
                                ));
                            }
                            idx
                        }
                        _ => return Err("`columns` entries must be names or indices".to_string()),
                    };
                    indices.push(idx);
                }
                indices.sort_unstable();
                indices.dedup();
                Some(indices)
            }
        };

        Ok(JobSpec {
            epsilon,
            strategy,
            max_level,
            timeout_ms,
            top_k,
            threads,
            columns,
            level_delay_ms,
            trace,
        })
    }

    /// The canonicalized config: every field present, fixed order,
    /// defaults resolved, columns as sorted indices. Two requests mean the
    /// same run iff their canonical forms are byte-equal — this is the
    /// config half of the result-cache key. The strategy *and* the hybrid
    /// sample stride are part of the form, so hybrid and optimal runs (or
    /// hybrid runs at different strides) never share a cache entry even
    /// though their results are identical by construction.
    pub fn canonical(&self) -> String {
        let mut obj = JsonObject::new();
        match self.epsilon {
            None => {
                obj.str("mode", "exact")
                    .null("epsilon")
                    .null("strategy")
                    .null("sample_stride");
            }
            Some(e) => {
                obj.str("mode", "approximate")
                    .num_f64("epsilon", e)
                    .str("strategy", self.strategy.name());
                match self.strategy {
                    AocStrategy::Hybrid { stride } => obj.num_u64("sample_stride", stride as u64),
                    AocStrategy::Optimal | AocStrategy::Iterative => obj.null("sample_stride"),
                };
            }
        }
        obj.opt_u64("max_level", self.max_level.map(|v| v as u64))
            .opt_u64("timeout_ms", self.timeout_ms)
            .opt_u64("top_k", self.top_k.map(|v| v as u64))
            .num_u64("threads", self.threads as u64);
        match &self.columns {
            None => obj.null("columns"),
            Some(cols) => {
                let mut arr = JsonArray::new();
                for &c in cols {
                    arr.push_u64(c as u64);
                }
                obj.raw("columns", &arr.finish())
            }
        };
        obj.num_u64("level_delay_ms", self.level_delay_ms);
        obj.bool("trace", self.trace);
        obj.finish()
    }

    /// Builds the discovery builder this spec encodes (called on the
    /// runner thread; `DiscoveryBuilder` itself is not `Send`).
    fn to_builder(&self, cancel: CancelToken) -> DiscoveryBuilder {
        let mut b = DiscoveryBuilder::new();
        if let Some(e) = self.epsilon {
            b = b.approximate(e).strategy(self.strategy);
        }
        if let Some(level) = self.max_level {
            b = b.max_level(level);
        }
        if let Some(ms) = self.timeout_ms {
            b = b.timeout(Duration::from_millis(ms));
        }
        if let Some(k) = self.top_k {
            b = b.top_k(k);
        }
        if let Some(cols) = &self.columns {
            b = b.scope(cols.iter().copied());
        }
        b.parallelism(self.threads).cancel_token(cancel)
    }
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    cancel_requested: bool,
    levels_completed: usize,
    /// The NDJSON event log: every serialized event followed by `'\n'`,
    /// appended in emission order — the exact bytes `/events` sends. `Arc`
    /// so cache-hit jobs *share* the cached run's log instead of
    /// deep-copying it per job. A live runner is the log's unique owner
    /// (readers copy bytes out under the lock and never clone the `Arc`),
    /// so `Arc::make_mut` appends in place.
    events: Arc<String>,
    /// Lines (events) in `events`.
    n_events: usize,
    events_done: bool,
    result_json: Option<Arc<String>>,
    stats_json: Option<Arc<String>>,
    error: Option<String>,
}

/// One submitted discovery job.
#[derive(Debug)]
pub struct Job {
    /// Job id (sequential, unique per server).
    pub id: u64,
    /// The dataset the job runs on.
    pub dataset: String,
    /// Canonicalized config (see [`JobSpec::canonical`]).
    pub config: String,
    /// `true` when the job was answered from the result cache.
    pub cached: bool,
    cancel: CancelToken,
    state: Mutex<JobState>,
    cond: Condvar,
}

impl Job {
    fn new(id: u64, dataset: &str, config: String, cached: bool) -> Job {
        Job {
            id,
            dataset: dataset.to_string(),
            config,
            cached,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Running,
                cancel_requested: false,
                levels_completed: 0,
                events: Arc::new(String::new()),
                n_events: 0,
                events_done: false,
                result_json: None,
                stats_json: None,
                error: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// Current status.
    pub fn status(&self) -> JobStatus {
        lock_or_recover(&self.state).status
    }

    /// Requests cooperative cancellation (idempotent).
    pub fn cancel(&self) {
        self.cancel.cancel();
        let mut state = lock_or_recover(&self.state);
        state.cancel_requested = true;
        self.cond.notify_all();
    }

    /// The completed result's JSON, once done.
    pub fn result_json(&self) -> Option<Arc<String>> {
        lock_or_recover(&self.state).result_json.clone()
    }

    /// Status + progress description (`GET /jobs/{id}`).
    pub fn describe(&self) -> String {
        let state = lock_or_recover(&self.state);
        let mut obj = JsonObject::new();
        obj.num_u64("id", self.id)
            .str("dataset", &self.dataset)
            .str("status", state.status.wire_name())
            .bool("cached", self.cached)
            .bool("cancel_requested", state.cancel_requested)
            .num_u64("levels_completed", state.levels_completed as u64)
            .num_u64("n_events", state.n_events as u64)
            .raw("config", &self.config);
        match &state.stats_json {
            Some(stats) => obj.raw("stats", stats),
            None => obj.null("stats"),
        };
        match &state.error {
            Some(error) => obj.str("error", error),
            None => obj.null("error"),
        };
        obj.finish()
    }

    /// The event log's bytes from byte offset `from` onward (whole
    /// newline-terminated lines), plus whether the log is complete. Blocks
    /// up to `wait` for news when there is none yet; the runner wakes
    /// waiters at each level's end and when the log completes, and a wait
    /// that times out returns whatever was logged meanwhile.
    ///
    /// The bytes are copied while the lock is held: handing out an `Arc`
    /// clone of a live log would make the runner's next append deep-copy
    /// the whole log.
    pub fn events_after(&self, from: usize, wait: Duration) -> (String, bool) {
        let state = lock_or_recover(&self.state);
        let state = if state.events.len() <= from && !state.events_done {
            wait_timeout_or_recover(&self.cond, state, wait)
        } else {
            state
        };
        let bytes = state.events.get(from..).unwrap_or_default().to_string();
        (bytes, state.events_done)
    }

    /// Blocks until the job leaves `Running` (test/smoke convenience).
    pub fn wait_done(&self) {
        let mut state = lock_or_recover(&self.state);
        while state.status == JobStatus::Running {
            state = wait_or_recover(&self.cond, state);
        }
    }

    /// Appends one event line. Readers are woken at level ends only, not
    /// per event: a reader woken per event sends one chunk per event while
    /// it keeps up and batches once it falls behind, so a job's wake-ups,
    /// writes and context switches would depend on thread scheduling.
    fn push_event(&self, line: &str, level_completed: bool) {
        let mut state = lock_or_recover(&self.state);
        let log = Arc::make_mut(&mut state.events);
        log.push_str(line);
        log.push('\n');
        state.n_events += 1;
        if level_completed {
            state.levels_completed += 1;
            self.cond.notify_all();
        }
    }

    fn finish(&self, result_json: Arc<String>, stats_json: Arc<String>) {
        let mut state = lock_or_recover(&self.state);
        state.status = JobStatus::Done;
        state.result_json = Some(result_json);
        state.stats_json = Some(stats_json);
        state.events_done = true;
        self.cond.notify_all();
    }

    fn adopt_cached(&self, run: &CachedRun) {
        let mut state = lock_or_recover(&self.state);
        state.status = JobStatus::Done;
        state.events = run.events.clone();
        state.n_events = run.n_events;
        state.events_done = true;
        state.levels_completed = run.levels_completed;
        state.result_json = Some(run.result_json.clone());
        state.stats_json = Some(run.stats_json.clone());
        self.cond.notify_all();
    }

    fn fail(&self, message: String) {
        let mut state = lock_or_recover(&self.state);
        state.status = JobStatus::Failed;
        state.error = Some(message);
        state.events_done = true;
        self.cond.notify_all();
    }
}

/// How many job traces are retained, independently of
/// [`MAX_RETAINED_JOBS`] — a serialized trace is the largest per-job
/// payload, so its bound is much tighter.
pub const MAX_RETAINED_TRACES: usize = 64;

/// Bounded per-job trace retention: serialized Chrome-trace documents
/// keyed by job id, evicted oldest-first past [`MAX_RETAINED_TRACES`] —
/// the same FIFO discipline as the [`ResultCache`].
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<TraceStoreInner>,
}

#[derive(Debug, Default)]
struct TraceStoreInner {
    map: HashMap<u64, Arc<String>>,
    /// Insertion order (job ids), the FIFO eviction queue.
    order: VecDeque<u64>,
}

impl TraceStore {
    /// Stores one finished job's serialized trace, evicting the oldest
    /// stored trace beyond the retention bound.
    pub fn store(&self, job_id: u64, trace: Arc<String>) {
        let mut inner = lock_or_recover(&self.inner);
        if inner.map.insert(job_id, trace).is_none() {
            inner.order.push_back(job_id);
        }
        while inner.map.len() > MAX_RETAINED_TRACES {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
    }

    /// The stored trace for a job, if still retained.
    pub fn get(&self, job_id: u64) -> Option<Arc<String>> {
        lock_or_recover(&self.inner).map.get(&job_id).cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).map.len()
    }

    /// `true` when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Owns all jobs, their runner threads, and the result cache.
#[derive(Debug)]
pub struct JobManager {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    max_jobs: usize,
    /// The shared result cache.
    pub cache: Arc<ResultCache>,
    /// Bounded retention of per-job traces (`GET /jobs/{id}/trace`).
    pub traces: Arc<TraceStore>,
    executed: AtomicU64,
    rejected: AtomicU64,
    metrics: Option<Arc<ServeMetrics>>,
}

impl JobManager {
    /// A manager allowing at most `max_jobs` concurrently running jobs.
    pub fn new(max_jobs: usize) -> JobManager {
        JobManager {
            jobs: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            max_jobs: max_jobs.max(1),
            cache: Arc::new(ResultCache::new()),
            traces: Arc::new(TraceStore::default()),
            executed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Attaches the server's metric surface: runner threads then record
    /// per-dataset job latencies and feed per-dataset discovery sinks.
    pub fn with_metrics(mut self, metrics: Arc<ServeMetrics>) -> JobManager {
        self.metrics = Some(metrics);
        self
    }

    /// Jobs that actually ran a discovery session (cache hits excluded) —
    /// the counter the "no recomputation" acceptance check reads.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Total jobs submitted (cache hits included).
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) - 1
    }

    /// Jobs rejected at admission because `max_jobs` sessions were already
    /// running (the 429 path).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs currently in the `Running` state.
    pub fn running(&self) -> u64 {
        lock_or_recover(&self.jobs)
            .values()
            .filter(|j| j.status() == JobStatus::Running)
            .count() as u64
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        lock_or_recover(&self.jobs).get(&id).cloned()
    }

    /// Submits a job: serves it from the cache when possible, otherwise
    /// spawns a runner thread. `Err` carries an HTTP status + message.
    pub fn submit(&self, dataset: Arc<Dataset>, spec: JobSpec) -> Result<Arc<Job>, (u16, String)> {
        let canonical = spec.canonical();
        let key = (dataset.name.clone(), dataset.fingerprint, canonical.clone());
        if let Some(cached) = self.cache.lookup(&key) {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let job = Arc::new(Job::new(id, &dataset.name, canonical, true));
            job.adopt_cached(&cached);
            let mut map = lock_or_recover(&self.jobs);
            map.insert(id, job.clone());
            evict_completed(&mut map);
            return Ok(job);
        }
        // Capacity check and insert under one critical section, so two
        // concurrent submits cannot both slip under the limit.
        let job = {
            let mut map = lock_or_recover(&self.jobs);
            let running = map
                .values()
                .filter(|j| j.status() == JobStatus::Running)
                .count();
            if running >= self.max_jobs {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err((
                    429,
                    format!("at capacity: {} jobs already running", self.max_jobs),
                ));
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let job = Arc::new(Job::new(id, &dataset.name, canonical, false));
            map.insert(id, job.clone());
            evict_completed(&mut map);
            job
        };
        self.executed.fetch_add(1, Ordering::Relaxed);

        let cache = self.cache.clone();
        let traces = self.traces.clone();
        let metrics = self.metrics.clone();
        let runner_job = job.clone();
        let handle = std::thread::Builder::new()
            .name(format!("aod-job-{}", job.id))
            .spawn(move || run_job(runner_job, dataset, spec, key, cache, traces, metrics));
        let handle = match handle {
            Ok(handle) => handle,
            Err(e) => {
                // Undo the reservation: a job that never got a thread must
                // not sit in the map as eternally "running".
                lock_or_recover(&self.jobs).remove(&job.id);
                return Err((500, format!("spawning job thread: {e}")));
            }
        };
        // Reap finished runner threads so the handle list (and their OS
        // resources) doesn't grow for the lifetime of a resident server.
        let mut handles = lock_or_recover(&self.handles);
        let mut i = 0;
        while i < handles.len() {
            // aod-lint: allow(P1) -- i < handles.len() by the loop guard
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        handles.push(handle);
        Ok(job)
    }

    /// Cancels every running job and joins all runner threads.
    pub fn shutdown(&self) {
        for job in lock_or_recover(&self.jobs).values() {
            if job.status() == JobStatus::Running {
                job.cancel();
            }
        }
        let handles: Vec<_> = std::mem::take(&mut *lock_or_recover(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// How many jobs (running + completed, with their event logs) are kept
/// for later polling/replay. Oldest *completed* jobs are evicted beyond
/// this — a resident server must not grow without bound.
pub const MAX_RETAINED_JOBS: usize = 1024;

/// Drops the oldest completed jobs once the map exceeds
/// [`MAX_RETAINED_JOBS`]; running jobs are never evicted.
fn evict_completed(map: &mut HashMap<u64, Arc<Job>>) {
    if map.len() <= MAX_RETAINED_JOBS {
        return;
    }
    let mut done: Vec<u64> = map
        .iter()
        .filter(|(_, job)| job.status() != JobStatus::Running)
        .map(|(&id, _)| id)
        .collect();
    done.sort_unstable();
    let excess = map.len() - MAX_RETAINED_JOBS;
    for id in done.into_iter().take(excess) {
        map.remove(&id);
    }
}

/// The runner-thread body: stream the session, log events, finish the job,
/// feed the cache.
fn run_job(
    job: Arc<Job>,
    dataset: Arc<Dataset>,
    spec: JobSpec,
    key: crate::cache::CacheKey,
    cache: Arc<ResultCache>,
    traces: Arc<TraceStore>,
    metrics: Option<Arc<ServeMetrics>>,
) {
    let started_us = metrics.as_ref().map(|m| m.now_us());
    let trace_sink = spec.trace.then(|| {
        // Traces share the metrics clock, so an injected manual clock
        // drives both surfaces (and makes trace bytes reproducible).
        let clock = metrics
            .as_ref()
            .map_or_else(|| Arc::new(MonotonicClock::new()) as _, |m| m.clock());
        Arc::new(TraceSink::new(clock))
    });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let delay = Duration::from_millis(spec.level_delay_ms);
        let cancel = job.cancel.clone();
        let mut builder = spec.to_builder(cancel.clone());
        if let Some(m) = &metrics {
            // Per-dataset discovery instruments; the sink is passive, so
            // the job's event stream and results stay bit-identical.
            builder = builder
                .event_sink(m.discovery_sink(&dataset.name))
                .queue_depth_gauge(m.queue_depth_gauge(&dataset.name));
        }
        if let Some(sink) = &trace_sink {
            builder = builder.trace_sink(Arc::clone(sink));
        }
        let mut session = builder.build(&dataset.table);
        for event in session.by_ref() {
            let level_completed = matches!(event, DiscoveryEvent::LevelComplete(_));
            job.push_event(&event.to_json(), level_completed);
            if level_completed && !delay.is_zero() {
                // Pace between levels, staying responsive to cancellation.
                let mut slept = Duration::ZERO;
                while slept < delay && !cancel.is_cancelled() {
                    let slice = (delay - slept).min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        }
        session.into_result()
    }));
    match outcome {
        Ok(result) => {
            let complete = !result.is_partial();
            let result_json = Arc::new(result.to_json());
            let stats_json = Arc::new(result.stats.to_json());
            if complete {
                // Share (not copy) the job's own log and payloads: cached
                // replays and the finished job point at the same bytes.
                // The runner appends no more, so the log is shrunk to fit
                // here, while it still has one owner (once the cache holds
                // a clone, `Arc::make_mut` would copy instead).
                let (events, n_events, levels_completed) = {
                    let mut state = lock_or_recover(&job.state);
                    Arc::make_mut(&mut state.events).shrink_to_fit();
                    (state.events.clone(), state.n_events, state.levels_completed)
                };
                cache.store(
                    key,
                    CachedRun {
                        events,
                        n_events,
                        result_json: result_json.clone(),
                        stats_json: stats_json.clone(),
                        levels_completed,
                    },
                );
            }
            if let Some(sink) = &trace_sink {
                // Deterministic lane only — worker-lane spans are
                // scheduling-dependent and excluded from served bytes.
                // Stored before the status flips to Done, so a job
                // observed as done always has its trace servable.
                let chrome = aod_core::chrome_trace(&sink.spans());
                traces.store(job.id, Arc::new(chrome));
            }
            job.finish(result_json, stats_json);
            if let (Some(m), Some(started)) = (&metrics, started_us) {
                m.observe_job(&dataset.name, started);
            }
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "discovery session panicked".to_string());
            job.fail(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn employee_dataset() -> Arc<Dataset> {
        let registry = Registry::new();
        registry
            .register_generated("emp", "employee", 0, 0)
            .unwrap()
    }

    fn parse_spec(text: &str, dataset: &Dataset) -> Result<JobSpec, String> {
        JobSpec::parse(&JsonValue::parse(text).unwrap(), dataset)
    }

    #[test]
    fn spec_parses_and_canonicalizes() {
        let d = employee_dataset();
        let spec = parse_spec(r#"{"epsilon":0.15,"threads":2}"#, &d).unwrap();
        assert_eq!(
            spec.canonical(),
            "{\"mode\":\"approximate\",\"epsilon\":0.15,\"strategy\":\"optimal\",\
             \"sample_stride\":null,\
             \"max_level\":null,\"timeout_ms\":null,\"top_k\":null,\"threads\":2,\
             \"columns\":null,\"level_delay_ms\":0,\"trace\":false}"
        );
        // Key order and equivalent spellings don't change the canonical form.
        let same = parse_spec(
            r#"{"threads":2,"strategy":"optimal","mode":"approximate","epsilon":0.15}"#,
            &d,
        )
        .unwrap();
        assert_eq!(spec.canonical(), same.canonical());
        let exact = parse_spec("{}", &d).unwrap();
        assert!(exact.canonical().contains("\"mode\":\"exact\""));
    }

    #[test]
    fn spec_resolves_columns_to_sorted_indices() {
        let d = employee_dataset();
        let by_name = parse_spec(r#"{"columns":["sal","pos","bonus"]}"#, &d).unwrap();
        let by_index = parse_spec(r#"{"columns":[6,0,2]}"#, &d).unwrap();
        assert_eq!(by_name.canonical(), by_index.canonical());
        assert!(by_name.canonical().contains("\"columns\":[0,2,6]"));
    }

    #[test]
    fn spec_rejects_bad_configs() {
        let d = employee_dataset();
        for bad in [
            r#"{"frobnicate":1}"#,
            r#"{"epsilon":1.5}"#,
            r#"{"epsilon":-0.5}"#,
            r#"{"epsilon":"high"}"#,
            r#"{"mode":"exact","epsilon":0.1}"#,
            r#"{"mode":"sorta"}"#,
            r#"{"strategy":"fast"}"#,
            r#"{"mode":"exact","strategy":"optimal"}"#,
            r#"{"mode":"exact","strategy":"hybrid"}"#,
            r#"{"epsilon":0.1,"strategy":"hybrid","sample_stride":0}"#,
            r#"{"epsilon":0.1,"strategy":"hybrid","sample_stride":5000}"#,
            r#"{"epsilon":0.1,"strategy":"optimal","sample_stride":8}"#,
            r#"{"epsilon":0.1,"sample_stride":8}"#,
            r#"{"epsilon":0.1,"strategy":"hybrid","sample_stride":-4}"#,
            r#"{"max_level":0}"#,
            r#"{"columns":[]}"#,
            r#"{"columns":["nope"]}"#,
            r#"{"columns":[99]}"#,
            r#"{"columns":[true]}"#,
            r#"{"top_k":-1}"#,
            r#"{"level_delay_ms":600000}"#,
            r#"{"threads":300}"#,
            r#"{"trace":1}"#,
            r#"{"trace":"yes"}"#,
        ] {
            assert!(parse_spec(bad, &d).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn hybrid_specs_canonicalize_with_their_stride() {
        let d = employee_dataset();
        let spec = parse_spec(r#"{"epsilon":0.1,"strategy":"hybrid"}"#, &d).unwrap();
        assert!(
            spec.canonical()
                .contains("\"strategy\":\"hybrid\",\"sample_stride\":8"),
            "{}",
            spec.canonical()
        );
        let wide = parse_spec(
            r#"{"epsilon":0.1,"strategy":"hybrid","sample_stride":16}"#,
            &d,
        )
        .unwrap();
        assert!(
            wide.canonical().contains("\"sample_stride\":16"),
            "{}",
            wide.canonical()
        );
        // The stride is part of the cache key: hybrid-at-8, hybrid-at-16
        // and optimal all canonicalize differently even though their
        // results are identical.
        let optimal = parse_spec(r#"{"epsilon":0.1,"strategy":"optimal"}"#, &d).unwrap();
        assert_ne!(spec.canonical(), wide.canonical());
        assert_ne!(spec.canonical(), optimal.canonical());
    }

    #[test]
    fn hybrid_jobs_serve_the_same_dependencies_as_optimal() {
        let d = employee_dataset();
        let manager = JobManager::new(2);
        let optimal = manager
            .submit(
                d.clone(),
                parse_spec(r#"{"epsilon":0.15,"strategy":"optimal"}"#, &d).unwrap(),
            )
            .unwrap();
        let hybrid = manager
            .submit(
                d.clone(),
                parse_spec(
                    r#"{"epsilon":0.15,"strategy":"hybrid","sample_stride":4}"#,
                    &d,
                )
                .unwrap(),
            )
            .unwrap();
        optimal.wait_done();
        hybrid.wait_done();
        assert_eq!(optimal.status(), JobStatus::Done);
        assert_eq!(hybrid.status(), JobStatus::Done);
        // No cache crosstalk: both executed.
        assert_eq!(manager.executed(), 2);
        // Identical dependency payloads (the wire `ocs`/`ofds` arrays);
        // stats may differ in timings and sampling counters.
        let deps = |job: &Job| {
            let v = JsonValue::parse(&job.result_json().unwrap()).unwrap();
            (
                v.get("ocs").unwrap().to_json(),
                v.get("ofds").unwrap().to_json(),
            )
        };
        assert_eq!(deps(&optimal), deps(&hybrid));
        manager.shutdown();
    }

    #[test]
    fn jobs_run_to_done_and_cache() {
        let d = employee_dataset();
        let manager = JobManager::new(2);
        let spec = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        let job = manager.submit(d.clone(), spec.clone()).unwrap();
        job.wait_done();
        assert_eq!(job.status(), JobStatus::Done);
        assert!(!job.cached);
        let result = job.result_json().unwrap();
        assert!(result.contains("\"ocs\""));
        assert_eq!(manager.executed(), 1);

        // Identical resubmission: cache hit, no new execution, same bytes.
        let again = manager.submit(d.clone(), spec).unwrap();
        assert_eq!(again.status(), JobStatus::Done);
        assert!(again.cached);
        assert_eq!(manager.executed(), 1);
        assert_eq!(manager.cache.hits(), 1);
        assert_eq!(*again.result_json().unwrap(), *result);
        assert_eq!(manager.submitted(), 2);
        manager.shutdown();
    }

    #[test]
    fn readers_are_woken_at_level_ends_not_per_event() {
        let job = Job::new(1, "emp", String::new(), false);
        job.push_event("a", false);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| loop {
                // Empty means a timeout or a spurious wake-up: wait again.
                let (bytes, _) = job.events_after(2, Duration::from_secs(30));
                if !bytes.is_empty() {
                    return bytes;
                }
            });
            std::thread::sleep(Duration::from_millis(200));
            job.push_event("b", false);
            std::thread::sleep(Duration::from_millis(200));
            job.push_event("c", true);
            assert_eq!(reader.join().unwrap(), "b\nc\n");
        });
        // What was logged is there for a reader that looks without waiting.
        job.push_event("d", false);
        assert_eq!(job.events_after(6, Duration::ZERO).0, "d\n");
    }

    #[test]
    fn event_log_is_byte_addressed_and_shared_with_the_cache() {
        let d = employee_dataset();
        let manager = JobManager::new(2);
        let spec = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        let job = manager.submit(d.clone(), spec.clone()).unwrap();
        job.wait_done();
        let (log, done) = job.events_after(0, Duration::ZERO);
        assert!(done);
        let n_events = lock_or_recover(&job.state).n_events;
        assert_eq!(log.lines().count(), n_events);
        assert!(log.ends_with('\n'));
        // The cursor is a byte offset: from the end of the first line on,
        // the rest of the log.
        let first_end = log.find('\n').unwrap() + 1;
        let (rest, _) = job.events_after(first_end, Duration::ZERO);
        assert_eq!(rest, log[first_end..]);
        assert_eq!(job.events_after(log.len(), Duration::ZERO).0, "");

        // The cache holds the job's own log, shrunk to fit, and a hit
        // shares it too.
        let hit = manager.submit(d.clone(), spec).unwrap();
        let key = (d.name.clone(), d.fingerprint, job.config.clone());
        let cached = manager.cache.lookup(&key).unwrap();
        let own = lock_or_recover(&job.state).events.clone();
        assert!(Arc::ptr_eq(&own, &cached.events));
        assert!(Arc::ptr_eq(&lock_or_recover(&hit.state).events, &own));
        assert_eq!(own.capacity(), own.len());
        assert_eq!(cached.n_events, n_events);
        assert_eq!(lock_or_recover(&hit.state).n_events, n_events);
        manager.shutdown();
    }

    #[test]
    fn cancel_mid_run_yields_partial_results() {
        let d = employee_dataset();
        let manager = JobManager::new(2);
        let spec = parse_spec(r#"{"epsilon":0.1,"level_delay_ms":500}"#, &d).unwrap();
        let job = manager.submit(d.clone(), spec).unwrap();
        // Wait for the first level_complete, then cancel during the pause.
        let (first, _) = job.events_after(0, Duration::from_secs(30));
        assert!(!first.is_empty());
        job.cancel();
        job.wait_done();
        assert_eq!(job.status(), JobStatus::Done);
        let result = JsonValue::parse(&job.result_json().unwrap()).unwrap();
        let stats = result.get("stats").unwrap();
        assert_eq!(stats.get("stopped_early").unwrap().as_bool(), Some(true));
        // Partial runs must not poison the cache.
        assert!(manager.cache.is_empty());
        manager.shutdown();
    }

    #[test]
    fn completed_jobs_are_evicted_beyond_the_retention_cap() {
        let d = employee_dataset();
        let manager = JobManager::new(2);
        let spec = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        // One real run to warm the cache, then a flood of cache-hit jobs.
        manager.submit(d.clone(), spec.clone()).unwrap().wait_done();
        for _ in 0..(MAX_RETAINED_JOBS + 40) {
            manager.submit(d.clone(), spec.clone()).unwrap();
        }
        let retained = manager.jobs.lock().unwrap().len();
        assert!(
            retained <= MAX_RETAINED_JOBS,
            "{retained} jobs retained (cap {MAX_RETAINED_JOBS})"
        );
        // The earliest jobs were the ones evicted.
        assert!(manager.get(1).is_none());
        assert!(manager.get((MAX_RETAINED_JOBS + 41) as u64).is_some());
        manager.shutdown();
    }

    #[test]
    fn traced_jobs_store_a_bounded_chrome_trace() {
        let d = employee_dataset();
        let manager = JobManager::new(2);
        let traced = parse_spec(r#"{"epsilon":0.15,"trace":true}"#, &d).unwrap();
        let plain = parse_spec(r#"{"epsilon":0.15}"#, &d).unwrap();
        // Tracing is part of the canonical form: distinct cache entries.
        assert_ne!(traced.canonical(), plain.canonical());

        let job = manager.submit(d.clone(), traced.clone()).unwrap();
        job.wait_done();
        assert_eq!(job.status(), JobStatus::Done);
        let trace = manager.traces.get(job.id).expect("trace stored");
        let doc = JsonValue::parse(&trace).expect("trace parses");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // An untraced job stores nothing.
        let bare = manager.submit(d.clone(), plain).unwrap();
        bare.wait_done();
        assert!(manager.traces.get(bare.id).is_none());
        // A second identical traced submission adopts the cached run —
        // no re-execution, and no trace of its own.
        let adopted = manager.submit(d.clone(), traced).unwrap();
        assert!(adopted.cached);
        assert!(manager.traces.get(adopted.id).is_none());
        manager.shutdown();
    }

    #[test]
    fn trace_store_evicts_oldest_beyond_the_cap() {
        let store = TraceStore::default();
        for id in 0..(MAX_RETAINED_TRACES as u64 + 10) {
            store.store(id, Arc::new(format!("trace-{id}")));
        }
        assert_eq!(store.len(), MAX_RETAINED_TRACES);
        assert!(store.get(0).is_none(), "oldest evicted");
        assert!(store.get(9).is_none());
        assert!(store.get(10).is_some());
        assert!(store.get(MAX_RETAINED_TRACES as u64 + 9).is_some());
    }

    #[test]
    fn capacity_is_enforced() {
        let d = employee_dataset();
        let manager = JobManager::new(1);
        let slow = parse_spec(r#"{"epsilon":0.1,"level_delay_ms":2000}"#, &d).unwrap();
        let job = manager.submit(d.clone(), slow.clone()).unwrap();
        let err = manager
            .submit(d.clone(), parse_spec(r#"{"epsilon":0.2}"#, &d).unwrap())
            .unwrap_err();
        assert_eq!(err.0, 429);
        job.cancel();
        job.wait_done();
        manager.shutdown();
    }
}
