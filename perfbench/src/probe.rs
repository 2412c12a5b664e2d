//! Layer probes that observe a discovery run from outside the engine.
//!
//! * [`TimedBackend`] wraps the OC-validation backend the engine would have
//!   picked and hands it in through `DiscoveryBuilder::validator`. It times
//!   every `min_removal` call and delegates `fork`, `last_sample` and
//!   `level_feedback` unchanged, so verdicts — and therefore every output —
//!   are those of the wrapped backend.
//! * [`LevelRecorder`] is an `EventSink` recording level boundaries and the
//!   engine's per-phase timings.
//!
//! Both share a [`Probe`], which also collects a deterministic sample of
//! validated candidates for the kernel replay.

use crate::clock::Stopwatch;
use aod_core::{DiscoveryStats, EventSink, Phase};
use aod_partition::Partition;
use aod_table::RankedTable;
use aod_validate::{OcValidatorBackend, SampleVerdict};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;

/// One `min_removal` call as the wrapper saw it.
#[derive(Debug, Clone)]
pub struct Call {
    pub level: usize,
    pub thread: ThreadId,
    pub nanos: u64,
    /// `ctx.n_grouped_rows()`: rows the validator was offered.
    pub rows: usize,
    pub class_max: usize,
    pub valid: bool,
    pub sample: Option<SampleVerdict>,
}

/// A validated candidate kept for the kernel replay.
#[derive(Debug, Clone)]
pub struct ReplayCase {
    /// Selection key; the replay orders cases by it, so the replayed set
    /// and its order do not depend on worker scheduling.
    pub key: u64,
    pub ctx: Partition,
    pub a: usize,
    pub b: usize,
    /// The removal budget the engine passed (for the presample replay).
    pub limit: usize,
}

#[derive(Debug, Default)]
struct Collected {
    calls: Vec<Call>,
    replay: Vec<ReplayCase>,
    /// Each level with a stopwatch started at its start, and its wall
    /// time once the next level starts or the run finishes.
    levels: Vec<(usize, Stopwatch, Option<f64>)>,
    phase_us: [u64; 3],
    finished: bool,
}

/// State shared by every wrapper fork and the sink of one traced run.
#[derive(Debug)]
pub struct Probe {
    level: AtomicUsize,
    /// `None`: keep no replay sample.
    replay_every: Option<u64>,
    /// Start address of each column's rank slice, to name the columns a
    /// candidate compares (the backend API passes slices, not indices).
    columns: Vec<usize>,
    collected: Mutex<Collected>,
}

impl Probe {
    pub fn new(table: &RankedTable, replay_every: Option<u64>) -> Arc<Probe> {
        Arc::new(Probe {
            level: AtomicUsize::new(0),
            replay_every: replay_every.map(|n| n.max(1)),
            columns: (0..table.n_cols())
                .map(|c| table.column(c).ranks().as_ptr() as usize)
                .collect(),
            collected: Mutex::new(Collected::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Collected> {
        self.collected
            .lock()
            .expect("a probe lock holder panicked; the run is already lost")
    }

    fn column_of(&self, ranks: &[u32]) -> Option<usize> {
        let addr = ranks.as_ptr() as usize;
        self.columns.iter().position(|&c| c == addr)
    }

    /// Every call seen so far (all forks merge on drop).
    pub fn calls(&self) -> Vec<Call> {
        self.lock().calls.clone()
    }

    /// The replay sample, ordered by selection key.
    pub fn replay_cases(&self) -> Vec<ReplayCase> {
        let mut cases = self.lock().replay.clone();
        cases.sort_by_key(|c| (c.key, c.a, c.b));
        cases
    }

    /// Wall time of each completed level, in level order.
    pub fn level_walls_s(&self) -> Vec<(usize, f64)> {
        self.lock()
            .levels
            .iter()
            .filter_map(|&(level, _, wall)| wall.map(|w| (level, w)))
            .collect()
    }

    /// Engine-reported busy time of one phase, summed over levels.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        let idx = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("Phase::ALL lists every phase");
        self.lock().phase_us[idx] as f64 / 1e6
    }

    pub fn finished(&self) -> bool {
        self.lock().finished
    }

    /// The wrapper to hand to `DiscoveryBuilder::validator`.
    pub fn backend(
        self: &Arc<Self>,
        inner: Box<dyn OcValidatorBackend>,
    ) -> Box<dyn OcValidatorBackend> {
        Box::new(TimedBackend {
            inner,
            probe: Arc::clone(self),
            calls: Vec::new(),
            replay: Vec::new(),
        })
    }

    /// The recording sink to hand to `DiscoveryBuilder::event_sink`.
    pub fn sink(self: &Arc<Self>) -> Arc<dyn EventSink> {
        Arc::new(LevelRecorder {
            probe: Arc::clone(self),
        })
    }
}

/// Deterministic replay-selection key of a candidate: a hash of the two
/// columns and the context's shape, independent of call order.
fn case_key(a: usize, b: usize, ctx: &Partition) -> u64 {
    let mut h = crate::report::FNV_OFFSET;
    for v in [
        a as u64,
        b as u64,
        ctx.n_classes() as u64,
        ctx.n_grouped_rows() as u64,
        ctx.classes().next().map_or(0, |c| u64::from(c[0])),
    ] {
        h = crate::report::fnv1a(&v.to_le_bytes(), h);
    }
    h
}

/// Timing wrapper around the engine's OC-validation backend.
pub struct TimedBackend {
    inner: Box<dyn OcValidatorBackend>,
    probe: Arc<Probe>,
    calls: Vec<Call>,
    replay: Vec<ReplayCase>,
}

impl OcValidatorBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn min_removal(
        &mut self,
        ctx: &Partition,
        a_ranks: &[u32],
        b_ranks: &[u32],
        limit: usize,
    ) -> Option<usize> {
        let t0 = Stopwatch::start();
        let removed = self.inner.min_removal(ctx, a_ranks, b_ranks, limit);
        let nanos = t0.nanos();
        self.calls.push(Call {
            level: self.probe.level.load(Ordering::Relaxed),
            thread: std::thread::current().id(),
            nanos,
            rows: ctx.n_grouped_rows(),
            class_max: ctx.max_class_size(),
            valid: removed.is_some(),
            sample: self.inner.last_sample(),
        });
        let columns = (self.probe.column_of(a_ranks), self.probe.column_of(b_ranks));
        if let (Some(every), (Some(a), Some(b))) = (self.probe.replay_every, columns) {
            let key = case_key(a, b, ctx);
            if key.is_multiple_of(every) {
                self.replay.push(ReplayCase {
                    key,
                    ctx: ctx.clone(),
                    a,
                    b,
                    limit,
                });
            }
        }
        removed
    }

    fn fork(&self) -> Box<dyn OcValidatorBackend> {
        self.probe.backend(self.inner.fork())
    }

    fn last_sample(&self) -> Option<SampleVerdict> {
        self.inner.last_sample()
    }

    fn level_feedback(&mut self, hits: usize, misses: usize) {
        self.inner.level_feedback(hits, misses);
    }
}

impl Drop for TimedBackend {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock just loses this fork's data,
        // which the call-count consistency check then reports.
        if let Ok(mut c) = self.probe.collected.lock() {
            c.calls.append(&mut self.calls);
            c.replay.append(&mut self.replay);
        }
    }
}

/// Records level boundaries and per-phase engine timings.
pub struct LevelRecorder {
    probe: Arc<Probe>,
}

impl LevelRecorder {
    fn close_open_level(c: &mut Collected) {
        if let Some((_, start, wall)) = c.levels.last_mut() {
            wall.get_or_insert_with(|| start.secs());
        }
    }
}

impl EventSink for LevelRecorder {
    fn on_level_start(&self, level: usize, _n_nodes: usize) {
        self.probe.level.store(level, Ordering::Relaxed);
        if let Ok(mut c) = self.probe.collected.lock() {
            LevelRecorder::close_open_level(&mut c);
            c.levels.push((level, Stopwatch::start(), None));
        }
    }

    fn on_phase(&self, _level: usize, phase: Phase, micros: u64) {
        if let Ok(mut c) = self.probe.collected.lock() {
            if let Some(idx) = Phase::ALL.iter().position(|&p| p == phase) {
                c.phase_us[idx] += micros;
            }
        }
    }

    fn on_finish(&self, _stats: &DiscoveryStats) {
        if let Ok(mut c) = self.probe.collected.lock() {
            LevelRecorder::close_open_level(&mut c);
            c.finished = true;
        }
    }
}
