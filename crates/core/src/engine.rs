//! The streaming level-wise discovery engine (Section 3.1, Figure 1).
//!
//! [`DiscoverySession`] runs the paper's set-based lattice traversal
//! **level by level**: every [`step`](DiscoverySession::step) processes one
//! lattice level (validating the level's OFD and OC candidates, applying
//! pruning rules R2–R4) and then advances the frontier. Callers observe
//! progress through a stream of [`DiscoveryEvent`]s — the session itself is
//! an `Iterator<Item = DiscoveryEvent>` — can stop early through a shared
//! [`CancelToken`], and can harvest well-formed partial results at any
//! point with [`result`](DiscoverySession::result).
//!
//! The per-candidate OC validation is delegated to a pluggable
//! [`OcValidatorBackend`], so the paper's exact scan, Algorithm 2,
//! Algorithm 1 and the hybrid sampling pre-check (adaptive, retuned at
//! each level barrier through
//! [`level_feedback`](OcValidatorBackend::level_feedback) from the
//! merged per-level sample counters) all run behind the same driver.
//!
//! Sessions are built with [`DiscoveryBuilder`](crate::DiscoveryBuilder);
//! the one-shot [`discover`](crate::discover) is a thin compat wrapper
//! that runs a session to completion.
//!
//! ## Threading and determinism contract
//!
//! With [`DiscoveryBuilder::parallelism`](crate::DiscoveryBuilder::parallelism)
//! `> 1` (or `0` = one worker per core) each lattice level's nodes are
//! validated concurrently on an [`aod_exec::Executor`]: the engine
//! freezes the partition cache into an `Arc`-shared read view, forks the
//! [`OcValidatorBackend`] once per worker, and lets the workers claim
//! nodes from work-stealing deques. Per-node results are then **merged at
//! the level barrier in node order**, replaying found-dependency
//! recordings, pruning facts and events exactly as the sequential driver
//! would have produced them. The guarantee: for every configuration the
//! event stream, the dependency lists (including `f64` factors and
//! coverage), and all order-insensitive statistics counters are
//! **bit-identical** across thread counts — only the `Duration` phase
//! timers (which sum per-worker CPU time) and
//! [`DiscoveryStats::threads_used`] differ. Early stops keep the same
//! shape: `top_k` truncates the merge at exactly the candidate the
//! sequential run would have stopped at, and cancellation/timeout drop a
//! suffix of nodes at the interruption point (their timing is inherently
//! racy in both modes).
//!
//! ```
//! use aod_core::{DiscoveryBuilder, DiscoveryEvent};
//! use aod_table::{employee_table, RankedTable};
//!
//! let ranked = RankedTable::from_table(&employee_table());
//! let mut session = DiscoveryBuilder::new().approximate(0.15).build(&ranked);
//! let mut found = 0;
//! for event in session.by_ref() {
//!     if let DiscoveryEvent::OcFound(dep) = event {
//!         found += 1;
//!         assert!(dep.factor <= 0.15);
//!     }
//! }
//! assert_eq!(session.into_result().n_ocs(), found);
//! ```

use crate::candidates::{oc_candidates, ofd_candidates};
use crate::config::{DiscoveryConfig, Mode};
use crate::dep::{OcDep, OfdDep};
use crate::frontier::{Frontier, Node};
use crate::parallel::{eval_node, stop_check, LevelCtx, NodeEval, NodeResult, OcEval};
use crate::prune_state::{PruneRule, PruneState};
use crate::result::DiscoveryResult;
use crate::sink::{EventSink, Phase};
use crate::stats::{DiscoveryStats, LevelStats};
use aod_exec::Executor;
use aod_obs::trace::{span_id, Span, TraceSink};
use aod_partition::{AttrSet, PartitionCache, MAX_ATTRS};
use aod_table::RankedTable;
use aod_validate::{min_removal_ofd, removal_budget, OcValidatorBackend, SampleVerdict};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable handle that cancels a running [`DiscoverySession`].
///
/// Cancellation is checked before every lattice node, so a cancelled
/// session stops within one node's worth of validation work and its
/// partial results stay well-formed (flagged via
/// [`DiscoveryStats::stopped_early`]).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from another thread or from
    /// inside the event loop consuming the session.
    pub fn cancel(&self) {
        self.inner.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }
}

/// Why a session stopped stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The lattice ran out of live nodes — the run is complete.
    Exhausted,
    /// The configured `max_level` was reached (complete up to that level).
    MaxLevel,
    /// The wall-clock budget was exceeded; results are partial.
    TimedOut,
    /// A [`CancelToken`] fired; results are partial.
    Cancelled,
    /// The `top_k` target was reached; results are partial.
    TopK,
}

/// What one [`DiscoverySession::step`] accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelOutcome {
    /// The lattice level this step processed.
    pub level: usize,
    /// Per-level counters for this level. `n_nodes` always reports the
    /// full frontier size; the candidate/prune/hit counters cover what
    /// was actually processed.
    pub stats: LevelStats,
    /// `false` when the level was interrupted mid-way (timeout, cancel,
    /// top-k) — the candidate/prune/hit counters then cover only the
    /// prefix of nodes processed before the interruption.
    pub completed: bool,
    /// Set when the session finished during or right after this level.
    pub stop: Option<StopReason>,
}

/// One observable increment of discovery progress.
///
/// Events stream in deterministic driver order, so replaying
/// `OcFound`/`OfdFound` events reconstructs exactly the dependency lists
/// of the final [`DiscoveryResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryEvent {
    /// A minimal valid (approximate) OC was found.
    OcFound(OcDep),
    /// A minimal valid (approximate) OFD was found.
    OfdFound(OfdDep),
    /// An OC candidate was skipped by a pruning rule.
    Pruned {
        /// Lattice level of the generating node.
        level: usize,
        /// The candidate's context set.
        context: AttrSet,
        /// First attribute of the pruned pair.
        a: usize,
        /// Second attribute of the pruned pair.
        b: usize,
        /// Which rule fired.
        rule: PruneRule,
    },
    /// A lattice level was fully processed.
    LevelComplete(LevelOutcome),
    /// The wall-clock budget expired mid-level.
    TimedOut {
        /// The level that was being processed.
        level: usize,
    },
    /// A [`CancelToken`] fired mid-run.
    Cancelled {
        /// The level that was being processed.
        level: usize,
    },
}

/// Options a [`DiscoveryBuilder`](crate::DiscoveryBuilder) resolves beyond
/// the plain [`DiscoveryConfig`].
pub(crate) struct SessionOptions {
    /// Columns to discover over (defaults to all).
    pub scope: AttrSet,
    /// Stop once this many OCs were found.
    pub top_k: Option<usize>,
    /// Shared cancellation handle.
    pub cancel: CancelToken,
    /// The OC validation backend.
    pub backend: Box<dyn OcValidatorBackend>,
    /// Whether events are buffered (one-shot runs disable this).
    pub record_events: bool,
    /// Observability tap; `None` keeps the hot path to a single branch.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Queue-depth gauge handed to the executor (parallel runs only).
    pub queue_gauge: Option<aod_obs::Gauge>,
    /// Span-trace sink; `None` keeps every tracing site to a single branch.
    pub trace: Option<Arc<TraceSink>>,
}

/// Per-node trace timings collected on the driving thread while a level
/// runs, then laid out as candidate-batch spans at the level barrier.
/// Entries exist only for **fully processed** nodes (an interruption cut
/// skips the cut node in both drivers), keeping the recorded spans
/// identical across thread counts.
struct NodeTrace {
    node: usize,
    ofd_us: u64,
    oc_us: u64,
    n_ofd: usize,
    n_oc: usize,
}

/// A resumable, observable discovery run over one table.
///
/// Created by [`DiscoveryBuilder::build`](crate::DiscoveryBuilder::build).
/// Drive it with [`step`](DiscoverySession::step) (one lattice level at a
/// time), or consume it as an iterator of [`DiscoveryEvent`]s — iteration
/// steps the engine lazily whenever the event buffer runs dry. Partial
/// results are available at any point and always satisfy the same
/// minimality invariants as a completed run's.
pub struct DiscoverySession<'t> {
    table: &'t RankedTable,
    config: DiscoveryConfig,
    scope: AttrSet,
    top_k: Option<usize>,
    cancel: CancelToken,
    backend: Box<dyn OcValidatorBackend>,
    budget: usize,
    coverage_denominator: f64,
    cache: PartitionCache,
    frontier: Frontier,
    prune: PruneState,
    /// `Some` when the resolved thread count exceeds 1 — per-level node
    /// validation and partition products then run on the executor.
    executor: Option<Executor>,
    stats: DiscoveryStats,
    ocs: Vec<OcDep>,
    ofds: Vec<OfdDep>,
    events: VecDeque<DiscoveryEvent>,
    record_events: bool,
    sink: Option<Arc<dyn EventSink>>,
    trace: Option<Arc<TraceSink>>,
    /// Trace-clock reading at session construction (job span start).
    trace_started_us: u64,
    /// Latest span end recorded so far; the job span must enclose it.
    trace_end_us: u64,
    /// Per-node timings of the level in flight (cleared each step).
    level_trace: Vec<NodeTrace>,
    start: Instant,
    finished: Option<StopReason>,
}

impl<'t> DiscoverySession<'t> {
    /// Builds a session at level 1, validating nothing yet.
    ///
    /// # Panics
    /// If the table has more than [`MAX_ATTRS`] columns, or the scope
    /// names a column the table doesn't have.
    pub(crate) fn new(
        table: &'t RankedTable,
        config: DiscoveryConfig,
        options: SessionOptions,
    ) -> DiscoverySession<'t> {
        let n_rows = table.n_rows();
        let n_attrs = table.n_cols();
        assert!(
            n_attrs <= MAX_ATTRS,
            "at most {MAX_ATTRS} attributes supported"
        );
        let scope = options.scope;
        assert!(
            scope.is_subset_of(AttrSet::full(n_attrs)),
            "scope contains column indices beyond the table's {n_attrs} columns"
        );
        let budget = match config.mode {
            Mode::Exact => 0,
            Mode::Approximate { epsilon, .. } => removal_budget(n_rows, epsilon),
        };
        let mut cache = PartitionCache::new();
        let frontier = Frontier::seed(table, scope, &mut cache);
        let mut exec = Executor::new(config.threads);
        if let Some(gauge) = options.queue_gauge {
            exec = exec.with_queue_gauge(gauge);
        }
        if let Some(trace) = &options.trace {
            exec = exec.with_trace(Arc::clone(trace));
        }
        let threads_used = exec.threads();
        let executor = (threads_used > 1).then_some(exec);
        let stats = DiscoveryStats {
            threads_used,
            ..DiscoveryStats::default()
        };
        DiscoverySession {
            table,
            config,
            scope,
            top_k: options.top_k,
            cancel: options.cancel,
            backend: options.backend,
            budget,
            coverage_denominator: n_rows.max(1) as f64,
            cache,
            frontier,
            prune: PruneState::new(n_attrs, n_rows),
            executor,
            stats,
            ocs: Vec::new(),
            ofds: Vec::new(),
            events: VecDeque::new(),
            record_events: options.record_events,
            trace_started_us: options.trace.as_ref().map_or(0, |t| t.now_us()),
            trace_end_us: 0,
            level_trace: Vec::new(),
            trace: options.trace,
            sink: options.sink,
            start: Instant::now(),
            finished: None,
        }
    }

    /// The lattice level the next [`step`](DiscoverySession::step) will
    /// process.
    pub fn level(&self) -> usize {
        self.frontier.level
    }

    /// `true` once the session will make no further progress.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Why the session finished, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.finished
    }

    /// A clone of the session's cancellation handle; cancel it (from any
    /// thread) to stop the run at the next node boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// OCs found so far (streaming view of the partial result).
    pub fn ocs_so_far(&self) -> &[OcDep] {
        &self.ocs
    }

    /// OFDs found so far.
    pub fn ofds_so_far(&self) -> &[OfdDep] {
        &self.ofds
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DiscoveryStats {
        &self.stats
    }

    /// Advances the engine by one lattice level.
    ///
    /// Returns `None` when the session is already finished (or finishes
    /// without processing a level, e.g. an exhausted frontier); otherwise
    /// the [`LevelOutcome`] of the processed level, whose `stop` field
    /// reports whether — and why — this was the last one.
    pub fn step(&mut self) -> Option<LevelOutcome> {
        if self.finished.is_some() {
            return None;
        }
        if self.frontier.is_empty() {
            self.finish(StopReason::Exhausted);
            self.record_job_trace();
            return None;
        }
        if self.top_k.is_some_and(|k| self.ocs.len() >= k) {
            self.finish(StopReason::TopK);
            self.record_job_trace();
            return None;
        }

        let level = self.frontier.level;
        let n_nodes = self.frontier.nodes.len();
        self.stats.level_mut(level).n_nodes = n_nodes;
        if let Some(sink) = &self.sink {
            sink.on_level_start(level, n_nodes);
        }
        let trace_level_start = self.trace.as_ref().map(|t| t.now_us());
        self.level_trace.clear();
        // Baseline for per-phase deltas: the cumulative phase timers grow
        // monotonically, so this level's share is (after − before).
        let phase_before = [
            self.stats.oc_validation,
            self.stats.ofd_validation,
            self.stats.partitioning,
        ];
        let stop = match self.executor.clone() {
            Some(exec) => self.process_level_parallel(level, &exec),
            None => self.process_level_sequential(level),
        };

        let mut outcome = LevelOutcome {
            level,
            stats: self.stats.level_mut(level).clone(),
            completed: stop.is_none(),
            stop: None,
        };

        let mut partition_trace_us = 0u64;
        match stop {
            Some(reason) => {
                match reason {
                    StopReason::TimedOut => self.emit(DiscoveryEvent::TimedOut { level }),
                    StopReason::Cancelled => self.emit(DiscoveryEvent::Cancelled { level }),
                    // A reached top-k target is not an interruption worth an
                    // event of its own: the outcome's `stop` field carries it.
                    _ => {}
                }
                self.finish(reason);
            }
            None => {
                // Level barrier: hand adaptive backends the level's merged
                // sample counters. Both drivers pass through here with
                // bit-identical counters, so the stride schedule — and
                // with it every later counter — is thread-count
                // independent (see the determinism contract above).
                let (hits, misses) = {
                    let ls = self.stats.level_mut(level);
                    (ls.n_sample_hits, ls.n_sample_misses)
                };
                self.backend.level_feedback(hits, misses);
                if self.config.max_level.is_some_and(|m| level >= m) {
                    self.finish(StopReason::MaxLevel);
                } else {
                    let trace_part_t0 = self.trace.as_ref().map(|t| t.now_us());
                    self.frontier.advance(
                        self.table,
                        &self.config.prune,
                        &self.prune,
                        self.scope,
                        &mut self.cache,
                        &mut self.stats,
                        self.executor.as_ref(),
                    );
                    if let (Some(trace), Some(t0)) = (&self.trace, trace_part_t0) {
                        partition_trace_us = trace.now_us().saturating_sub(t0);
                    }
                    if self.frontier.is_empty() {
                        self.finish(StopReason::Exhausted);
                    }
                }
            }
        }
        if let Some(sink) = &self.sink {
            let phase_after = [
                self.stats.oc_validation,
                self.stats.ofd_validation,
                self.stats.partitioning,
            ];
            for (phase, (after, before)) in Phase::ALL
                .into_iter()
                .zip(phase_after.into_iter().zip(phase_before))
            {
                sink.on_phase(
                    level,
                    phase,
                    after.saturating_sub(before).as_micros() as u64,
                );
            }
        }
        if let (Some(trace), Some(level_start)) = (self.trace.clone(), trace_level_start) {
            self.record_level_trace(&trace, level, level_start, n_nodes, partition_trace_us);
        }
        if self.finished.is_some() {
            // The session finished during this step (it was unfinished on
            // entry), so this records the root span exactly once.
            self.record_job_trace();
        }
        outcome.stop = self.finished;
        if outcome.completed {
            self.emit(DiscoveryEvent::LevelComplete(outcome.clone()));
        }
        self.stats.total = self.start.elapsed();
        Some(outcome)
    }

    /// The sequential per-level driver: validate every node's candidates
    /// in deterministic order, stopping at the first cancel/timeout/top-k
    /// trigger.
    fn process_level_sequential(&mut self, level: usize) -> Option<StopReason> {
        let mut stop: Option<StopReason> = None;
        'nodes: for idx in 0..self.frontier.nodes.len() {
            if self.cancel.is_cancelled() {
                stop = Some(StopReason::Cancelled);
                break;
            }
            if let Some(t) = self.config.timeout {
                if self.start.elapsed() > t {
                    stop = Some(StopReason::TimedOut);
                    break;
                }
            }
            let set = self.frontier.nodes[idx].set;
            let trace_t0 = self.trace.as_ref().map(|t| t.now_us());
            let (mut n_ofd, mut n_oc) = (0usize, 0usize);

            // --- OFD candidates: X\{A}: [] |-> A for A in X ∩ Cc+(X) ---
            for a in ofd_candidates(&self.frontier.nodes[idx]) {
                n_ofd += 1;
                if self.validate_ofd(level, set, a) {
                    // TANE pruning: Cc+(X) := (Cc+(X) ∩ X) \ {A}.
                    let node = &mut self.frontier.nodes[idx];
                    node.rhs = node.rhs.intersect(set).without(a);
                }
            }
            let trace_t1 = self.trace.as_ref().map(|t| t.now_us());

            // --- OC candidates: X\{A,B}: A ~ B for pairs {A,B} ⊆ X ---
            if level >= 2 {
                for cand in oc_candidates(set) {
                    n_oc += 1;
                    self.validate_oc(level, cand);
                    if self.top_k.is_some_and(|k| self.ocs.len() >= k) {
                        // The cut node gets no trace entry — the parallel
                        // merge cuts before its entry too, keeping the
                        // recorded spans thread-count identical.
                        stop = Some(StopReason::TopK);
                        break 'nodes;
                    }
                }
            }
            let trace_t2 = self.trace.as_ref().map(|t| t.now_us());

            // Record key-ness for R4 lookups and deadness checks.
            if self
                .cache
                .get(set)
                .expect("node partition is cached")
                .is_key()
            {
                self.prune.record_key(set);
            }

            if let (Some(t0), Some(t1), Some(t2)) = (trace_t0, trace_t1, trace_t2) {
                self.level_trace.push(NodeTrace {
                    node: idx,
                    ofd_us: t1.saturating_sub(t0),
                    oc_us: t2.saturating_sub(t1),
                    n_ofd,
                    n_oc,
                });
            }
        }
        stop
    }

    /// The parallel per-level driver: freeze the cache, fan the nodes out
    /// to forked backends on the executor, then merge the per-node
    /// verdicts in node order — bit-identical to the sequential path (see
    /// the module-level determinism contract).
    fn process_level_parallel(&mut self, level: usize, exec: &Executor) -> Option<StopReason> {
        let view = self.cache.freeze();
        let nodes: Vec<Node> = self.frontier.nodes.clone();
        let backends: Vec<Box<dyn OcValidatorBackend>> =
            (0..exec.threads()).map(|_| self.backend.fork()).collect();
        let lctx = LevelCtx {
            table: self.table,
            view: &view,
            prune: &self.prune,
            prune_cfg: self.config.prune,
            mode: self.config.mode,
            budget: self.budget,
            coverage_denominator: self.coverage_denominator,
            level,
            cancel: &self.cancel,
            timeout: self.config.timeout,
            start: self.start,
            clock: self.trace.as_ref().map(|t| t.clock().as_ref()),
        };
        let results = exec.par_map_with_state(backends, &nodes, |backend, _idx, node| {
            // Same per-node stop checks as the sequential driver; an
            // interrupted node (and, after the merge cut, everything
            // beyond it) counts as unprocessed.
            match stop_check(&lctx) {
                Some(reason) => NodeResult::Interrupted(reason),
                None => NodeResult::Done(eval_node(&lctx, node, backend.as_mut())),
            }
        });
        drop(view);
        self.merge_level(level, &nodes, results)
    }

    /// Replays per-node evaluations in node order: pushes found
    /// dependencies and events, applies TANE `Cc⁺` shrinking, records
    /// pruning facts, and enforces the top-k / interruption cut exactly
    /// where the sequential driver would have stopped.
    fn merge_level(
        &mut self,
        level: usize,
        nodes: &[Node],
        results: Vec<NodeResult>,
    ) -> Option<StopReason> {
        let mut stop: Option<StopReason> = None;
        'nodes: for (idx, result) in results.into_iter().enumerate() {
            let eval: NodeEval = match result {
                NodeResult::Interrupted(reason) => {
                    stop = Some(reason);
                    break;
                }
                NodeResult::Done(eval) => eval,
            };
            let set = nodes[idx].set;
            self.stats.ofd_validation += eval.ofd_time;
            self.stats.oc_validation += eval.oc_time;
            let node_trace = self.trace.is_some().then_some(NodeTrace {
                node: idx,
                ofd_us: eval.ofd_clock_us,
                oc_us: eval.oc_clock_us,
                n_ofd: eval.ofds.len(),
                n_oc: eval.ocs.len(),
            });

            for ofd in eval.ofds {
                self.stats.level_mut(level).n_ofd_candidates += 1;
                let Some(removed) = ofd.removed else { continue };
                self.stats.level_mut(level).n_ofd_found += 1;
                let ctx_set = set.without(ofd.a);
                let dep = OfdDep {
                    context: ctx_set,
                    rhs: ofd.a,
                    removed,
                    factor: removed as f64 / self.coverage_denominator,
                    level,
                    coverage: ofd.coverage,
                };
                if self.observing() {
                    self.emit(DiscoveryEvent::OfdFound(dep.clone()));
                }
                self.ofds.push(dep);
                self.prune.record_constant(ofd.a, ctx_set);
                // TANE pruning: Cc+(X) := (Cc+(X) ∩ X) \ {A}.
                let node = &mut self.frontier.nodes[idx];
                node.rhs = node.rhs.intersect(set).without(ofd.a);
            }

            for (cand, oc) in eval.ocs {
                match oc {
                    OcEval::Pruned(rule) => self.prune_event(level, cand, rule),
                    OcEval::Validated {
                        removed,
                        coverage,
                        sample,
                    } => {
                        self.stats.level_mut(level).n_oc_candidates += 1;
                        self.record_sample(level, sample);
                        let Some(removed) = removed else { continue };
                        self.stats.level_mut(level).n_oc_found += 1;
                        let dep = OcDep {
                            context: cand.context,
                            a: cand.a,
                            b: cand.b,
                            removed,
                            factor: removed as f64 / self.coverage_denominator,
                            level,
                            coverage,
                        };
                        if self.observing() {
                            self.emit(DiscoveryEvent::OcFound(dep.clone()));
                        }
                        self.ocs.push(dep);
                        self.prune.record_oc(cand.a, cand.b, cand.context);
                        if self.top_k.is_some_and(|k| self.ocs.len() >= k) {
                            stop = Some(StopReason::TopK);
                            break 'nodes;
                        }
                    }
                }
            }

            if eval.is_key {
                self.prune.record_key(set);
            }

            // Reached only for fully merged nodes: the top-k cut above
            // breaks first, mirroring the sequential driver's skipped
            // trace entry for the cut node.
            if let Some(entry) = node_trace {
                self.level_trace.push(entry);
            }
        }
        stop
    }

    /// Lays out this level's spans at the level barrier, from the
    /// [`NodeTrace`] entries both drivers collect identically.
    ///
    /// Layout is the *sequential attribution view*: phase spans sit
    /// end-to-end from the level start in [`Phase::ALL`] order, each
    /// phase's candidate-batch spans sit end-to-end within it, and every
    /// parent's end is pushed to `max(own bracket, children)` — so
    /// child-within-parent nesting holds by construction under any clock,
    /// even when parallel per-node CPU sums exceed the level's wall time.
    /// Recording order is parent-first and fully deterministic.
    fn record_level_trace(
        &mut self,
        trace: &TraceSink,
        level: usize,
        level_start: u64,
        n_nodes: usize,
        partition_us: u64,
    ) {
        let level_id = span_id::level(level);
        let mut phase_spans = Vec::new();
        let mut batch_spans = Vec::new();
        let mut cursor = level_start;
        for (phase_idx, phase) in Phase::ALL.into_iter().enumerate() {
            let phase_id = span_id::phase(level, phase_idx);
            let phase_start = cursor;
            let mut phase_us = 0u64;
            match phase {
                Phase::OcValidation | Phase::OfdValidation => {
                    let oc = matches!(phase, Phase::OcValidation);
                    for entry in &self.level_trace {
                        let (us, candidates) = if oc {
                            (entry.oc_us, entry.n_oc)
                        } else {
                            (entry.ofd_us, entry.n_ofd)
                        };
                        if candidates == 0 {
                            continue;
                        }
                        batch_spans.push(Span {
                            id: span_id::batch(level, entry.node, phase_idx),
                            parent: phase_id,
                            name: "candidates",
                            cat: "batch",
                            tid: 0,
                            start_us: phase_start + phase_us,
                            dur_us: us,
                            args: vec![
                                ("node", entry.node as u64),
                                ("candidates", candidates as u64),
                            ],
                        });
                        phase_us += us;
                    }
                }
                Phase::Partitioning => phase_us = partition_us,
            }
            phase_spans.push(Span {
                id: phase_id,
                parent: level_id,
                name: phase.name(),
                cat: "phase",
                tid: 0,
                start_us: phase_start,
                dur_us: phase_us,
                args: vec![("level", level as u64)],
            });
            cursor = phase_start + phase_us;
        }
        let end = trace.now_us().max(cursor);
        trace.record(Span {
            id: level_id,
            parent: span_id::JOB,
            name: "level",
            cat: "level",
            tid: 0,
            start_us: level_start,
            dur_us: end.saturating_sub(level_start),
            args: vec![("level", level as u64), ("nodes", n_nodes as u64)],
        });
        for span in phase_spans {
            trace.record(span);
        }
        for span in batch_spans {
            trace.record(span);
        }
        self.trace_end_us = self.trace_end_us.max(end);
    }

    /// Records the root job span once the session finishes; its end is
    /// pushed to enclose every recorded child.
    fn record_job_trace(&mut self) {
        let Some(trace) = &self.trace else { return };
        let end = trace.now_us().max(self.trace_end_us);
        trace.record(Span {
            id: span_id::JOB,
            parent: 0,
            name: "discover",
            cat: "job",
            tid: 0,
            start_us: self.trace_started_us,
            dur_us: end.saturating_sub(self.trace_started_us),
            args: vec![
                ("ocs", self.ocs.len() as u64),
                ("ofds", self.ofds.len() as u64),
            ],
        });
    }

    /// Validates one OFD candidate; returns `true` when it holds (the
    /// caller then applies TANE's `Cc⁺` shrinking).
    fn validate_ofd(&mut self, level: usize, set: AttrSet, a: usize) -> bool {
        let ctx_set = set.without(a);
        self.stats.level_mut(level).n_ofd_candidates += 1;
        let col = self.table.column(a);
        let t0 = Instant::now();
        let ctx = self.cache.get(ctx_set).expect("parent partition is cached");
        let removed = match self.config.mode {
            Mode::Exact => {
                // FD X\{A} -> A holds iff |Π_{X\{A}}| == |Π_X|
                // (class-count check; both partitions are cached).
                let node_part = self.cache.get(set).expect("node partition is cached");
                (ctx.n_classes_unstripped() == node_part.n_classes_unstripped()).then_some(0)
            }
            Mode::Approximate { .. } => {
                min_removal_ofd(ctx, col.ranks(), col.n_distinct(), self.budget)
            }
        };
        let coverage = ctx.n_grouped_rows() as f64 / self.coverage_denominator;
        self.stats.ofd_validation += t0.elapsed();
        let Some(removed) = removed else {
            return false;
        };
        self.stats.level_mut(level).n_ofd_found += 1;
        let dep = OfdDep {
            context: ctx_set,
            rhs: a,
            removed,
            factor: removed as f64 / self.coverage_denominator,
            level,
            coverage,
        };
        if self.observing() {
            self.emit(DiscoveryEvent::OfdFound(dep.clone()));
        }
        self.ofds.push(dep);
        self.prune.record_constant(a, ctx_set);
        true
    }

    /// Validates (or prunes) one OC candidate.
    fn validate_oc(&mut self, level: usize, cand: crate::candidates::OcCandidate) {
        let (a, b, ctx_set) = (cand.a, cand.b, cand.context);
        // R2: implied by an OC found in a sub-context.
        if self.config.prune.r2_context_implication && self.prune.oc_implied(a, b, ctx_set) {
            self.prune_event(level, cand, PruneRule::ContextImplication);
            return;
        }
        // R3: implied by a constant attribute.
        if self.config.prune.r3_constancy_implication && self.prune.constancy_implied(a, b, ctx_set)
        {
            self.prune_event(level, cand, PruneRule::ConstancyImplication);
            return;
        }
        let ctx = self
            .cache
            .get(ctx_set)
            .expect("context partition is cached");
        // R4: keyed context — trivially holds.
        if self.config.prune.r4_key_pruning && ctx.is_key() {
            self.prune_event(level, cand, PruneRule::KeyPruning);
            return;
        }
        self.stats.level_mut(level).n_oc_candidates += 1;
        let (ar, br) = (self.table.column(a).ranks(), self.table.column(b).ranks());
        let t0 = Instant::now();
        let removed = self.backend.min_removal(ctx, ar, br, self.budget);
        let coverage = ctx.n_grouped_rows() as f64 / self.coverage_denominator;
        self.stats.oc_validation += t0.elapsed();
        let sample = self.backend.last_sample();
        self.record_sample(level, sample);
        let Some(removed) = removed else {
            return;
        };
        self.stats.level_mut(level).n_oc_found += 1;
        let dep = OcDep {
            context: ctx_set,
            a,
            b,
            removed,
            factor: removed as f64 / self.coverage_denominator,
            level,
            coverage,
        };
        if self.observing() {
            self.emit(DiscoveryEvent::OcFound(dep.clone()));
        }
        self.ocs.push(dep);
        self.prune.record_oc(a, b, ctx_set);
    }

    /// Bumps the level's sampling hit/miss counters from one candidate's
    /// pre-check verdict (no-op for backends without a sampling pre-check).
    fn record_sample(&mut self, level: usize, sample: Option<SampleVerdict>) {
        match sample {
            Some(SampleVerdict::ProvenInvalid) => self.stats.level_mut(level).n_sample_hits += 1,
            Some(SampleVerdict::NeedFullValidation) => {
                self.stats.level_mut(level).n_sample_misses += 1;
            }
            None => {}
        }
    }

    fn prune_event(&mut self, level: usize, cand: crate::candidates::OcCandidate, rule: PruneRule) {
        self.stats.level_mut(level).n_oc_pruned += 1;
        self.emit(DiscoveryEvent::Pruned {
            level,
            context: cand.context,
            a: cand.a,
            b: cand.b,
            rule,
        });
    }

    fn emit(&mut self, event: DiscoveryEvent) {
        if let Some(sink) = &self.sink {
            sink.on_event(&event);
        }
        if self.record_events {
            self.events.push_back(event);
        }
    }

    /// `true` when building an event is worthwhile at all — the guard the
    /// found-dependency hot paths use before cloning a dep into `emit`.
    fn observing(&self) -> bool {
        self.record_events || self.sink.is_some()
    }

    fn finish(&mut self, reason: StopReason) {
        self.finished = Some(reason);
        match reason {
            StopReason::TimedOut => self.stats.timed_out = true,
            StopReason::Cancelled | StopReason::TopK => self.stats.stopped_early = true,
            StopReason::Exhausted | StopReason::MaxLevel => {}
        }
        self.stats.total = self.start.elapsed();
        if let Some(sink) = &self.sink {
            sink.on_finish(&self.stats);
        }
    }

    /// Runs the remaining levels to completion and returns the result.
    /// Buffered events are discarded (use the iterator to observe them).
    pub fn run(mut self) -> DiscoveryResult {
        while self.step().is_some() {
            self.events.clear();
        }
        self.into_result()
    }

    /// A snapshot of the (possibly partial) results found so far. The
    /// session can keep stepping afterwards.
    pub fn result(&self) -> DiscoveryResult {
        let mut stats = self.stats.clone();
        if self.finished.is_none() {
            stats.total = self.start.elapsed();
        }
        DiscoveryResult {
            ocs: self.ocs.clone(),
            ofds: self.ofds.clone(),
            stats,
            n_rows: self.table.n_rows(),
            n_attrs: self.table.n_cols(),
        }
    }

    /// Consumes the session, harvesting the (possibly partial) results
    /// without cloning the dependency lists.
    pub fn into_result(mut self) -> DiscoveryResult {
        if self.finished.is_none() {
            self.stats.total = self.start.elapsed();
        }
        DiscoveryResult {
            ocs: self.ocs,
            ofds: self.ofds,
            stats: self.stats,
            n_rows: self.table.n_rows(),
            n_attrs: self.table.n_cols(),
        }
    }
}

impl Iterator for DiscoverySession<'_> {
    type Item = DiscoveryEvent;

    /// Pops the next buffered event, stepping the engine while the buffer
    /// is empty. Returns `None` once the session finished and every event
    /// was drained — use `session.by_ref()` in a `for` loop to keep the
    /// session afterwards.
    fn next(&mut self) -> Option<DiscoveryEvent> {
        loop {
            if let Some(event) = self.events.pop_front() {
                return Some(event);
            }
            if self.finished.is_some() {
                return None;
            }
            self.step();
        }
    }
}

impl std::fmt::Debug for DiscoverySession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoverySession")
            .field("level", &self.frontier.level)
            .field("backend", &self.backend.name())
            .field("threads", &self.stats.threads_used)
            .field("n_ocs", &self.ocs.len())
            .field("n_ofds", &self.ofds.len())
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DiscoveryBuilder;
    use crate::engine::DiscoveryEvent;
    use crate::sink::{DiscoveryMetrics, EventSink, NoopSink, Phase};
    use aod_table::{employee_table, RankedTable};
    use std::sync::Arc;

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// The determinism contract on the smallest real workload: events,
    /// dependency lists and counters are bit-identical across thread
    /// counts (the cross-config sweep lives in
    /// `tests/parallel_determinism.rs`).
    #[test]
    fn parallel_sessions_match_sequential_bit_for_bit() {
        let t = employee();
        let build = |threads: usize| {
            DiscoveryBuilder::new()
                .approximate(0.15)
                .parallelism(threads)
                .build(&t)
        };
        let mut seq = build(1);
        let seq_events: Vec<DiscoveryEvent> = seq.by_ref().collect();
        let seq_result = seq.into_result();
        for threads in [2usize, 4] {
            let mut par = build(threads);
            let par_events: Vec<DiscoveryEvent> = par.by_ref().collect();
            assert_eq!(par_events, seq_events, "threads = {threads}");
            let par_result = par.into_result();
            assert_eq!(par_result.ocs, seq_result.ocs);
            assert_eq!(par_result.ofds, seq_result.ofds);
            assert_eq!(par_result.stats.per_level, seq_result.stats.per_level);
            assert_eq!(par_result.stats.threads_used, threads);
        }
        assert_eq!(seq_result.stats.threads_used, 1);
    }

    /// `parallelism(0)` resolves to the machine's available parallelism
    /// and still reproduces the sequential run.
    #[test]
    fn auto_parallelism_resolves_and_matches() {
        let t = employee();
        let auto = DiscoveryBuilder::new().exact().parallelism(0).run(&t);
        let seq = DiscoveryBuilder::new().exact().run(&t);
        assert!(auto.stats.threads_used >= 1);
        assert_eq!(auto.ocs, seq.ocs);
        assert_eq!(auto.ofds, seq.ofds);
    }

    /// The eviction invariant end-to-end: while the engine runs, the
    /// partition cache never holds a partition more than two levels below
    /// the frontier (peak residency = two completed levels + frontier),
    /// yet the level-`ℓ−2` context partitions the OC validator needs are
    /// always present.
    #[test]
    fn cache_residency_stays_within_two_levels_of_frontier() {
        let t = employee();
        for threads in [1usize, 4] {
            let mut session = DiscoveryBuilder::new()
                .approximate(0.1)
                .parallelism(threads)
                .record_events(false)
                .build(&t);
            while session.step().is_some() {
                let frontier_level = session.frontier.level;
                for set in session.cache.cached_sets() {
                    assert!(
                        set.len() + 2 >= frontier_level,
                        "level-{} partition resident at frontier level {frontier_level}",
                        set.len(),
                    );
                    assert!(set.len() <= frontier_level);
                }
                // The next level's OC contexts (ℓ−2) are already cached.
                if !session.frontier.is_empty() && frontier_level >= 2 {
                    for node in &session.frontier.nodes {
                        let attrs: Vec<usize> = node.set.iter().collect();
                        for (i, &a) in attrs.iter().enumerate() {
                            for &b in &attrs[i + 1..] {
                                let ctx = node.set.without(a).without(b);
                                assert!(
                                    session.cache.get(ctx).is_some(),
                                    "context {ctx} missing at level {frontier_level}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Attaching the no-op sink changes nothing: events, dependency lists
    /// and per-level counters stay bit-identical to a sink-less run, at
    /// every thread count.
    #[test]
    fn noop_sink_keeps_outputs_bit_identical() {
        let t = employee();
        for threads in [1usize, 2, 4] {
            let builder = || {
                DiscoveryBuilder::new()
                    .approximate(0.15)
                    .parallelism(threads)
            };
            let mut plain = builder().build(&t);
            let plain_events: Vec<DiscoveryEvent> = plain.by_ref().collect();
            let plain_result = plain.into_result();

            let mut observed = builder().event_sink(Arc::new(NoopSink)).build(&t);
            let observed_events: Vec<DiscoveryEvent> = observed.by_ref().collect();
            let observed_result = observed.into_result();

            assert_eq!(observed_events, plain_events, "threads = {threads}");
            assert_eq!(observed_result.ocs, plain_result.ocs);
            assert_eq!(observed_result.ofds, plain_result.ofds);
            assert_eq!(
                observed_result.stats.per_level,
                plain_result.stats.per_level
            );
        }
    }

    /// A recording sink sees exactly the event stream the iterator yields,
    /// in the same order — including on buffer-less (`record_events(false)`)
    /// runs, where the sink is the only observer.
    #[test]
    fn sink_sees_the_exact_event_stream() {
        #[derive(Default)]
        struct Recorder {
            events: std::sync::Mutex<Vec<DiscoveryEvent>>,
            levels: std::sync::Mutex<Vec<(usize, usize)>>,
            phases: std::sync::Mutex<Vec<(usize, Phase)>>,
            finishes: std::sync::atomic::AtomicUsize,
        }
        impl EventSink for Recorder {
            fn on_level_start(&self, level: usize, n_nodes: usize) {
                self.levels.lock().unwrap().push((level, n_nodes));
            }
            fn on_event(&self, event: &DiscoveryEvent) {
                self.events.lock().unwrap().push(event.clone());
            }
            fn on_phase(&self, level: usize, phase: Phase, _micros: u64) {
                self.phases.lock().unwrap().push((level, phase));
            }
            fn on_finish(&self, _stats: &crate::stats::DiscoveryStats) {
                self.finishes
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }

        let t = employee();
        let mut reference = DiscoveryBuilder::new().approximate(0.15).build(&t);
        let expected: Vec<DiscoveryEvent> = reference.by_ref().collect();

        let recorder = Arc::new(Recorder::default());
        let result = DiscoveryBuilder::new()
            .approximate(0.15)
            .event_sink(recorder.clone())
            .record_events(false)
            .build(&t)
            .run();

        assert_eq!(*recorder.events.lock().unwrap(), expected);
        let levels = recorder.levels.lock().unwrap();
        assert_eq!(levels.len(), result.stats.per_level.len());
        assert!(levels.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        // Three phase reports per processed level, grouped by level.
        assert_eq!(
            recorder.phases.lock().unwrap().len(),
            3 * result.stats.per_level.len()
        );
        assert_eq!(
            recorder.finishes.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    /// The standard metrics sink converges on exactly the deterministic
    /// totals of the final stats.
    #[test]
    fn discovery_metrics_match_final_stats() {
        let t = employee();
        let registry = aod_obs::Registry::new();
        let metrics = Arc::new(DiscoveryMetrics::new(&registry, &[]));
        let result = DiscoveryBuilder::new()
            .approximate(0.15)
            .parallelism(2)
            .event_sink(metrics.as_sink())
            .run(&t);

        let stats = &result.stats;
        assert_eq!(metrics.ocs_found().get(), stats.n_ocs() as u64);
        assert_eq!(metrics.ofds_found().get(), stats.n_ofds() as u64);
        let candidates: usize = stats.per_level.iter().map(|l| l.n_oc_candidates).sum();
        assert_eq!(metrics.oc_candidates().get(), candidates as u64);
        let pruned: usize = stats.per_level.iter().map(|l| l.n_oc_pruned).sum();
        assert_eq!(metrics.oc_pruned().get(), pruned as u64);
        assert_eq!(
            metrics.levels_completed().get(),
            stats.per_level.len() as u64
        );
        for phase in Phase::ALL {
            assert_eq!(
                metrics.phase(phase).count(),
                stats.per_level.len() as u64,
                "one observation per level for {}",
                phase.name()
            );
        }
    }

    /// `n_products` counts the partition products that materialized each
    /// level: zero for the seeded level 1, `n_nodes` of level ℓ for ℓ ≥ 2
    /// (every node is built by exactly one product), at every thread count.
    #[test]
    fn n_products_counts_materializing_products() {
        let t = employee();
        for threads in [1usize, 4] {
            let result = DiscoveryBuilder::new()
                .approximate(0.1)
                .parallelism(threads)
                .run(&t);
            let per_level = &result.stats.per_level;
            assert_eq!(per_level[0].n_products, 0, "level 1 is seeded");
            assert!(per_level.iter().skip(1).any(|l| l.n_products > 0));
            for l in per_level.iter().skip(1) {
                assert_eq!(l.n_products, l.n_nodes, "threads = {threads}");
            }
            assert_eq!(
                result.stats.n_partition_products(),
                per_level.iter().map(|l| l.n_products).sum::<usize>()
            );
        }
    }
}
