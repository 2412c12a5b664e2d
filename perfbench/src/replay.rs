//! Kernel replay: re-times a deterministic sample of the candidates a
//! traced run validated, through the public kernels one at a time.
//!
//! * `OcValidator::min_removal_optimal` with an unbounded limit — the whole
//!   Algorithm 2 pass (class gather, per-class sort, LNDS);
//! * `aod_lis::lnds_length_with` over the per-class sequences prepared
//!   here beforehand — the LNDS share alone;
//! * `aod_validate::presample` at the workload's stride, when the workload
//!   runs the hybrid strategy.
//!
//! Gather + sort is reported as the Algorithm 2 time minus the LNDS time.

use crate::clock::Stopwatch;
use crate::probe::ReplayCase;
use aod_table::RankedTable;
use aod_validate::{presample, OcValidator, SampleVerdict};
use std::hint::black_box;

/// Replay totals over the whole sample, in microseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    pub cases: usize,
    pub oc_us: f64,
    pub lnds_us: f64,
    pub lnds_elems: u64,
    pub presample_us: f64,
}

/// Each kernel pass repeats this often; the fastest pass is kept, which
/// drops passes slowed by something else on the machine.
const PASSES: usize = 3;

fn fastest(mut pass: impl FnMut() -> u64) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t0 = Stopwatch::start();
            black_box(pass());
            t0.secs() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-class `B` sequences in `(A, B)` order: what Algorithm 2 hands to
/// the LNDS for an ascending OC.
fn class_sequences(case: &ReplayCase, table: &RankedTable) -> Vec<Vec<u32>> {
    let (a, b) = (table.column(case.a).ranks(), table.column(case.b).ranks());
    case.ctx
        .classes()
        .map(|class| {
            let mut keys: Vec<u64> = class
                .iter()
                .map(|&r| (u64::from(a[r as usize]) << 32) | u64::from(b[r as usize]))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|k| k as u32).collect()
        })
        .collect()
}

/// Replays `cases` (columns must index `table`); `stride` is the hybrid
/// presample stride, `None` when the workload does not presample.
pub fn replay(cases: &[ReplayCase], table: &RankedTable, stride: Option<usize>) -> Replay {
    let mut validator = OcValidator::new();
    let oc_us = fastest(|| {
        cases
            .iter()
            .map(|c| {
                let (a, b) = (table.column(c.a).ranks(), table.column(c.b).ranks());
                validator
                    .min_removal_optimal(&c.ctx, a, b, usize::MAX)
                    .map_or(0, |r| r as u64)
            })
            .sum()
    });

    let sequences: Vec<Vec<Vec<u32>>> = cases.iter().map(|c| class_sequences(c, table)).collect();
    let lnds_elems = sequences.iter().flatten().map(|s| s.len() as u64).sum();
    let mut tails = Vec::new();
    let lnds_us = fastest(|| {
        sequences
            .iter()
            .flatten()
            .map(|s| aod_lis::lnds_length_with(s, &mut tails) as u64)
            .sum()
    });

    let presample_us = stride.map_or(0.0, |stride| {
        fastest(|| {
            cases
                .iter()
                .map(|c| {
                    let (a, b) = (table.column(c.a).ranks(), table.column(c.b).ranks());
                    let verdict = presample(&mut validator, &c.ctx, a, b, c.limit, stride);
                    u64::from(verdict == SampleVerdict::ProvenInvalid)
                })
                .sum()
        })
    });

    Replay {
        cases: cases.len(),
        oc_us,
        lnds_us,
        lnds_elems,
        presample_us,
    }
}
