//! The layer probes must not change what they measure: with the timing
//! validator wrapper and the recording sink attached, dependency lists and
//! every `LevelStats` counter stay bit-identical to an unprobed run.

use aod_core::{AocStrategy, DiscoveryBuilder, DiscoveryResult};
use aod_datagen::dirty::inject_transpositions;
use aod_datagen::flight;
use aod_table::RankedTable;
use aod_validate::{exact_backend, strategy_backend};
use perfbench::probe::Probe;

/// Small dirty flight table: enough invalid candidates for the hybrid
/// presample to reject some, small enough for a unit test.
fn table() -> RankedTable {
    let mut t = flight::flight(7).table(3_000);
    for c in 1..8 {
        inject_transpositions(&mut t, c, 0.1, 7 + c as u64);
    }
    RankedTable::from_table(&t).with_first_columns(8)
}

fn builder(mode: &str, threads: usize) -> DiscoveryBuilder {
    let b = DiscoveryBuilder::new().parallelism(threads);
    match mode {
        "exact" => b.exact(),
        "optimal" => b.approximate(0.02),
        "hybrid" => b
            .approximate(0.02)
            .strategy(AocStrategy::Hybrid { stride: 4 }),
        _ => unreachable!(),
    }
}

fn assert_same(plain: &DiscoveryResult, probed: &DiscoveryResult, what: &str) {
    assert_eq!(plain.ocs, probed.ocs, "{what}: OC lists");
    assert_eq!(plain.ofds, probed.ofds, "{what}: OFD lists");
    assert_eq!(
        plain.stats.per_level, probed.stats.per_level,
        "{what}: level counters"
    );
}

#[test]
fn probes_leave_outputs_and_counters_bit_identical() {
    let t = table();
    for mode in ["exact", "optimal", "hybrid"] {
        for threads in [1, 2] {
            let what = format!("{mode}, {threads} threads");
            let plain = builder(mode, threads).run(&t);
            let probe = Probe::new(&t, Some(4));
            let inner = match mode {
                "exact" => exact_backend(),
                "optimal" => strategy_backend(AocStrategy::Optimal),
                _ => strategy_backend(AocStrategy::Hybrid { stride: 4 }),
            };
            let probed = builder(mode, threads)
                .validator(probe.backend(inner))
                .event_sink(probe.sink())
                .run(&t);
            assert_same(&plain, &probed, &what);

            // The probes saw the whole run.
            let candidates: usize = plain
                .stats
                .per_level
                .iter()
                .map(|l| l.n_oc_candidates)
                .sum();
            assert!(candidates > 0, "{what}: the table yields OC candidates");
            assert_eq!(
                probe.calls().len(),
                candidates,
                "{what}: one call per candidate"
            );
            assert!(probe.finished(), "{what}: the sink saw the finish");
            assert_eq!(
                probe.level_walls_s().len(),
                plain.stats.per_level.len(),
                "{what}"
            );
            if mode == "hybrid" {
                assert!(
                    plain.stats.n_sample_hits() > 0,
                    "{what}: presample rejects some"
                );
            }
        }
    }
}

#[test]
fn replay_sample_does_not_depend_on_thread_count() {
    let t = table();
    let cases = |threads: usize| {
        let probe = Probe::new(&t, Some(4));
        let _ = builder("optimal", threads)
            .validator(probe.backend(strategy_backend(AocStrategy::Optimal)))
            .event_sink(probe.sink())
            .run(&t);
        probe
            .replay_cases()
            .into_iter()
            .map(|c| (c.key, c.a, c.b, c.ctx))
            .collect::<Vec<_>>()
    };
    let one = cases(1);
    assert!(!one.is_empty());
    assert_eq!(one, cases(2));
}
