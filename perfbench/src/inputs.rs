//! The named workloads and the inputs they generate from a seed.
//!
//! Set-up is data generation (`aod-datagen`) followed by rank encoding
//! (`aod-table`); both are timed separately so `setup_s` can be split into
//! `datagen.gen_s` and `table.rank_s`.

use crate::clock::Stopwatch;
use aod_core::{AocStrategy, DiscoveryBuilder};
use aod_datagen::dirty::{inject_concatenated_zero, inject_transpositions};
use aod_datagen::{flight, ncvoter};
use aod_table::{RankedTable, Schema, Table, Value};

/// Every workload the benchmark accepts, by its `--workload` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AodFlight,
    AodDirtyHybrid,
    OdNcvoterExact,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AodFlight,
        Workload::AodDirtyHybrid,
        Workload::OdNcvoterExact,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AodFlight => "aod-flight",
            Workload::AodDirtyHybrid => "aod-dirty-hybrid",
            Workload::OdNcvoterExact => "od-ncvoter-exact",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The discovery run a discovery workload measures; `None` for
    /// `serve-mixed`.
    pub fn discovery(self) -> Option<DiscoverySpec> {
        match self {
            Workload::AodFlight => Some(DiscoverySpec {
                rows: 25_000,
                cols: 12,
                run: RunConfig {
                    epsilon: Some(0.1),
                    strategy: AocStrategy::Optimal,
                    threads: 1,
                },
                cross: RunConfig {
                    epsilon: Some(0.1),
                    strategy: AocStrategy::Optimal,
                    threads: 2,
                },
                replay_every: Some(32),
            }),
            Workload::AodDirtyHybrid => Some(DiscoverySpec {
                rows: 50_000,
                cols: 12,
                run: RunConfig {
                    epsilon: Some(0.01),
                    strategy: AocStrategy::Hybrid { stride: 8 },
                    threads: 2,
                },
                cross: RunConfig {
                    epsilon: Some(0.01),
                    strategy: AocStrategy::Optimal,
                    threads: 1,
                },
                replay_every: Some(128),
            }),
            Workload::OdNcvoterExact => Some(DiscoverySpec {
                rows: 50_000,
                cols: 14,
                run: RunConfig {
                    epsilon: None,
                    strategy: AocStrategy::Optimal,
                    threads: 1,
                },
                cross: RunConfig {
                    epsilon: None,
                    strategy: AocStrategy::Optimal,
                    threads: 2,
                },
                replay_every: None,
            }),
            Workload::ServeMixed => None,
        }
    }
}

/// One discovery configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// `None` = exact mode.
    pub epsilon: Option<f64>,
    pub strategy: AocStrategy,
    pub threads: usize,
}

impl RunConfig {
    pub fn builder(&self) -> DiscoveryBuilder {
        let b = DiscoveryBuilder::new().parallelism(self.threads);
        match self.epsilon {
            Some(epsilon) => b.approximate(epsilon).strategy(self.strategy),
            None => b.exact(),
        }
    }
}

/// A discovery workload: its input shape, the measured configuration, and
/// the configuration of the untimed cross-run its output must agree with.
#[derive(Debug, Clone, Copy)]
pub struct DiscoverySpec {
    pub rows: usize,
    pub cols: usize,
    pub run: RunConfig,
    pub cross: RunConfig,
    /// The traced run replays one in this many validated candidates;
    /// `None` when the workload's backend never runs Algorithm 2 or the
    /// LNDS (exact mode), so the replay would time work the program does
    /// not do.
    pub replay_every: Option<u64>,
}

/// A generated, rank-encoded input plus what making it cost.
pub struct Input {
    pub table: RankedTable,
    pub gen_s: f64,
    pub rank_s: f64,
}

impl Input {
    /// Bytes of the encoded relation the engine works on (`u32` ranks).
    pub fn bytes(&self) -> usize {
        self.table.n_rows() * self.table.n_cols() * std::mem::size_of::<u32>()
    }
}

/// Seed of the generator draw every discovery input is sampled from.
///
/// Each workload's rows come from one fixed population (its preset drawn
/// at this seed, a quarter larger than the input); `--seed` picks which
/// rows, in which order, and where the dirt goes. A fresh generator draw
/// per seed would change which dependencies hold, and with them the
/// lattice's size and memory use, so seeds would measure different work.
pub const POPULATION_SEED: u64 = 42;

/// SplitMix64: a small seeded generator for row selection and schedules.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `rows` distinct row ids of a `population`-row table, in random order.
fn pick_rows(population: usize, rows: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut ids: Vec<usize> = (0..population).collect();
    for i in 0..rows {
        let j = i + rng.below(population - i);
        ids.swap(i, j);
    }
    ids.truncate(rows);
    ids
}

/// Generates and encodes a discovery workload's input.
pub fn build_input(workload: Workload, seed: u64) -> Input {
    let spec = workload
        .discovery()
        .expect("only discovery workloads have a single input table");
    let population = spec.rows + spec.rows / 4;
    let t0 = Stopwatch::start();
    let rows = pick_rows(population, spec.rows, seed);
    match workload {
        Workload::AodFlight | Workload::OdNcvoterExact => {
            let generator = if workload == Workload::AodFlight {
                flight::flight(POPULATION_SEED)
            } else {
                ncvoter::ncvoter(POPULATION_SEED)
            };
            let mut all = generator.generate_u32(population);
            all.truncate(spec.cols);
            let columns: Vec<Vec<u32>> = all
                .iter()
                .map(|col| rows.iter().map(|&r| col[r]).collect())
                .collect();
            let gen_s = t0.secs();
            let t1 = Stopwatch::start();
            let table = RankedTable::from_u32_columns(columns);
            Input {
                table,
                gen_s,
                rank_s: t1.secs(),
            }
        }
        Workload::AodDirtyHybrid => {
            // The dirt of the hybrid sweep: 20% transpositions on every
            // payload column, concatenated zeros on column 1.
            const DIRT: f64 = 0.2;
            let generator = flight::flight(POPULATION_SEED);
            let mut all = generator.generate_u32(population);
            all.truncate(spec.cols);
            let columns: Vec<Vec<Value>> = all
                .iter()
                .map(|col| {
                    rows.iter()
                        .map(|&r| Value::Int(i64::from(col[r])))
                        .collect()
                })
                .collect();
            let schema = Schema::from_names(&generator.names()[..spec.cols])
                .expect("preset column names are unique");
            let mut table = Table::new(schema, columns).expect("columns are rectangular");
            for c in 1..spec.cols {
                inject_transpositions(&mut table, c, DIRT, seed ^ (c as u64).wrapping_mul(0x9e37));
            }
            inject_concatenated_zero(&mut table, 1, DIRT / 2.0, seed ^ 0xbeef);
            let gen_s = t0.secs();
            let t1 = Stopwatch::start();
            let table = RankedTable::from_table(&table);
            Input {
                table,
                gen_s,
                rank_s: t1.secs(),
            }
        }
        Workload::ServeMixed => unreachable!("rejected by `discovery()` above"),
    }
}
