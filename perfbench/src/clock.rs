//! The benchmark's single wall-clock reader.
//!
//! Every timing in the benchmark goes through [`Stopwatch`], so this is the
//! only module that touches `std::time::Instant`; its lines carry the
//! workspace lint's per-site D2 waivers.

// aod-lint: allow(D2) -- the benchmark's one clock; measuring time is its job
use std::time::{Duration, Instant};

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
// aod-lint: allow(D2) -- the benchmark's one clock; measuring time is its job
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // aod-lint: allow(D2) -- the benchmark's one clock; measuring time is its job
        Stopwatch(Instant::now())
    }

    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }

    pub fn nanos(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sleeps until `offset` past the start; returns at once if that time
    /// has passed.
    pub fn sleep_until(&self, offset: Duration) {
        if let Some(wait) = offset.checked_sub(self.elapsed()) {
            std::thread::sleep(wait);
        }
    }

    /// Milliseconds elapsed since `offset` past the start (0 if earlier).
    pub fn ms_since(&self, offset: Duration) -> f64 {
        self.elapsed().saturating_sub(offset).as_secs_f64() * 1e3
    }
}
