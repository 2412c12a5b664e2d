//! The repository benchmark: named discovery and serve workloads, measured
//! end to end and, in a separate traced run, layer by layer.
//!
//! Every layer is observed from outside through its public API; nothing in
//! the measured crates is instrumented for the benchmark. See `README.md`
//! next to this package for the workloads and metrics.

pub mod clock;
pub mod discovery;
pub mod inputs;
pub mod probe;
pub mod replay;
pub mod report;
pub mod serve_mixed;
