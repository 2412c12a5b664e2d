//! # aod-serve — discovery as a service over HTTP
//!
//! A dependency-free HTTP/1.1 server (hand-rolled on
//! [`std::net::TcpListener`], in the same no-crates spirit as `aod-exec`'s
//! thread pool) that keeps datasets **resident** — loaded and rank-encoded
//! once, shared as `Arc<RankedTable>` — and runs streaming
//! `DiscoverySession`s as background jobs. This amortizes exactly the cost
//! the paper identifies as dominant (table load + sorted-partition
//! machinery on wide schemas) across the repeated, interactive requests a
//! profiling workload actually makes, and a result cache keyed by
//! `(dataset fingerprint, canonical config)` makes identical requests free.
//!
//! ## Protocol
//!
//! All request/response bodies are JSON (stable encodings documented in
//! [`aod_core::wire`]); event streams are NDJSON over chunked transfer
//! encoding. One request per connection (`Connection: close`).
//!
//! | method & path | behaviour |
//! |---------------|-----------|
//! | `GET /health` | liveness + wire schema version |
//! | `GET /stats` | request/job/cache counters, resident cache bytes, registry occupancy/capacity, admission rejections |
//! | `GET /metrics` | Prometheus text exposition: per-dataset job-latency histograms and discovery instruments plus the `/stats` counters (see [`metrics`](ServeMetrics)) |
//! | `POST /datasets` | register `{"name":..., "csv":"path"}` or `{"name":..., "generate":{"dataset":"flight\|ncvoter\|employee","rows":N,"seed":S}}` |
//! | `GET /datasets` | list registered datasets |
//! | `GET /datasets/{name}` | one dataset's metadata |
//! | `DELETE /datasets/{name}` | deregister (frees one of the [`MAX_DATASETS`] slots; running jobs keep their `Arc` and finish) |
//! | `POST /jobs` | submit `{"dataset":"name","config":{...}}`; 201 with job id (`"cached":true` when answered from the result cache) |
//! | `GET /jobs/{id}` | status, progress, final stats |
//! | `GET /jobs/{id}/result` | the completed `DiscoveryResult` (409 while running) |
//! | `GET /jobs/{id}/events` | NDJSON `DiscoveryEvent` stream: full replay, then live tail, one chunk per batch of new events |
//! | `GET /jobs/{id}/trace` | the job's span trace as Chrome `trace_event` JSON, byte-for-byte as stored (409 while running; 404 when not requested with `"trace":true`, answered from the cache, or evicted past [`MAX_RETAINED_TRACES`]) |
//! | `DELETE /jobs/{id}` | cooperative cancel; the job finishes with partial results flagged `stopped_early` |
//! | `POST /shutdown` | stop accepting, cancel running jobs, exit cleanly |
//!
//! Job `config` fields (all optional): `mode` (`"exact"`/`"approximate"`),
//! `epsilon`, `strategy` (`"optimal"`/`"iterative"`), `max_level`,
//! `timeout_ms`, `top_k`, `threads`, `columns` (names or indices),
//! `level_delay_ms` (pacing/debug), `trace` (record a span trace served
//! by `GET /jobs/{id}/trace`; traced configs cache separately). Unknown
//! fields are 400s.
//!
//! ## Embedding
//!
//! ```no_run
//! use aod_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(&ServeConfig { port: 0, ..ServeConfig::default() }).unwrap();
//! let handle = server.spawn().unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.join(); // blocks until POST /shutdown
//! ```
//!
//! The determinism contract carries end to end: a job's event stream and
//! dependency lists are byte-identical to an in-process
//! `DiscoverySession` with the same config on the same table, which is how
//! `tests/serve_api.rs` verifies the service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod client;
mod http;
mod jobs;
mod metrics;
mod registry;
mod server;
mod sync;

pub use cache::{CachedRun, ResultCache, MAX_CACHED_RUNS};
pub use http::{status_text, ChunkedWriter, HttpError, Request};
pub use jobs::{
    Job, JobManager, JobSpec, JobStatus, TraceStore, MAX_RETAINED_JOBS, MAX_RETAINED_TRACES,
};
pub use metrics::{ServeMetrics, ServeSnapshot};
pub use registry::{Dataset, Registry, MAX_DATASETS};
pub use server::{ServeConfig, Server, ServerHandle};

// The JSON building blocks the protocol is written in, re-exported for
// clients of this crate.
pub use aod_core::json;
