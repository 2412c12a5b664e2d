//! The HTTP server: accept workers, routing, and lifecycle.
//!
//! A [`Server`] binds a `TcpListener` and runs `threads` accept workers,
//! each handling one connection at a time (requests are short: job
//! submission/polling; the only long-lived response is the NDJSON event
//! stream, which a worker serves while the others keep accepting).
//! Discovery itself never runs on an accept worker — the
//! [`JobManager`](crate::jobs::JobManager) spawns one thread per job.
//!
//! Accept workers block in `accept`, so a request is picked up the moment
//! it arrives. Shutdown (`POST /shutdown` or [`ServerHandle::shutdown`])
//! flips a flag and then wakes every worker with one loopback connection
//! each to the bound address; a worker that sees the flag after `accept`
//! returns drops that connection and exits. Running jobs are then
//! cancelled through their `CancelToken`s, and every thread is joined
//! before `run`/`join` returns — the "clean shutdown" the CI smoke job
//! asserts.

use crate::http::{read_request, write_json, write_response, ChunkedWriter, HttpError, Request};
use crate::jobs::{JobManager, JobSpec, JobStatus};
use crate::metrics::{ServeMetrics, ServeSnapshot};
use crate::registry::{Registry, MAX_DATASETS};
use aod_core::json::{JsonArray, JsonObject, JsonValue};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How to bind and size a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (default loopback).
    pub bind: String,
    /// TCP port (0 = ephemeral, for tests).
    pub port: u16,
    /// Accept-worker threads (0 = one per available core).
    pub threads: usize,
    /// Maximum concurrently running discovery jobs.
    pub max_jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            bind: "127.0.0.1".to_string(),
            port: 7171,
            threads: 2,
            max_jobs: 4,
        }
    }
}

/// Shared server state: registry, jobs, counters, metrics, shutdown flag.
struct ServerCtx {
    registry: Registry,
    jobs: JobManager,
    metrics: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    /// Where a shutdown connects to wake the accept workers.
    wake_addr: SocketAddr,
    /// Accept workers to wake.
    workers: usize,
}

impl ServerCtx {
    /// Sets the shutdown flag, then wakes every accept worker blocked in
    /// `accept` with one connection each. A wake connection that finds its
    /// worker busy waits in the backlog; a worker that returns from a
    /// request sees the flag before it accepts again.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..self.workers {
            // Failure means the listener is already closed (every worker
            // gone), so there is no one left to wake.
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }
}

/// The address a connection to the listener bound at `bound` reaches it
/// on: loopback in place of an unspecified (all-interfaces) address.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// A bound (but not yet serving) discovery service.
pub struct Server {
    listener: TcpListener,
    threads: usize,
    ctx: Arc<ServerCtx>,
}

impl Server {
    /// Binds the listener; no connections are accepted until
    /// [`run`](Server::run) or [`spawn`](Server::spawn).
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.bind.as_str(), config.port))?;
        let wake_addr = wake_addr(listener.local_addr()?);
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.threads
        };
        let metrics = Arc::new(ServeMetrics::new());
        Ok(Server {
            listener,
            threads,
            ctx: Arc::new(ServerCtx {
                registry: Registry::new(),
                jobs: JobManager::new(config.max_jobs).with_metrics(metrics.clone()),
                metrics,
                shutdown: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                wake_addr,
                workers: threads,
            }),
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Pre-registers a CSV dataset before serving (the CLI's positional
    /// arguments).
    pub fn register_csv(&self, name: &str, path: &str) -> Result<(), String> {
        self.ctx.registry.register_csv(name, path).map(|_| ())
    }

    /// Serves until shutdown is requested, then joins every worker and
    /// runner thread.
    pub fn run(self) -> std::io::Result<()> {
        self.spawn()?.join();
        Ok(())
    }

    /// Starts the accept workers and returns a handle (test/embedding
    /// entry point).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let listener = Arc::new(self.listener);
        let mut workers = Vec::with_capacity(self.threads);
        for i in 0..self.threads {
            let listener = listener.clone();
            let ctx = self.ctx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("aod-serve-{i}"))
                    .spawn(move || accept_loop(&listener, &ctx))?,
            );
        }
        Ok(ServerHandle {
            addr,
            ctx: self.ctx,
            workers,
        })
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`shutdown`](ServerHandle::shutdown) + [`join`](ServerHandle::join) (or
/// just [`join`](ServerHandle::join) to block until an HTTP shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (same as `POST /shutdown`).
    pub fn shutdown(&self) {
        self.ctx.request_shutdown();
    }

    /// Blocks until every accept worker exited (i.e. until shutdown), then
    /// cancels and joins all job threads.
    pub fn join(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
        self.ctx.jobs.shutdown();
    }
}

/// One accept worker: blocking accept until the shutdown flag is seen. A
/// panic while handling a request (a registry/engine bug, not I/O) drops
/// that connection but must not kill the worker — the server keeps
/// serving.
fn accept_loop(listener: &TcpListener, ctx: &Arc<ServerCtx>) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        let accepted = listener.accept();
        if ctx.shutdown.load(Ordering::SeqCst) {
            // A wake-up connection, or a client that arrived too late.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(stream, ctx);
                }));
            }
            // Out of file descriptors and the like: back off rather than
            // spin on an error that persists.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &Arc<ServerCtx>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    match read_request(&mut stream) {
        Ok(request) => route(&mut stream, ctx, &request),
        Err(HttpError::TooLarge) => {
            let _ = write_json(&mut stream, 413, &error_json("request too large"));
        }
        Err(HttpError::Bad(msg)) => {
            let _ = write_json(&mut stream, 400, &error_json(&msg));
        }
        Err(HttpError::Io(_)) => {}
    }
}

fn error_json(message: &str) -> String {
    let mut obj = JsonObject::new();
    obj.str("error", message);
    obj.finish()
}

/// Dispatches one parsed request: resolve the resource first, then the
/// method — a known path with an unsupported method is a 405, not a 404
/// (so clients never mistake a method typo for "resource gone").
/// Responses are written directly to the stream; I/O errors mean the
/// client went away and are ignored.
fn route(stream: &mut TcpStream, ctx: &Arc<ServerCtx>, request: &Request) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    let not_allowed =
        |stream: &mut TcpStream| write_json(stream, 405, &error_json("method not allowed"));
    let outcome: Result<(), std::io::Error> = match segments.as_slice() {
        ["health"] => match method {
            "GET" => {
                let mut obj = JsonObject::new();
                obj.str("status", "ok")
                    .num_u64("schema_version", aod_core::SCHEMA_VERSION);
                write_json(stream, 200, &obj.finish())
            }
            _ => not_allowed(stream),
        },
        ["stats"] => match method {
            "GET" => write_json(stream, 200, &server_stats(ctx)),
            _ => not_allowed(stream),
        },
        ["metrics"] => match method {
            "GET" => write_response(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &ctx.metrics.render(&server_snapshot(ctx)),
            ),
            _ => not_allowed(stream),
        },
        ["shutdown"] => match method {
            "POST" => {
                ctx.request_shutdown();
                let mut obj = JsonObject::new();
                obj.str("status", "shutting down");
                write_json(stream, 202, &obj.finish())
            }
            _ => not_allowed(stream),
        },
        ["datasets"] => match method {
            "POST" => post_datasets(stream, ctx, request),
            "GET" => {
                let mut arr = JsonArray::new();
                for dataset in ctx.registry.list() {
                    arr.push_raw(&dataset.to_json());
                }
                let mut obj = JsonObject::new();
                obj.raw("datasets", &arr.finish());
                write_json(stream, 200, &obj.finish())
            }
            _ => not_allowed(stream),
        },
        ["datasets", name] => match method {
            "GET" => match ctx.registry.get(name) {
                Some(dataset) => write_json(stream, 200, &dataset.to_json()),
                None => write_json(stream, 404, &error_json(&format!("no dataset `{name}`"))),
            },
            "DELETE" => match ctx.registry.remove(name) {
                Some(dataset) => {
                    let mut obj = JsonObject::new();
                    obj.str("name", &dataset.name).bool("deregistered", true);
                    write_json(stream, 200, &obj.finish())
                }
                None => write_json(stream, 404, &error_json(&format!("no dataset `{name}`"))),
            },
            _ => not_allowed(stream),
        },
        ["jobs"] => match method {
            "POST" => post_jobs(stream, ctx, request),
            _ => not_allowed(stream),
        },
        ["jobs", id] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| {
                write_json(stream, 200, &job.describe())
            }),
            "DELETE" => with_job(stream, ctx, id, |stream, job| {
                let was_running = job.status() == JobStatus::Running;
                job.cancel();
                let mut obj = JsonObject::new();
                obj.num_u64("id", job.id)
                    .bool("cancelled", was_running)
                    .str("status", job.status().wire_name());
                write_json(stream, 202, &obj.finish())
            }),
            _ => not_allowed(stream),
        },
        ["jobs", id, "result"] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| match job.result_json() {
                Some(result) => write_json(stream, 200, &result),
                None => {
                    let status = job.status();
                    write_json(
                        stream,
                        409,
                        &error_json(&format!("job is {}", status.wire_name())),
                    )
                }
            }),
            _ => not_allowed(stream),
        },
        ["jobs", id, "events"] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| {
                stream_events(stream, ctx, &job)
            }),
            _ => not_allowed(stream),
        },
        ["jobs", id, "trace"] => match method {
            "GET" => with_job(stream, ctx, id, |stream, job| {
                if job.status() == JobStatus::Running {
                    return write_json(stream, 409, &error_json("job is running"));
                }
                match ctx.jobs.traces.get(job.id) {
                    // The stored bytes verbatim — the same document a
                    // `--trace` file would hold, Perfetto-openable.
                    Some(trace) => write_response(stream, 200, "application/json", &trace),
                    None => write_json(
                        stream,
                        404,
                        &error_json(
                            "job has no trace (not requested, served from cache, or evicted)",
                        ),
                    ),
                }
            }),
            _ => not_allowed(stream),
        },
        _ => write_json(stream, 404, &error_json("no such endpoint")),
    };
    let _ = outcome;
}

/// One consistent-enough read of every mirrored counter; feeds both
/// `GET /stats` (JSON) and `GET /metrics` (exposition).
fn server_snapshot(ctx: &ServerCtx) -> ServeSnapshot {
    ServeSnapshot {
        requests: ctx.requests.load(Ordering::Relaxed),
        datasets: ctx.registry.len() as u64,
        datasets_capacity: MAX_DATASETS as u64,
        jobs_submitted: ctx.jobs.submitted(),
        jobs_executed: ctx.jobs.executed(),
        jobs_rejected: ctx.jobs.rejected(),
        jobs_running: ctx.jobs.running(),
        cache_hits: ctx.jobs.cache.hits(),
        cache_misses: ctx.jobs.cache.misses(),
        cache_entries: ctx.jobs.cache.len() as u64,
        cache_bytes: ctx.jobs.cache.bytes(),
    }
}

fn server_stats(ctx: &ServerCtx) -> String {
    let snapshot = server_snapshot(ctx);
    let mut obj = JsonObject::new();
    obj.num_u64("requests", snapshot.requests)
        .num_u64("datasets", snapshot.datasets)
        .num_u64("registry_capacity", snapshot.datasets_capacity)
        .num_u64("jobs_submitted", snapshot.jobs_submitted)
        .num_u64("jobs_executed", snapshot.jobs_executed)
        .num_u64("jobs_rejected", snapshot.jobs_rejected)
        .num_u64("jobs_running", snapshot.jobs_running)
        .num_u64("cache_hits", snapshot.cache_hits)
        .num_u64("cache_misses", snapshot.cache_misses)
        .num_u64("cache_entries", snapshot.cache_entries)
        .num_u64("cache_bytes", snapshot.cache_bytes);
    obj.finish()
}

/// Parses `{id}`, looks the job up, and 404s when absent.
fn with_job(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    id: &str,
    f: impl FnOnce(&mut TcpStream, Arc<crate::jobs::Job>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let Some(job) = id.parse::<u64>().ok().and_then(|id| ctx.jobs.get(id)) else {
        return write_json(stream, 404, &error_json(&format!("no job `{id}`")));
    };
    f(stream, job)
}

fn post_datasets(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    request: &Request,
) -> std::io::Result<()> {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(msg) => return write_json(stream, 400, &error_json(&msg)),
    };
    let Some(name) = body.get("name").and_then(|v| v.as_str()) else {
        return write_json(stream, 400, &error_json("missing string field `name`"));
    };
    let registered = match (body.get("csv"), body.get("generate")) {
        (Some(csv), None) => match csv.as_str() {
            Some(path) => ctx.registry.register_csv(name, path),
            None => Err("`csv` must be a file-path string".to_string()),
        },
        (None, Some(generate)) => {
            let kind = generate.get("dataset").and_then(|v| v.as_str());
            let rows = generate
                .get("rows")
                .and_then(|v| v.as_u64())
                .unwrap_or(1000);
            let seed = generate.get("seed").and_then(|v| v.as_u64()).unwrap_or(42);
            // Generation runs synchronously on this accept worker; an
            // unbounded request-controlled row count is a DoS vector.
            const MAX_GENERATED_ROWS: u64 = 10_000_000;
            if rows > MAX_GENERATED_ROWS {
                return write_json(
                    stream,
                    400,
                    &error_json(&format!("`rows` must be at most {MAX_GENERATED_ROWS}")),
                );
            }
            match kind {
                Some(kind) => ctx
                    .registry
                    .register_generated(name, kind, rows as usize, seed),
                None => Err("`generate` needs a `dataset` field".to_string()),
            }
        }
        _ => Err("provide exactly one of `csv` or `generate`".to_string()),
    };
    match registered {
        Ok(dataset) => write_json(stream, 201, &dataset.to_json()),
        Err(msg) if msg.contains("already registered") => {
            write_json(stream, 409, &error_json(&msg))
        }
        Err(msg) if msg.contains("registry is full") => write_json(stream, 429, &error_json(&msg)),
        Err(msg) => write_json(stream, 400, &error_json(&msg)),
    }
}

fn post_jobs(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    request: &Request,
) -> std::io::Result<()> {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(msg) => return write_json(stream, 400, &error_json(&msg)),
    };
    let Some(name) = body.get("dataset").and_then(|v| v.as_str()) else {
        return write_json(stream, 400, &error_json("missing string field `dataset`"));
    };
    let Some(dataset) = ctx.registry.get(name) else {
        return write_json(stream, 404, &error_json(&format!("no dataset `{name}`")));
    };
    let empty = JsonValue::Object(Vec::new());
    let config = body.get("config").unwrap_or(&empty);
    let spec = match JobSpec::parse(config, &dataset) {
        Ok(spec) => spec,
        Err(msg) => return write_json(stream, 400, &error_json(&msg)),
    };
    match ctx.jobs.submit(dataset, spec) {
        Ok(job) => {
            let mut obj = JsonObject::new();
            obj.num_u64("id", job.id)
                .str("status", job.status().wire_name())
                .bool("cached", job.cached)
                .raw("config", &job.config);
            write_json(stream, 201, &obj.finish())
        }
        Err((status, msg)) => write_json(stream, status, &error_json(&msg)),
    }
}

fn parse_body(request: &Request) -> Result<JsonValue, String> {
    let text = request.body_str()?;
    if text.trim().is_empty() {
        return Err("request body must be a JSON object".to_string());
    }
    let value = JsonValue::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    if value.as_object().is_none() {
        return Err("request body must be a JSON object".to_string());
    }
    Ok(value)
}

/// Streams the job's NDJSON event log as chunked transfer encoding: replay
/// from the start, then follow live until the log completes (or the server
/// shuts down, which ends the stream cleanly). Each wake-up sends
/// everything logged since the last one as a single chunk; the runner
/// wakes the stream at each level's end, and a 100 ms wait that times out
/// sends whatever arrived meanwhile.
fn stream_events(
    stream: &mut TcpStream,
    ctx: &Arc<ServerCtx>,
    job: &crate::jobs::Job,
) -> std::io::Result<()> {
    let mut writer = ChunkedWriter::begin(stream, 200, "application/x-ndjson")?;
    let mut cursor = 0usize;
    loop {
        let (bytes, done) = job.events_after(cursor, Duration::from_millis(100));
        writer.chunk(&bytes)?;
        cursor += bytes.len();
        if done || ctx.shutdown.load(Ordering::SeqCst) {
            // Drain anything that landed between the last wait and `done`.
            let (rest, _) = job.events_after(cursor, Duration::ZERO);
            writer.chunk(&rest)?;
            return writer.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    fn start() -> ServerHandle {
        let server = Server::bind(&ServeConfig {
            port: 0,
            threads: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        server.spawn().unwrap()
    }

    #[test]
    fn health_and_shutdown_round_trip() {
        let handle = start();
        let addr = handle.addr();
        let health = client::request(addr, "GET", "/health", None).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(
            health.json().unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
        let bye = client::request(addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(bye.status, 202);
        // Every worker joins — the clean-shutdown guarantee.
        handle.join();
    }

    #[test]
    fn unknown_endpoints_are_404() {
        let handle = start();
        let addr = handle.addr();
        for path in ["/nope", "/jobs/1/nope", "/datasets/extra/deep"] {
            let r = client::request(addr, "GET", path, None).unwrap();
            assert_eq!(r.status, 404, "{path}");
        }
        // Known resources with an unsupported method are 405, not 404.
        for (method, path) in [
            ("PUT", "/jobs"),
            ("DELETE", "/health"),
            ("GET", "/shutdown"),
            ("PUT", "/datasets/whatever"),
            ("POST", "/jobs/1/events"),
        ] {
            let r = client::request(addr, method, path, None).unwrap();
            assert_eq!(r.status, 405, "{method} {path}");
        }
        handle.shutdown();
        handle.join();
    }
}
