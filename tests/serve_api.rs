//! End-to-end tests for the `aod-serve` HTTP service, driven over real
//! loopback sockets by the raw-`TcpStream` client in `aod_serve::client`.
//!
//! The acceptance bar: a job submitted over HTTP yields results
//! byte-identical (after a JSON round trip, timing fields excluded — they
//! are the one documented nondeterminism) to `DiscoveryBuilder` run
//! in-process with the same config; the NDJSON event stream matches an
//! in-process session replay bit for bit; `DELETE` cancels cooperatively
//! mid-run; malformed input maps to 400/404; concurrent identical clients
//! agree; repeats are answered from the result cache without
//! re-validating.

use aod::prelude::*;
use aod::serve::client::{request, EventStream};
use aod::serve::json::JsonValue;
use aod::serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn start_server() -> ServerHandle {
    let server = Server::bind(&ServeConfig {
        bind: "127.0.0.1".to_string(),
        port: 0,
        threads: 3,
        max_jobs: 4,
    })
    .expect("bind ephemeral port");
    server.spawn().expect("spawn workers")
}

fn register_employee(addr: SocketAddr, name: &str) {
    let body = format!(r#"{{"name":"{name}","generate":{{"dataset":"employee"}}}}"#);
    let r = request(addr, "POST", "/datasets", Some(&body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
}

fn submit_job(addr: SocketAddr, body: &str) -> u64 {
    let r = request(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    r.json().unwrap().get("id").unwrap().as_u64().unwrap()
}

/// Polls `GET /jobs/{id}` until the job leaves `running`.
fn wait_done(addr: SocketAddr, id: u64) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let v = r.json().unwrap();
        let status = v.get("status").unwrap().as_str().unwrap().to_string();
        if status != "running" {
            assert_eq!(status, "done", "{}", r.body);
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Recursively zeroes every `*_ms` field — the documented timing-only
/// nondeterminism — so the rest of two documents can be compared bytewise.
fn zero_timings(value: &mut JsonValue) {
    match value {
        JsonValue::Object(fields) => {
            for (key, field) in fields.iter_mut() {
                if key.ends_with("_ms") {
                    *field = JsonValue::Number(0.0);
                } else {
                    zero_timings(field);
                }
            }
        }
        JsonValue::Array(items) => items.iter_mut().for_each(zero_timings),
        _ => {}
    }
}

fn canonical_sans_timings(json_text: &str) -> String {
    let mut v = JsonValue::parse(json_text).expect("valid JSON");
    zero_timings(&mut v);
    v.to_json()
}

#[test]
fn submit_poll_fetch_matches_in_process_run() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let id = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.15,"strategy":"optimal"}}"#,
    );
    let status = wait_done(addr, id);
    assert_eq!(status.get("cached").unwrap().as_bool(), Some(false));
    assert!(status.get("stats").unwrap().get("total_ms").is_some());

    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(result.status, 200);

    // The same config in-process, through the same wire encoding.
    let ranked = RankedTable::from_table(&employee_table());
    let local = DiscoveryBuilder::new().approximate(0.15).run(&ranked);
    assert_eq!(
        canonical_sans_timings(&result.body),
        canonical_sans_timings(&local.to_json()),
        "HTTP result must be byte-identical to the in-process run \
         (timing fields aside) after a JSON round trip"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn event_stream_matches_in_process_replay_bit_for_bit() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let id = submit_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.1}}"#);
    let mut stream = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
    let streamed = stream.collect_lines().unwrap();

    let ranked = RankedTable::from_table(&employee_table());
    let mut session = DiscoveryBuilder::new().approximate(0.1).build(&ranked);
    let replay: Vec<String> = session.by_ref().map(|e| e.to_json()).collect();

    assert_eq!(streamed, replay, "NDJSON stream != in-process replay");

    // A second stream of the same finished job replays identically.
    let mut again = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
    assert_eq!(again.collect_lines().unwrap(), replay);
    handle.shutdown();
    handle.join();
}

/// `GET path` over a raw socket; returns the chunked body's data chunks in
/// order, undecoded, so a test sees how the server framed the stream.
fn raw_chunks(addr: SocketAddr, path: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, mut body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let mut chunks = Vec::new();
    loop {
        let (size, rest) = body.split_once("\r\n").unwrap();
        let size = usize::from_str_radix(size, 16).unwrap();
        if size == 0 {
            assert_eq!(rest, "\r\n", "bytes after the last chunk");
            return chunks;
        }
        chunks.push(rest[..size].to_string());
        assert_eq!(&rest[size..size + 2], "\r\n");
        body = &rest[size + 2..];
    }
}

#[test]
fn event_bytes_match_in_process_lines_live_and_from_cache() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let ranked = RankedTable::from_table(&employee_table());
    let mut session = DiscoveryBuilder::new().approximate(0.1).build(&ranked);
    let lines: Vec<String> = session.by_ref().map(|e| e.to_json()).collect();
    let expected: String = lines.iter().map(|line| format!("{line}\n")).collect();

    // Paced between levels, so the live stream follows a running job.
    let body = r#"{"dataset":"emp","config":{"epsilon":0.1,"level_delay_ms":20}}"#;
    let live = submit_job(addr, body);
    let chunks = raw_chunks(addr, &format!("/jobs/{live}/events"));
    assert!(
        chunks.iter().all(|chunk| chunk.ends_with('\n')),
        "a chunk split an event line"
    );
    assert_eq!(chunks.concat(), expected, "live stream != in-process lines");
    let status = wait_done(addr, live);
    assert_eq!(status.get("cached").unwrap().as_bool(), Some(false));
    assert_eq!(
        status.get("n_events").unwrap().as_u64(),
        Some(lines.len() as u64)
    );

    // The cache hit replays the whole log as one chunk.
    let hit = submit_job(addr, body);
    let status = wait_done(addr, hit);
    assert_eq!(status.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        status.get("n_events").unwrap().as_u64(),
        Some(lines.len() as u64)
    );
    assert_eq!(
        raw_chunks(addr, &format!("/jobs/{hit}/events")),
        std::slice::from_ref(&expected),
        "cached replay != in-process lines in one chunk"
    );
    let decoded = request(addr, "GET", &format!("/jobs/{hit}/events"), None).unwrap();
    assert_eq!(decoded.body, expected);
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_workers_shut_down_within_two_seconds() {
    // The handle's shutdown on a loopback bind, and `POST /shutdown` on an
    // all-interfaces bind (whose workers are woken over loopback).
    for (bind, over_http) in [("127.0.0.1", false), ("0.0.0.0", true)] {
        let handle = Server::bind(&ServeConfig {
            bind: bind.to_string(),
            port: 0,
            threads: 4,
            max_jobs: 1,
        })
        .unwrap()
        .spawn()
        .unwrap();
        let addr = SocketAddr::from(([127, 0, 0, 1], handle.addr().port()));
        let health = request(addr, "GET", "/health", None).unwrap();
        assert_eq!(health.status, 200);
        let (joined, wait) = mpsc::channel();
        std::thread::spawn(move || {
            if over_http {
                let r = request(addr, "POST", "/shutdown", None).unwrap();
                assert_eq!(r.status, 202);
            } else {
                handle.shutdown();
            }
            handle.join();
            joined.send(()).unwrap();
        });
        wait.recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("bind {bind}: workers not joined within 2 s"));
    }
}

#[test]
fn delete_cancels_mid_run_with_partial_results() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    // Pace the job so "mid-run" is a wide, deterministic window.
    let id = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.1,"level_delay_ms":2000}}"#,
    );
    // Follow the live stream until the first completed level...
    let mut stream = EventStream::open(addr, &format!("/jobs/{id}/events")).unwrap();
    let mut cancelled_at_level = 0u64;
    while let Some(line) = stream.next_line().unwrap() {
        let event = JsonValue::parse(&line).unwrap();
        if event.get("event").unwrap().as_str() == Some("level_complete") {
            cancelled_at_level = event.get("level").unwrap().as_u64().unwrap();
            // ...then cancel over a second connection while it pauses.
            let r = request(addr, "DELETE", &format!("/jobs/{id}"), None).unwrap();
            assert_eq!(r.status, 202, "{}", r.body);
            assert_eq!(
                r.json().unwrap().get("cancelled").unwrap().as_bool(),
                Some(true)
            );
            break;
        }
    }
    assert!(cancelled_at_level >= 1, "never saw a level_complete event");
    // The stream ends (instead of running the full lattice) and the final
    // events include the cancellation marker.
    let tail = stream.collect_lines().unwrap();
    assert!(
        tail.iter().any(
            |l| JsonValue::parse(l).unwrap().get("event").unwrap().as_str() == Some("cancelled")
        ),
        "no cancelled event in {tail:?}"
    );

    let status = wait_done(addr, id);
    assert_eq!(
        status.get("cancel_requested").unwrap().as_bool(),
        Some(true)
    );
    // Cancellation took effect within one lattice level of the request.
    let levels_completed = status.get("levels_completed").unwrap().as_u64().unwrap();
    assert!(
        levels_completed <= cancelled_at_level + 1,
        "cancel was not cooperative within one level: requested at level \
         {cancelled_at_level}, ran through {levels_completed}"
    );
    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(result.status, 200);
    let result = result.json().unwrap();
    assert_eq!(
        result
            .get("stats")
            .unwrap()
            .get("stopped_early")
            .unwrap()
            .as_bool(),
        Some(true),
        "partial results must be flagged stopped_early"
    );
    // Partial: strictly fewer levels than the full 7-column lattice run.
    let full_levels = {
        let ranked = RankedTable::from_table(&employee_table());
        DiscoveryBuilder::new()
            .approximate(0.1)
            .run(&ranked)
            .stats
            .per_level
            .len()
    };
    let partial_levels = result
        .get("stats")
        .unwrap()
        .get("per_level")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert!(
        partial_levels < full_levels,
        "cancelled run processed {partial_levels} of {full_levels} levels — not partial"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_bodies_are_400s() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    for (body, needle) in [
        ("{not json", "invalid JSON body"),
        ("[1,2,3]", "must be a JSON object"),
        ("", "must be a JSON object"),
        (r#"{"config":{}}"#, "missing string field `dataset`"),
        (
            r#"{"dataset":"emp","config":{"epsilon":7}}"#,
            "within [0, 1]",
        ),
        (
            // The validation-boundary regression: an out-of-range
            // threshold is a clean 400, never a panicking job thread.
            r#"{"dataset":"emp","config":{"epsilon":1.5}}"#,
            "within [0, 1]",
        ),
        (
            r#"{"dataset":"emp","config":{"epsilon":0.1,"strategy":"hybrid","sample_stride":0}}"#,
            "at least 1",
        ),
        (
            r#"{"dataset":"emp","config":{"epsilon":0.1,"sample_stride":8}}"#,
            "only applies",
        ),
        (
            r#"{"dataset":"emp","config":{"frobnicate":true}}"#,
            "unknown config field",
        ),
        (
            r#"{"dataset":"emp","config":{"columns":["nope"]}}"#,
            "unknown column",
        ),
    ] {
        let r = request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(r.status, 400, "{body:?} -> {}", r.body);
        assert!(r.body.contains(needle), "{body:?} -> {}", r.body);
    }
    // Dataset registration validates the same way.
    let r = request(addr, "POST", "/datasets", Some(r#"{"name":"x"}"#)).unwrap();
    assert_eq!(r.status, 400);
    let r = request(
        addr,
        "POST",
        "/datasets",
        Some(r#"{"name":"x","generate":{"dataset":"nope"}}"#),
    )
    .unwrap();
    assert_eq!(r.status, 400);
    handle.shutdown();
    handle.join();
}

#[test]
fn unknown_jobs_and_datasets_are_404s() {
    let handle = start_server();
    let addr = handle.addr();
    for (method, path) in [
        ("GET", "/jobs/999"),
        ("GET", "/jobs/999/result"),
        ("GET", "/jobs/999/events"),
        ("DELETE", "/jobs/999"),
        ("GET", "/jobs/abc"),
        ("GET", "/datasets/ghost"),
    ] {
        let r = request(addr, method, path, None).unwrap();
        assert_eq!(r.status, 404, "{method} {path} -> {}", r.body);
    }
    // Submitting against an unregistered dataset is a 404, not a 400.
    let r = request(addr, "POST", "/jobs", Some(r#"{"dataset":"ghost"}"#)).unwrap();
    assert_eq!(r.status, 404);
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_clients_on_one_dataset_agree() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let body = r#"{"dataset":"emp","config":{"epsilon":0.2,"strategy":"iterative"}}"#;
    let results: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let id = submit_job(addr, body);
                    wait_done(addr, id);
                    let r = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
                    assert_eq!(r.status, 200);
                    canonical_sans_timings(&r.body)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(
        results[0], results[1],
        "two concurrent clients saw different results"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn identical_requests_hit_the_result_cache() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let body = r#"{"dataset":"emp","config":{"epsilon":0.15,"max_level":3}}"#;
    let first = submit_job(addr, body);
    wait_done(addr, first);
    let first_result = request(addr, "GET", &format!("/jobs/{first}/result"), None).unwrap();

    // Equivalent spelling (different key order, explicit defaults) of the
    // same canonical config: must be a cache hit, not a re-run.
    let respelled = r#"{"dataset":"emp","config":{"max_level":3,"threads":1,"strategy":"optimal","mode":"approximate","epsilon":0.15}}"#;
    let r = request(addr, "POST", "/jobs", Some(respelled)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let v = r.json().unwrap();
    assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
    let second = v.get("id").unwrap().as_u64().unwrap();

    // Served without re-validating: the executed counter did not move.
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("jobs_submitted").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));

    // And the replay is byte-identical, events included (no timing fields
    // exist in either payload's deterministic part — compare raw bytes of
    // the events, canonical form of the results).
    let second_result = request(addr, "GET", &format!("/jobs/{second}/result"), None).unwrap();
    assert_eq!(
        canonical_sans_timings(&first_result.body),
        canonical_sans_timings(&second_result.body)
    );
    let mut a = EventStream::open(addr, &format!("/jobs/{first}/events")).unwrap();
    let mut b = EventStream::open(addr, &format!("/jobs/{second}/events")).unwrap();
    assert_eq!(a.collect_lines().unwrap(), b.collect_lines().unwrap());

    // A *different* config on the same dataset is not a hit.
    let third = submit_job(addr, r#"{"dataset":"emp","config":{"epsilon":0.15}}"#);
    wait_done(addr, third);
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    handle.shutdown();
    handle.join();
}

#[test]
fn hybrid_jobs_match_optimal_but_never_share_cache_entries() {
    let handle = start_server();
    let addr = handle.addr();
    register_employee(addr, "emp");
    let optimal = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.15,"strategy":"optimal"}}"#,
    );
    wait_done(addr, optimal);
    let hybrid = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"epsilon":0.15,"strategy":"hybrid","sample_stride":4}}"#,
    );
    wait_done(addr, hybrid);

    // The strategy (and stride) is part of the cache key: despite
    // identical dependency output, the hybrid job executed a fresh run.
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(0));

    // And the dependency payloads agree bit for bit (the hybrid pre-check
    // is reject-only and sound) — only stats (timings, sampling
    // counters) may differ between the two results.
    let deps = |id: u64| {
        let r = request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
        assert_eq!(r.status, 200);
        let v = r.json().unwrap();
        (
            v.get("ocs").unwrap().to_json(),
            v.get("ofds").unwrap().to_json(),
        )
    };
    assert_eq!(deps(optimal), deps(hybrid));

    // Resubmitting the same hybrid spelling *is* a cache hit.
    let again = submit_job(
        addr,
        r#"{"dataset":"emp","config":{"strategy":"hybrid","sample_stride":4,"epsilon":0.15}}"#,
    );
    wait_done(addr, again);
    let stats = request(addr, "GET", "/stats", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(stats.get("jobs_executed").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(1));
    handle.shutdown();
    handle.join();
}

#[test]
fn csv_registration_serves_scoped_jobs() {
    let dir = std::env::temp_dir().join(format!("aod_serve_api_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.csv");
    std::fs::write(&path, "x,y,z\n1,10,a\n2,20,a\n3,30,b\n4,40,b\n5,50,c\n").unwrap();

    let handle = start_server();
    let addr = handle.addr();
    let body = format!(
        r#"{{"name":"mini","csv":"{}"}}"#,
        path.display().to_string().replace('\\', "\\\\")
    );
    let r = request(addr, "POST", "/datasets", Some(&body)).unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let listed = request(addr, "GET", "/datasets", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(listed.get("datasets").unwrap().as_array().unwrap().len(), 1);

    // Scope by column *names*, resolved against the CSV header.
    let id = submit_job(
        addr,
        r#"{"dataset":"mini","config":{"epsilon":0.0,"columns":["x","y"]}}"#,
    );
    wait_done(addr, id);
    let result = request(addr, "GET", &format!("/jobs/{id}/result"), None)
        .unwrap()
        .json()
        .unwrap();
    // x and y are monotonically correlated: the empty-context OC holds.
    let ocs = result.get("ocs").unwrap().as_array().unwrap();
    assert!(!ocs.is_empty());
    for oc in ocs {
        for key in ["a", "b"] {
            assert!(oc.get(key).unwrap().as_u64().unwrap() <= 1, "scope leaked");
        }
    }
    // Duplicate registration conflicts.
    let r = request(addr, "POST", "/datasets", Some(&body)).unwrap();
    assert_eq!(r.status, 409);
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
