//! Overload behaviour: the bounded admission queue sheds bursts with
//! `429 Retry-After` instead of accepting work it cannot execute, and
//! per-client quotas isolate tenants from each other's bursts.

use metaopt_server::client::{request, Response};
use metaopt_server::json::Json;
use metaopt_server::{serve, GapServer, ServerConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metaopt-overload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(cfg: ServerConfig) -> (Arc<GapServer>, String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = GapServer::open(cfg).unwrap();
    server.start_workers();
    let serve_server = Arc::clone(&server);
    let thread = std::thread::spawn(move || serve(&serve_server, listener).unwrap());
    (server, addr, thread)
}

fn call(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> Response {
    request(addr, method, path, body, Duration::from_secs(120)).unwrap()
}

fn tiny_job(label: &str, client: &str) -> Vec<u8> {
    format!(
        concat!(
            "{{\"client\":\"{}\",\"label\":\"{}\",",
            "\"topology\":{{\"kind\":\"fig1\",\"cap\":100.0}},",
            "\"heuristic\":{{\"kind\":\"dp\",\"threshold\":50.0}},",
            "\"sweep\":{{\"lo\":45.0,\"hi\":55.0,\"resolution\":10.0}},",
            "\"budget\":{{\"probe_cap_nodes\":4000,\"slice_nodes\":64}}}}"
        ),
        client, label
    )
    .into_bytes()
}

#[test]
fn burst_sheds_with_429_and_accepted_jobs_still_complete() {
    let (server, addr, serve_thread) = start(ServerConfig {
        name: "overload".into(),
        dir: tmp_dir("burst"),
        workers: 1,
        max_queue: 8,
        // Quotas out of the way: this test isolates queue shedding.
        quota_burst: 10_000.0,
        quota_per_sec: 10_000.0,
        ..ServerConfig::default()
    });

    // Pin the single worker with a deliberately long job (large topology,
    // fine resolution, small slices) so the burst below races a full
    // queue, not an empty one. The sweep probes gaps between 1000 and
    // 2000; the incumbent callback certifies about 1600 at the root and
    // the root bound is 2800, so branch-and-bound has to settle the upper
    // probes and the job's length does not shrink with the callback's
    // cost. The test checks below that the pin still holds when the burst
    // ends.
    let long = concat!(
        "{\"client\":\"pin\",\"label\":\"pin\",",
        "\"topology\":{\"kind\":\"builtin\",\"name\":\"abilene\",\"cap\":100.0},",
        "\"heuristic\":{\"kind\":\"dp\",\"threshold\":50.0},",
        "\"sweep\":{\"lo\":1000.0,\"hi\":2000.0,\"resolution\":4.0},",
        "\"budget\":{\"probe_cap_nodes\":2000000,\"slice_nodes\":8}}"
    );
    let resp = call(&addr, "POST", "/jobs", Some(long.as_bytes()));
    assert_eq!(resp.status, 202, "{}", resp.text());
    let pin_id = Json::parse(&resp.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    // Give the worker a moment to claim it off the queue.
    let claim_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = Json::parse(&call(&addr, "GET", "/healthz", None).text()).unwrap();
        if health.get("running").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(Instant::now() < claim_deadline, "worker never claimed the pin job");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..120 {
        let resp = call(
            &addr,
            "POST",
            "/jobs",
            Some(&tiny_job(&format!("burst-{i}"), &format!("tenant-{}", i % 7))),
        );
        match resp.status {
            202 => {
                let ack = Json::parse(&resp.text()).unwrap();
                accepted.push(ack.get("id").and_then(Json::as_u64).unwrap());
            }
            429 => {
                shed += 1;
                let err = Json::parse(&resp.text()).unwrap();
                assert_eq!(
                    err.get("error").and_then(Json::as_str),
                    Some("queue_saturated"),
                    "{}",
                    resp.text()
                );
                // Shed responses always advise a retry delay.
                let after: u64 = resp.header("retry-after").unwrap().parse().unwrap();
                assert!(after >= 1);
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
        // The queue depth visible over the API never exceeds the bound.
        let health = Json::parse(&call(&addr, "GET", "/healthz", None).text()).unwrap();
        assert!(health.get("queue_depth").and_then(Json::as_u64).unwrap() <= 8);
    }

    // The premise of the count below: the pin outlasted the burst.
    let pin = Json::parse(&call(&addr, "GET", &format!("/jobs/{pin_id}"), None).text()).unwrap();
    assert_eq!(
        pin.get("running").and_then(Json::as_bool),
        Some(true),
        "the pin job ended during the burst: {pin:?}"
    );
    assert!(
        shed >= 100,
        "a 120-burst against queue bound 8 with a pinned worker must shed \
         most submissions, shed only {shed}"
    );
    assert!(!accepted.is_empty());
    assert_eq!(accepted.len() + shed, 120);

    // Free the worker: drain the pin job to its next checkpoint.
    let resp = call(&addr, "DELETE", &format!("/jobs/{pin_id}"), None);
    assert_eq!(resp.status, 200, "{}", resp.text());

    // Every acknowledged job still reaches a certified terminal result —
    // shedding protects the accepted work, it never drops it.
    let deadline = Instant::now() + Duration::from_secs(240);
    for id in &accepted {
        loop {
            let job = Json::parse(&call(&addr, "GET", &format!("/jobs/{id}"), None).text()).unwrap();
            let status = job.get("status").and_then(Json::as_str).unwrap().to_string();
            if status == "done" {
                assert!(job
                    .get("result")
                    .and_then(|r| r.get("outcome_wire"))
                    .and_then(Json::as_str)
                    .is_some());
                break;
            }
            assert!(
                Instant::now() < deadline,
                "accepted job {id} stuck at `{status}`"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    call(&addr, "POST", "/admin/drain", None);
    serve_thread.join().unwrap();
    drop(server);
}

#[test]
fn per_client_quotas_isolate_tenants() {
    let (server, addr, serve_thread) = start(ServerConfig {
        name: "quota".into(),
        dir: tmp_dir("quota"),
        workers: 1,
        max_queue: 64,
        quota_burst: 2.0,
        quota_per_sec: 0.0, // no refill: the burst is the whole allowance
        ..ServerConfig::default()
    });

    // Alice burns her burst...
    for i in 0..2 {
        let resp = call(&addr, "POST", "/jobs", Some(&tiny_job(&format!("a{i}"), "alice")));
        assert_eq!(resp.status, 202, "{}", resp.text());
    }
    // ...then gets throttled with the quota taxonomy kind.
    let resp = call(&addr, "POST", "/jobs", Some(&tiny_job("a2", "alice")));
    assert_eq!(resp.status, 429, "{}", resp.text());
    let err = Json::parse(&resp.text()).unwrap();
    assert_eq!(
        err.get("error").and_then(Json::as_str),
        Some("quota_exhausted")
    );
    assert!(resp.header("retry-after").is_some());

    // Bob is unaffected: quotas are per-tenant, not global.
    let resp = call(&addr, "POST", "/jobs", Some(&tiny_job("b0", "bob")));
    assert_eq!(resp.status, 202, "{}", resp.text());

    call(&addr, "POST", "/admin/drain", None);
    serve_thread.join().unwrap();
    drop(server);
}
