//! `load_drill` — an in-process overload drill against the gap-finding
//! job server: pins the worker pool, fires a burst of submissions at a
//! deliberately small admission queue, and reports the shedding behaviour
//! as one JSON document on stdout.
//!
//! ```text
//! load_drill [--chaos] [burst] [max_queue]        (defaults: 120 8)
//! ```
//!
//! Exit code 0 when the overload contract held: the queue never exceeded
//! its bound, every rejection carried `429 Retry-After`, and every
//! acknowledged job reached a certified terminal result. Nonzero
//! otherwise — so CI can run this as a drill, not just a benchmark.
//!
//! `--chaos` turns on process chaos: jobs execute in sandboxed worker
//! children (self-exec of this binary in `--worker` mode) and the drill
//! SIGKILLs live workers while the backlog drains. The contract is
//! unchanged — every acknowledged job must still reach a certified
//! result, because a killed worker is a retryable `worker_exit` fault,
//! not a loss.

use metaopt_campaign::{SandboxConfig, SandboxLimits};
use metaopt_obs::trace::DEFAULT_RING_CAPACITY;
use metaopt_obs::{SystemClock, Tracer};
use metaopt_server::client::request;
use metaopt_server::{serve, GapServer, Json, ServerConfig};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Chaos-mode burst job: real branch-and-bound work (~1s per job) so the
/// backlog drains slowly enough for the killer to catch workers mid-cell
/// — the fig1 cells above finish in milliseconds, which starves the
/// chaos of victims.
fn chaos_job(label: &str, client: &str) -> Vec<u8> {
    format!(
        concat!(
            "{{\"client\":\"{}\",\"label\":\"{}\",",
            "\"topology\":{{\"kind\":\"builtin\",\"name\":\"abilene\",\"cap\":100.0}},",
            "\"heuristic\":{{\"kind\":\"dp\",\"threshold\":50.0}},",
            "\"sweep\":{{\"lo\":0.0,\"hi\":100.0,\"resolution\":4.0}},",
            "\"budget\":{{\"probe_cap_nodes\":50000,\"slice_nodes\":8}}}}"
        ),
        client, label
    )
    .into_bytes()
}

/// Live children of this process running in `--worker` mode, via
/// `/proc` (ppid is field 2 after the parenthesised comm in `stat`).
fn worker_children() -> Vec<u32> {
    let me = std::process::id();
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .and_then(|rest| rest.split_whitespace().nth(1)?.parse::<u32>().ok());
        if ppid != Some(me) {
            continue;
        }
        let cmdline = std::fs::read_to_string(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if cmdline.split('\0').any(|a| a == "--worker") {
            out.push(pid);
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // Hidden dispatch: `--worker` runs this binary as the sandboxed
    // cell worker, exactly like `gapserver --worker`.
    if args.get(1).is_some_and(|a| a == "--worker") {
        return ExitCode::from(metaopt_campaign::worker_main().clamp(0, 255) as u8);
    }
    // Structured diagnostics; stderr stays byte-identical to the old
    // plain `eprintln!` lines.
    let tracer = Tracer::new(Arc::new(SystemClock), DEFAULT_RING_CAPACITY);
    tracer.install_panic_dump();
    let chaos = args.iter().any(|a| a == "--chaos");
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let burst: usize = positional.first().and_then(|s| s.parse().ok()).unwrap_or(120);
    let max_queue: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let sandbox = if chaos {
        let program = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                tracer.log_stderr(
                    "load_drill.no_self_exe",
                    &format!("load_drill: cannot self-exec for --chaos: {e}"),
                );
                return ExitCode::FAILURE;
            }
        };
        Some(SandboxConfig {
            program,
            args: vec!["--worker".into()],
            limits: SandboxLimits::default(),
        })
    } else {
        None
    };

    let dir = std::env::temp_dir().join(format!("metaopt-load-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = match GapServer::open(ServerConfig {
        name: "load-drill".into(),
        dir: dir.clone(),
        workers: 1,
        max_queue,
        quota_burst: burst as f64 * 2.0,
        quota_per_sec: burst as f64,
        sandbox,
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            tracer.log_stderr("load_drill.open_failed", &format!("load_drill: open: {e}"));
            return ExitCode::FAILURE;
        }
    };
    server.start_workers();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serve_server = Arc::clone(&server);
    // an:allow(AN104): drill binary, not a supervised worker — a panic in
    // the acceptor aborts the whole drill loudly, which is the right
    // outcome for a benchmark; there are no slots or supervisors to wedge.
    let serve_thread = std::thread::spawn(move || serve(&serve_server, listener));

    let call = |method: &str, path: &str, body: Option<&[u8]>| {
        request(&addr, method, path, body, Duration::from_secs(120)).expect("drill request")
    };

    // Pin the single worker with a long job so the burst meets a queue
    // that only fills, never drains. The sweep probes gaps between 1000
    // and 2000; the incumbent callback certifies about 1600 at the root
    // and the root bound is 2800, so branch-and-bound has to settle the
    // upper probes.
    let long = concat!(
        "{\"client\":\"pin\",\"label\":\"pin\",",
        "\"topology\":{\"kind\":\"builtin\",\"name\":\"abilene\",\"cap\":100.0},",
        "\"heuristic\":{\"kind\":\"dp\",\"threshold\":50.0},",
        "\"sweep\":{\"lo\":1000.0,\"hi\":2000.0,\"resolution\":4.0},",
        "\"budget\":{\"probe_cap_nodes\":2000000,\"slice_nodes\":8}}"
    );
    let resp = call("POST", "/jobs", Some(long.as_bytes()));
    assert_eq!(resp.status, 202, "pin job refused: {}", resp.text());
    let pin_id = Json::parse(&resp.text())
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();

    let burst_start = Instant::now();
    let mut accepted: Vec<u64> = Vec::new();
    let mut shed = 0usize;
    let mut shed_without_retry_after = 0usize;
    let mut max_depth_seen = 0u64;
    let mut ok = true;
    for i in 0..burst {
        let body = if chaos {
            chaos_job(&format!("burst-{i}"), &format!("tenant-{}", i % 7))
        } else {
            tiny_job(&format!("burst-{i}"), &format!("tenant-{}", i % 7))
        };
        let resp = call("POST", "/jobs", Some(&body));
        match resp.status {
            202 => {
                let id = Json::parse(&resp.text())
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_u64)
                    .unwrap();
                accepted.push(id);
            }
            429 => {
                shed += 1;
                if resp.header("retry-after").is_none() {
                    shed_without_retry_after += 1;
                    ok = false;
                }
            }
            other => {
                tracer.log_stderr(
                    "load_drill.unexpected_status",
                    &format!("load_drill: unexpected status {other}: {}", resp.text()),
                );
                ok = false;
            }
        }
        let health = Json::parse(&call("GET", "/healthz", None).text()).unwrap();
        let depth = health.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
        max_depth_seen = max_depth_seen.max(depth);
        if depth > max_queue as u64 {
            ok = false;
        }
    }
    let burst_secs = burst_start.elapsed().as_secs_f64();

    // Release the worker and confirm no acknowledged job was dropped.
    call("DELETE", &format!("/jobs/{pin_id}"), None);

    // Process chaos: SIGKILL live worker children while the backlog
    // drains. Two kills maximum — the default retry policy allows three
    // attempts, so no single job can be chased into quarantine by the
    // killer alone, which keeps the pass criterion exact.
    let killer_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let killer = chaos.then(|| {
        let stop = Arc::clone(&killer_stop);
        std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut kills = 0usize;
                while kills < 2 && !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    if let Some(&pid) = worker_children().first() {
                        // an:allow(AN106): the chaos *killer*, not a
                        // worker — it spawns /bin/kill to deliver the
                        // SIGKILL the drill is about; nothing here needs
                        // supervision.
                        let delivered = std::process::Command::new("kill")
                            .args(["-9", &pid.to_string()])
                            .status()
                            .is_ok_and(|s| s.success());
                        if delivered {
                            kills += 1;
                            std::thread::sleep(Duration::from_millis(400));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
                kills
            }))
            .unwrap_or(0)
        })
    });

    let settle_start = Instant::now();
    let deadline = settle_start + Duration::from_secs(300);
    let mut completed = 0usize;
    for id in &accepted {
        loop {
            let job = Json::parse(&call("GET", &format!("/jobs/{id}"), None).text()).unwrap();
            match job.get("status").and_then(Json::as_str).unwrap_or("?") {
                "done" => {
                    completed += 1;
                    break;
                }
                "quarantined" | "cancelled" => {
                    ok = false;
                    break;
                }
                _ if Instant::now() >= deadline => {
                    ok = false;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
    let settle_secs = settle_start.elapsed().as_secs_f64();
    killer_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let workers_killed = killer.map_or(0, |k| k.join().unwrap_or(0));
    if chaos && workers_killed == 0 {
        // Chaos that never fired proves nothing; fail the drill loudly.
        tracer.log_stderr(
            "load_drill.chaos_idle",
            "load_drill: --chaos requested but no worker child was ever killed",
        );
        ok = false;
    }

    call("POST", "/admin/drain", None);
    let _ = serve_thread.join();
    let _ = std::fs::remove_dir_all(&dir);

    let contract_held =
        ok && shed + accepted.len() == burst && completed == accepted.len() && shed > 0;
    let summary = Json::obj(vec![
        ("burst", Json::Num(burst as f64)),
        ("max_queue", Json::Num(max_queue as f64)),
        ("accepted", Json::Num(accepted.len() as f64)),
        ("shed_429", Json::Num(shed as f64)),
        (
            "shed_missing_retry_after",
            Json::Num(shed_without_retry_after as f64),
        ),
        ("max_queue_depth_seen", Json::Num(max_depth_seen as f64)),
        ("accepted_completed", Json::Num(completed as f64)),
        ("burst_secs", Json::Num(burst_secs)),
        ("settle_secs", Json::Num(settle_secs)),
        ("chaos", Json::Bool(chaos)),
        ("workers_killed", Json::Num(workers_killed as f64)),
        ("contract_held", Json::Bool(contract_held)),
    ]);
    println!("{}", summary.render());
    if contract_held {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
