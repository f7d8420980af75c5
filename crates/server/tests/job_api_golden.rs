//! Golden transcripts of the job API: every response body of four job
//! lifecycles, byte for byte, against `tests/golden/job_api/<name>.txt`.
//!
//! * `done` — a fig-1 DP sweep job runs to its certified result;
//! * `cancelled` — a job cancelled with `DELETE` while it is queued;
//! * `quarantined` — a job whose attempt panics (`FaultSite::EvalPanic`);
//! * `replayed` — a done job and a pending job (a checkpoint and one
//!   failed attempt) after [`GapServer::open`] replays their journal; the
//!   pending one then resumes and runs to done.
//!
//! Event streams are compared de-chunked. Cells run in-process (no
//! sandbox) on one solver thread over the sparse LU backend, so no
//! environment knob moves a node count. Rerun with `METAOPT_BLESS=1` to
//! regenerate the goldens after an intentional change to the API's bytes.

use metaopt_campaign::{drive_cell, CellDriveEnd, JobRecord, Journal, SolverObs, SystemClock};
use metaopt_core::FactorBackend;
use metaopt_resilience::{FaultPlan, FaultSite};
use metaopt_server::client::request;
use metaopt_server::{parse_submit, serve, GapServer, ServerConfig};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The fig-1 DP sweep job of the `jobs-fig1` benchmark at scale 1: one
/// checkpoint before its certified result.
const JOB: &str = concat!(
    "{\"client\":\"alice\",\"label\":\"golden\",",
    "\"topology\":{\"kind\":\"fig1\",\"cap\":100.0},",
    "\"heuristic\":{\"kind\":\"dp\",\"threshold\":50.0},",
    "\"sweep\":{\"lo\":45.0,\"hi\":55.0,\"resolution\":8.0},",
    "\"budget\":{\"probe_cap_nodes\":4000,\"slice_nodes\":64}}"
);

fn config(tag: &str) -> ServerConfig {
    let dir = std::env::temp_dir().join(format!("metaopt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ServerConfig {
        name: format!("golden-{tag}"),
        dir,
        workers: 1,
        default_threads: 1,
        default_factor: Some(FactorBackend::SparseLU),
        ..ServerConfig::default()
    }
}

/// A server behind a loopback listener, with or without its worker pool,
/// recording every exchange into a transcript.
struct Live {
    server: Arc<GapServer>,
    addr: String,
    acceptor: JoinHandle<std::io::Result<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Live {
    fn start(cfg: ServerConfig, workers: bool) -> Live {
        let server = GapServer::open(cfg).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let s = Arc::clone(&server);
        let acceptor = std::thread::spawn(move || serve(&s, listener));
        let mut live = Live {
            server,
            addr,
            acceptor,
            workers: Vec::new(),
        };
        if workers {
            live.start_workers();
        }
        live
    }

    fn start_workers(&mut self) {
        self.workers = self.server.start_workers();
    }

    /// One request; appends `METHOD path -> status` and the body to `out`.
    fn call(&self, out: &mut String, method: &str, path: &str, body: Option<&[u8]>) {
        let resp = request(&self.addr, method, path, body, Duration::from_secs(120)).unwrap();
        let text = resp.text();
        let _ = writeln!(out, "{method} {path} -> {}", resp.status);
        out.push_str(&text);
        if !text.ends_with('\n') {
            out.push('\n');
        }
    }

    fn stop(self) {
        self.server.drain("golden transcript");
        self.acceptor.join().unwrap().unwrap();
        for w in self.workers {
            w.join().unwrap();
        }
    }
}

fn check(name: &str, transcript: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/job_api")
        .join(format!("{name}.txt"));
    if std::env::var_os("METAOPT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, transcript).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        transcript,
        golden,
        "the job API's bytes drifted from {}; rerun with METAOPT_BLESS=1 if the change is intentional",
        path.display()
    );
}

#[test]
fn done_job_transcript() {
    let cfg = config("done");
    let dir = cfg.dir.clone();
    let live = Live::start(cfg, true);
    let mut out = String::new();
    live.call(&mut out, "POST", "/jobs", Some(JOB.as_bytes()));
    live.call(&mut out, "GET", "/jobs/1/events", None);
    live.call(&mut out, "GET", "/jobs/1", None);
    live.call(&mut out, "GET", "/jobs", None);
    live.call(&mut out, "GET", "/healthz", None);
    live.stop();
    let _ = std::fs::remove_dir_all(dir);
    check("done", &out);
}

#[test]
fn cancelled_queued_job_transcript() {
    let cfg = config("cancelled");
    let dir = cfg.dir.clone();
    // No worker pool: the job stays queued until the cancel lands.
    let live = Live::start(cfg, false);
    let mut out = String::new();
    live.call(&mut out, "POST", "/jobs", Some(JOB.as_bytes()));
    live.call(&mut out, "DELETE", "/jobs/1", None);
    live.call(&mut out, "GET", "/jobs/1/events", None);
    live.call(&mut out, "GET", "/jobs/1", None);
    live.call(&mut out, "DELETE", "/jobs/1", None);
    live.call(&mut out, "GET", "/healthz", None);
    live.stop();
    let _ = std::fs::remove_dir_all(dir);
    check("cancelled", &out);
}

#[test]
fn quarantined_job_transcript() {
    let mut cfg = config("quarantined");
    cfg.fault_plan = Some(FaultPlan::new().inject(FaultSite::EvalPanic));
    let dir = cfg.dir.clone();
    let live = Live::start(cfg, true);
    let mut out = String::new();
    live.call(&mut out, "POST", "/jobs", Some(JOB.as_bytes()));
    live.call(&mut out, "GET", "/jobs/1/events", None);
    live.call(&mut out, "GET", "/jobs/1", None);
    live.call(&mut out, "GET", "/healthz", None);
    live.stop();
    let _ = std::fs::remove_dir_all(dir);
    check("quarantined", &out);
}

#[test]
fn replayed_jobs_transcript() {
    let cfg = config("replayed");
    let dir = cfg.dir.clone();

    // First boot: job 1 runs to done, then the server drains.
    let live = Live::start(cfg.clone(), true);
    let mut first = String::new();
    live.call(&mut first, "POST", "/jobs", Some(JOB.as_bytes()));
    live.call(&mut first, "GET", "/jobs/1/events", None);
    live.stop();

    // Job 2 as a killed server would leave it: admitted, one attempt that
    // journaled its first checkpoint and then failed.
    let submit = parse_submit(JOB.as_bytes()).unwrap();
    let mut paused = None;
    let end = drive_cell(
        &submit.spec,
        1,
        Some(FactorBackend::SparseLU),
        None,
        None,
        &SystemClock,
        &SolverObs::default(),
        &mut |st| {
            paused = Some(st.clone());
            Ok(())
        },
        &mut || true,
    )
    .unwrap();
    assert!(matches!(end, CellDriveEnd::Stopped), "{end:?}");
    let mut journal = Journal::open_append(&dir).unwrap();
    let records = [
        JobRecord::Submit {
            id: 2,
            client: submit.client,
            priority: submit.priority,
            threads: submit.threads,
            spec: Box::new(submit.spec),
        },
        JobRecord::Run {
            id: 2,
            attempt: 1,
            fence: 2,
        },
        JobRecord::Ckpt {
            id: 2,
            state: Box::new(paused.expect("the job pauses at a checkpoint")),
        },
        JobRecord::Fail {
            id: 2,
            attempt: 1,
            kind: "timeout".into(),
            detail: "cell exceeded Some(1.0)s".into(),
        },
    ];
    for record in &records {
        journal.append(&record.encode()).unwrap();
    }
    drop(journal);

    // Second boot replays both; job 2 is served pending, then resumes.
    let mut live = Live::start(cfg, false);
    let mut out = String::new();
    live.call(&mut out, "GET", "/jobs", None);
    live.call(&mut out, "GET", "/jobs/1", None);
    live.call(&mut out, "GET", "/jobs/1/events", None);
    live.call(&mut out, "GET", "/jobs/2", None);
    live.call(&mut out, "GET", "/healthz", None);
    live.start_workers();
    live.call(&mut out, "GET", "/jobs/2/events", None);
    live.call(&mut out, "GET", "/jobs/2", None);
    live.call(&mut out, "GET", "/healthz", None);
    live.stop();
    let _ = std::fs::remove_dir_all(dir);
    check("replayed", &out);
}
