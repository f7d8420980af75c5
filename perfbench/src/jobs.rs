//! The `jobs-fig1` workload and the service-layer probes.
//!
//! An in-process `GapServer` with the production default `sandbox on`
//! (every attempt runs in a self-exec'd `--worker` child) serves a closed
//! loop of one client per two hardware threads. Each client waits a think
//! time, submits a fig-1 DP sweep job and follows that job's
//! `GET /jobs/{id}/events` stream to its `done` event before the next.
//! Polling `GET /jobs/{id}` instead would open a connection per poll, each
//! waiting on the acceptor's 20 ms sleep.

use crate::solver::{counted_find, finder_layers};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{cpu_seconds, Args, Report};
use metaopt_campaign::{
    drive_cell, run_cell_sandboxed, CellDriveEnd, CellHeuristic, CellOutcome, CellSpec, Journal,
    SandboxConfig, SandboxEnd, SandboxLimits, SolverObs, SystemClock, TopologySpec,
};
use metaopt_obs::trace::DEFAULT_RING_CAPACITY;
use metaopt_obs::{Registry, Tracer};
use metaopt_server::client::request;
use metaopt_server::{serve, GapServer, Json, ServerConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fig-1 link capacity before the seed's scaling.
const FIG1_CAP: f64 = 100.0;
/// Jobs every load completes at the least: enough that ten samples lie
/// beyond p90.
pub const MIN_JOBS: usize = 120;
/// Server set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Jobs in the server probe of the solver workloads' traced runs.
const PROBE_JOBS: usize = 30;
/// Journal appends timed by the append probe.
const APPENDS: usize = 40;
/// Repetitions of each side of the sandbox probe.
const SANDBOX_REPS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Upper end of a client's seeded think time before each submit. It
/// spans the server acceptor's 20 ms poll period, so submissions land at
/// spread phases of the poll; without it a closed loop phase-locks to
/// the poll and its latency tail jumps between runs.
const THINK_MAX: Duration = Duration::from_millis(20);

/// Sweep resolution as a share of the capacity. `load_drill`'s tiny job
/// uses 10%, which equals `hi − lo`; for 55 of 2000 scale factors in
/// [0.5, 2.5) rounding then ends that sweep at `lo` without probing the
/// midpoint. At 8% every one of them certifies half the capacity.
const RESOLUTION: f64 = 0.08;

/// The fig-1 DP sweep job, scaled by `f`: the shape of `load_drill`'s
/// tiny job, with the resolution above.
fn job_body(f: f64, label: &str, client: &str) -> Vec<u8> {
    format!(
        concat!(
            "{{\"client\":\"{}\",\"label\":\"{}\",",
            "\"topology\":{{\"kind\":\"fig1\",\"cap\":{:?}}},",
            "\"heuristic\":{{\"kind\":\"dp\",\"threshold\":{:?}}},",
            "\"sweep\":{{\"lo\":{:?},\"hi\":{:?},\"resolution\":{:?}}},",
            "\"budget\":{{\"probe_cap_nodes\":4000,\"slice_nodes\":64}}}}"
        ),
        client,
        label,
        FIG1_CAP * f,
        0.5 * FIG1_CAP * f,
        0.45 * FIG1_CAP * f,
        0.55 * FIG1_CAP * f,
        RESOLUTION * FIG1_CAP * f,
    )
    .into_bytes()
}

/// The same job as a campaign cell, for the in-process probes.
fn fig1_cell(f: f64) -> CellSpec {
    CellSpec {
        label: "fig1-probe".into(),
        topology: TopologySpec::Fig1 { cap: FIG1_CAP * f },
        paths_per_pair: 2,
        heuristic: CellHeuristic::Dp {
            threshold: 0.5 * FIG1_CAP * f,
        },
        lo: 0.45 * FIG1_CAP * f,
        hi: 0.55 * FIG1_CAP * f,
        resolution: RESOLUTION * FIG1_CAP * f,
        probe_cap_nodes: 4000,
        slice_nodes: 64,
        timeout_secs: None,
        fault_seed: None,
        quantized: None,
    }
}

fn sandbox() -> SandboxConfig {
    SandboxConfig {
        program: std::env::current_exe().expect("own executable"),
        args: vec!["--worker".into()],
        limits: SandboxLimits::default(),
    }
}

/// An in-process server listening on loopback.
struct Server {
    server: Arc<GapServer>,
    addr: String,
    acceptor: JoinHandle<std::io::Result<()>>,
    workers: Vec<JoinHandle<()>>,
    dir: PathBuf,
}

impl Server {
    /// `gapserver serve`'s configuration (live registry and flight
    /// recorder, two workers, sandbox on) with quotas opened up so the
    /// closed loop measures capacity, not the per-client rate limit.
    fn open(dir: PathBuf) -> Server {
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            name: "perfbench".into(),
            dir: dir.clone(),
            workers: 2,
            max_queue: 64,
            quota_burst: 1e9,
            quota_per_sec: 1e9,
            registry: Registry::new(),
            tracer: Tracer::new(Arc::new(SystemClock), DEFAULT_RING_CAPACITY),
            sandbox: Some(sandbox()),
            ..ServerConfig::default()
        };
        let server = GapServer::open(cfg).expect("server opens");
        let workers = server.start_workers();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let s = Arc::clone(&server);
        let acceptor = std::thread::spawn(move || serve(&s, listener));
        Server {
            server,
            addr,
            acceptor,
            workers,
            dir,
        }
    }

    fn metrics_text(&self) -> String {
        request(&self.addr, "GET", "/metrics", None, IO_TIMEOUT)
            .map(|r| r.text())
            .unwrap_or_default()
    }

    /// Drains, joins the acceptor and every worker, and removes the
    /// server's directory.
    fn close(self) {
        self.server.drain("benchmark finished");
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Client-side timings of one completed job, as offsets from its
/// `POST /jobs`.
struct JobTimes {
    post: Instant,
    ack: f64,
    first: f64,
    done: f64,
    threshold: f64,
}

impl JobTimes {
    /// The certified threshold must be the in-process fig-1 answer, half
    /// the link capacity `FIG1_CAP * f`.
    fn gate(&self, f: f64) -> Result<(), String> {
        if (self.threshold / (FIG1_CAP * f) - 0.5).abs() <= 1e-9 {
            Ok(())
        } else {
            Err(format!("threshold {}", self.threshold))
        }
    }
}

/// Follows a job's NDJSON event stream to its terminal event.
fn follow(addr: &str, id: u64, post: Instant) -> Result<(f64, f64, f64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut scanned = 0;
    let mut first = None;
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err(format!("job {id}: stream ended before done"));
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Some(nl) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[scanned..scanned + nl])
                .trim()
                .to_string();
            scanned += nl + 1;
            if !line.starts_with('{') {
                continue; // HTTP head or chunk-size line
            }
            let ev = Json::parse(&line).map_err(|e| format!("job {id}: {e}"))?;
            let at = post.elapsed().as_secs_f64();
            match ev.get("event").and_then(Json::as_str).unwrap_or("") {
                "done" => {
                    let threshold = ev
                        .get("threshold")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN);
                    return Ok((first.unwrap_or(at), at, threshold));
                }
                "failed" | "quarantined" | "cancelled" => {
                    return Err(format!("job {id}: {line}"));
                }
                _ if ev.get("incumbent_gap").and_then(Json::as_f64).is_some() => {
                    first.get_or_insert(at);
                }
                _ => {}
            }
        }
    }
}

/// One submit-and-follow round trip.
fn one_job(addr: &str, body: &[u8]) -> Result<JobTimes, String> {
    let post = Instant::now();
    let resp = request(addr, "POST", "/jobs", Some(body), IO_TIMEOUT).map_err(|e| e.to_string())?;
    let ack = post.elapsed().as_secs_f64();
    if resp.status != 202 {
        return Err(format!("POST /jobs -> {}: {}", resp.status, resp.text()));
    }
    let id = Json::parse(&resp.text())
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .ok_or("202 without a job id")?;
    let (first, done, threshold) = follow(addr, id, post)?;
    Ok(JobTimes {
        post,
        ack,
        first,
        done,
        threshold,
    })
}

/// What one closed-loop load measured.
pub struct Load {
    jobs: Vec<JobTimes>,
    errors: Vec<String>,
    seconds: f64,
    metrics: String,
}

/// Runs `clients` closed-loop clients for `seconds`, and on until
/// `min_jobs` jobs are done.
fn load(server: &Server, args: &Args, clients: usize, seconds: f64, min_jobs: usize) -> Load {
    let start = Instant::now();
    let done = Arc::new(AtomicUsize::new(0));
    let f = args.factor();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = server.addr.clone();
            let done = Arc::clone(&done);
            let draw = crate::mix(args.seed ^ (c as u64 + 1));
            let client = format!("tenant-{:08x}", draw as u32);
            let u0 = (draw >> 11) as f64 / (1u64 << 53) as f64;
            let seed = args.seed;
            std::thread::spawn(move || {
                let mut jobs = Vec::new();
                let mut errors = Vec::new();
                let mut n = 0usize;
                while start.elapsed().as_secs_f64() < seconds
                    || done.load(Ordering::SeqCst) < min_jobs
                {
                    if start.elapsed() > Duration::from_secs(150) {
                        errors.push("load did not reach its minimum job count".into());
                        break;
                    }
                    let label = format!("s{seed}-c{c}-j{n}");
                    // A golden-ratio sequence from a seeded start: the
                    // think times cover [0, THINK_MAX) evenly in every run.
                    let phase = (u0 + n as f64 * 0.618_033_988_749_895).fract();
                    std::thread::sleep(THINK_MAX.mul_f64(phase));
                    n += 1;
                    match one_job(&addr, &job_body(f, &label, &client)) {
                        Ok(t) => {
                            done.fetch_add(1, Ordering::SeqCst);
                            jobs.push(t);
                        }
                        Err(e) => errors.push(e),
                    }
                }
                (jobs, errors)
            })
        })
        .collect();
    let mut out = Load {
        jobs: Vec::new(),
        errors: Vec::new(),
        seconds: 0.0,
        metrics: String::new(),
    };
    for h in handles {
        let (jobs, errors) = h.join().expect("client thread");
        out.jobs.extend(jobs);
        out.errors.extend(errors);
    }
    out.seconds = start.elapsed().as_secs_f64();
    out.metrics = server.metrics_text();
    out
}

impl Load {
    /// Counts every job and checks each certified threshold against the
    /// in-process fig-1 answer, half the link capacity.
    fn gate(&self, f: f64, report: &mut Report) {
        for j in &self.jobs {
            report.op(j.gate(f), || "job threshold".into());
        }
        for e in &self.errors {
            report.op(Err(e.clone()), || "job".into());
        }
    }

    fn result_p50(&self) -> f64 {
        median(&self.jobs.iter().map(|j| j.done).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// A value from Prometheus text: the sample line that starts with
/// `series` (name plus label set).
fn prom(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.strip_prefix(' '))
        })
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Closed-loop clients: one per two hardware threads, so the server, its
/// sandbox children and the clients do not contend for the cores.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| (n.get() / 2).max(1))
}

/// Median CPU time of `SETUPS` server set-ups — open (journal create and
/// fsync), workers, acceptor — and the last server, left running after
/// one untimed warm-up job has paid the first sandbox spawn. CPU time
/// leaves out the fsync wait, whose latency on a shared disk switches
/// between modes a factor of five apart from one run to the next.
fn setup(args: &Args, report: &mut Report) -> (f64, Server) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(s) = last.take() {
            Server::close(s);
        }
        let c0 = cpu_seconds();
        last = Some(Server::open(args.work_dir.join(format!("server-{i}"))));
        times.push(cpu_seconds() - c0);
    }
    let server = last.expect("SETUPS > 0");
    let body = job_body(args.factor(), &format!("s{}-warm-up", args.seed), "warm-up");
    let warm = one_job(&server.addr, &body);
    report.op(warm.and_then(|j| j.gate(args.factor())), || {
        "warm-up job".into()
    });
    (median(&times).unwrap_or(0.0), server)
}

/// The untraced run.
pub fn run(args: &Args, report: &mut Report) {
    let (setup_s, server) = setup(args, report);
    let l = load(&server, args, clients(), args.seconds, MIN_JOBS);
    server.close();
    l.gate(args.factor(), report);
    let col = |f: fn(&JobTimes) -> f64| l.jobs.iter().map(f).collect::<Vec<_>>();
    let gaps: Vec<f64> = l
        .jobs
        .iter()
        .map(|j| j.threshold / (FIG1_CAP * args.factor()))
        .collect();
    report.e2e(
        setup_s,
        &col(|j| j.first),
        &col(|j| j.done),
        &col(|j| j.ack),
        l.jobs.len() as f64 / l.seconds,
        &gaps,
    );
}

/// The traced run: an untraced and a traced half-load for the overhead,
/// the server's own counters from `/metrics`, the fig-1 solver layers,
/// and the campaign probes.
pub fn traced(args: &Args, rec: &Recorder, report: &mut Report) {
    let half = args.seconds * 0.4;
    let server = Server::open(args.work_dir.join("server-plain"));
    let plain = load(&server, args, clients(), half, 1);
    server.close();
    let server = Server::open(args.work_dir.join("server-traced"));
    let traced = load(&server, args, clients(), half, 1);
    server.close();
    plain.gate(args.factor(), report);
    traced.gate(args.factor(), report);
    for j in &traced.jobs {
        let at = |off: f64| rec.offset(j.post) + off;
        let id = rec.push("jobs.job", None, at(0.0), at(j.done));
        rec.push("server.submit", Some(id), at(0.0), at(j.ack));
        rec.push("server.events", Some(id), at(j.ack), at(j.done));
    }
    report.metric(
        "obs.trace_overhead_frac",
        traced.result_p50() / plain.result_p50() - 1.0,
        "ratio",
    );
    service_layers(rec, args, report, Some(&traced));

    // The finder's layers on the job's own model: the cell's DP threshold
    // and probe budget.
    let (inst, spec, _, cfg) = fig1_cell(args.factor()).build().expect("fig-1 cell builds");
    let (result, counts) = rec.span("core.find", || counted_find(&inst, &spec, &cfg));
    finder_layers(rec, &inst, &spec, &cfg, &result, counts, report);
}

fn in_process_once(cell: &CellSpec) -> Result<CellOutcome, String> {
    let obs = SolverObs::default();
    match drive_cell(
        cell,
        0,
        None,
        None,
        None,
        &SystemClock,
        &obs,
        &mut |_| Ok(()),
        &mut || false,
    ) {
        Ok(CellDriveEnd::Finished(o)) => Ok(o),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

fn sandboxed_once(cell: &CellSpec) -> Result<(), String> {
    let tracer = Tracer::disabled();
    match run_cell_sandboxed(
        &sandbox(),
        cell,
        0,
        None,
        None,
        None,
        &SystemClock,
        &tracer,
        &mut |_| Ok(()),
        &mut || false,
    ) {
        Ok(SandboxEnd::Finished(_)) => Ok(()),
        Ok(other) => Err(format!("{other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The campaign and server layers: the journal append probe, the
/// sandbox probe, and the server's own counters — from `load` when the
/// workload is the job load itself, else from a short sequential probe.
pub fn service_layers(rec: &Recorder, args: &Args, report: &mut Report, load_run: Option<&Load>) {
    // Journal::append (write plus fsync) on a scratch journal.
    let dir = args.work_dir.join("journal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let payload = "probe ".repeat(16);
    let appended = Journal::create(&dir).and_then(|mut j| {
        (0..APPENDS).try_for_each(|_| rec.span("campaign.append", || j.append(&payload)))
    });
    let _ = std::fs::remove_dir_all(&dir);
    report.op(appended.map_err(|e| e.to_string()), || {
        "journal append probe".into()
    });
    report.metric(
        "campaign.append_s",
        median(&rec.durations("campaign.append")).unwrap_or(0.0),
        "s",
    );

    // Sandboxed attempt minus in-process attempt of the same fig-1 cell.
    let cell = fig1_cell(args.factor());
    for _ in 0..SANDBOX_REPS {
        let r = rec.span("campaign.cell_inprocess", || in_process_once(&cell));
        report.op(r.map(|_| ()), || "in-process cell".into());
        let r = rec.span("campaign.cell_sandboxed", || sandboxed_once(&cell));
        report.op(r, || "sandboxed cell".into());
    }
    let sandboxed = median(&rec.durations("campaign.cell_sandboxed")).unwrap_or(0.0);
    let inprocess = median(&rec.durations("campaign.cell_inprocess")).unwrap_or(0.0);
    report.metric("campaign.sandbox_s", sandboxed - inprocess, "s");
    report.op(
        if sandboxed >= inprocess {
            Ok(())
        } else {
            Err(format!("{sandboxed} < {inprocess}"))
        },
        || "derived sandbox time is not negative".into(),
    );

    let probe;
    let l = match load_run {
        Some(l) => l,
        None => {
            let server = Server::open(args.work_dir.join("server-probe"));
            let start = rec.offset(Instant::now());
            probe = load(&server, args, 1, 0.0, PROBE_JOBS);
            server.close();
            rec.push("server.probe", None, start, rec.offset(Instant::now()));
            probe.gate(args.factor(), report);
            &probe
        }
    };
    server_layers(l, report);
}

/// The `/metrics` counters of a load, per job.
fn server_layers(l: &Load, report: &mut Report) {
    let m = &l.metrics;
    let jobs = prom(m, "metaopt_server_jobs_admitted_total").max(1.0);
    report.metric(
        "campaign.appends_per_job",
        prom(m, "metaopt_campaign_journal_appends_total") / jobs,
        "count",
    );
    report.metric(
        "campaign.fsyncs_per_job",
        prom(m, "metaopt_campaign_journal_fsyncs_total") / jobs,
        "count",
    );
    let submit = "{route=\"jobs_submit\"}";
    let handler = prom(m, &format!("metaopt_server_request_seconds_sum{submit}"))
        / prom(m, &format!("metaopt_server_request_seconds_count{submit}")).max(1.0);
    report.metric("server.handler_s", handler, "s");
    let acks: Vec<f64> = l.jobs.iter().map(|j| j.ack).collect();
    let accept_wait = median(&acks).unwrap_or(0.0) - handler;
    report.metric("server.accept_wait_s", accept_wait, "s");
    report.op(
        if accept_wait >= 0.0 {
            Ok(())
        } else {
            Err(format!("server.accept_wait_s = {accept_wait}"))
        },
        || "derived accept wait is not negative".into(),
    );
    report.metric(
        "server.workers_spawned_per_job",
        prom(m, "metaopt_server_workers_spawned_total") / jobs,
        "count",
    );
    report.metric(
        "server.retries",
        prom(m, "metaopt_server_jobs_retried_total"),
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_sweep_certifies_half_the_capacity_at_any_scale() {
        for i in 0..400 {
            let f = 0.5 + 2.0 * f64::from(i) / 400.0;
            let outcome = in_process_once(&fig1_cell(f));
            let threshold = outcome.map_or(f64::NAN, |o| o.threshold.unwrap_or(f64::NAN));
            assert!(
                (threshold / (FIG1_CAP * f) - 0.5).abs() <= 1e-9,
                "factor {f}: threshold {threshold}"
            );
        }
    }

    #[test]
    fn prometheus_samples_are_read_by_series() {
        let text = "# TYPE a counter\na_total 3\na_total{x=\"1\"} 5\nb_sum{route=\"r\"} 0.25\n";
        assert_eq!(prom(text, "a_total"), 3.0);
        assert_eq!(prom(text, "a_total{x=\"1\"}"), 5.0);
        assert_eq!(prom(text, "b_sum{route=\"r\"}"), 0.25);
        assert_eq!(prom(text, "missing"), 0.0);
    }
}
