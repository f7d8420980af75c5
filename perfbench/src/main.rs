//! `perfbench`: the gap finder's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `b4-dp-anytime`, `line4-dp-proof`, `jobs-fig1`. With
//! `--trace 0` the run measures the end-to-end metrics with tracing off;
//! with `--trace 1` it calls each layer in turn under in-memory spans and
//! reports the per-layer metrics, writing the spans to
//! `.perfbench/trace-<workload>-<seed>.ndjson`. Every run checks its
//! outputs; the last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is
//! nonzero when any check failed. `perfbench --worker` is the sandboxed
//! cell worker the job server self-execs.

mod jobs;
mod solver;
mod stats;
mod trace;

use stats::{median, tail, valid_metric_name};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Environment knobs that would make a number describe something other
/// than what `FinderConfig::default()` ships.
const REFUSED_ENV: [&str; 4] = [
    "METAOPT_THREADS",
    "METAOPT_FACTOR",
    "METAOPT_BUDGET_SECS",
    "METAOPT_QUICK",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch directory inside the working directory.
    pub work_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: want 0 or 1")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        let work_dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            work_dir,
        })
    }

    /// The seed's scale factor, in `[0.5, 2.5)`: it multiplies every
    /// capacity and the DP threshold of the seeded inputs.
    pub fn factor(&self) -> f64 {
        0.5 + 2.0 * (mix(self.seed) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finalizer: a well-spread hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; a failure is logged to stderr.
    pub fn op(&mut self, outcome: Result<(), String>, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}: {why}", what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics, from per-operation samples: time to the
    /// first certified incumbent, to the final result, and to the
    /// acknowledgement, with the normalized gaps of the results.
    pub fn e2e(
        &mut self,
        setup_s: f64,
        first: &[f64],
        result: &[f64],
        ack: &[f64],
        ops_per_s: f64,
        gaps: &[f64],
    ) {
        let ok_frac = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        let rss = peak_rss_mb();
        let tail_of = |s: &[f64]| tail(s).map_or(0.0, |(_, v)| v);
        self.metric("setup_s", setup_s, "s");
        self.metric("first_incumbent_s", median(first).unwrap_or(0.0), "s");
        self.metric("result_p50_s", median(result).unwrap_or(0.0), "s");
        self.metric("result_tail_s", tail_of(result), "s");
        self.metric("ack_p50_s", median(ack).unwrap_or(0.0), "s");
        self.metric("ack_tail_s", tail_of(ack), "s");
        self.metric("ops_per_s", ops_per_s, "1/s");
        self.metric("gap_norm", median(gaps).unwrap_or(0.0), "ratio");
        self.metric("ok_frac", ok_frac, "ratio");
        self.metric("peak_rss_mb", rss, "MB");
        eprintln!(
            "perfbench: {} operations; tails at p{:.0} (result) and p{:.0} (ack)",
            result.len(),
            100.0 * tail(result).map_or(0.0, |t| t.0),
            100.0 * tail(ack).map_or(0.0, |t| t.0),
        );
    }

    /// Writes the spans of a traced run next to the scratch directory.
    pub fn dump_trace(&mut self, rec: &trace::Recorder, args: &Args) {
        let path = PathBuf::from(".perfbench")
            .join(format!("trace-{}-{}.ndjson", args.workload, args.seed));
        let written = std::fs::write(&path, rec.dump()).map_err(|e| e.to_string());
        self.op(written, || format!("writing {}", path.display()));
    }

    /// The result line: every metric must be finite and well named.
    fn render(&mut self) -> String {
        let mut bad = Vec::new();
        for (name, value, _) in &self.metrics {
            if !valid_metric_name(name) || !value.is_finite() {
                bad.push(format!("{name}={value}"));
            }
        }
        if !bad.is_empty() {
            self.op(Err(bad.join(", ")), || "metric values".into());
        }
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run, all threads included, to the
/// nanosecond. Time a shared host takes the core away is not counted.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live, owned value.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The environment a number describes, as one JSON line.
fn environment(args: &Args) -> String {
    let cfg = metaopt_core::FinderConfig::default().milp_config();
    let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"factor\": {:?}, \"hardware_threads\": {hw}, \"solver_threads\": {}, \"factor_backend\": \"{}\", \"commit\": \"{commit}\"}}}}",
        args.workload,
        args.seed,
        args.factor(),
        cfg.resolved_threads(),
        cfg.factor.name(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--worker") {
        return ExitCode::from(metaopt_campaign::worker_main().clamp(0, 255) as u8);
    }
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; unset it so the numbers describe the shipped defaults");
        return ExitCode::from(2);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let case = solver::Case::parse(&args.workload);
    if case.is_none() && args.workload != "jobs-fig1" {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    println!("{}", environment(&args));

    let mut report = Report::default();
    match (case, args.trace) {
        (Some(c), false) => solver::run(c, &args, &mut report),
        (None, false) => jobs::run(&args, &mut report),
        (_, true) => {
            let rec = trace::Recorder::new();
            rec.span("perfbench.traced", || match case {
                Some(c) => solver::traced(c, &args, &rec, &mut report),
                None => jobs::traced(&args, &rec, &mut report),
            });
            report.dump_trace(&rec, &args);
        }
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    println!("{}", report.render());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
