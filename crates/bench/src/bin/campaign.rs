//! Crash-safe campaign harness over the paper's experiment grid.
//!
//! Unlike the one-shot `fig*.rs` harnesses, this bin runs the grid through
//! `metaopt-campaign`: every state transition is journaled, workers are
//! supervised and panic-contained, and an interrupted run — graceful drain
//! or `kill -9` — resumes from its write-ahead journal without redoing
//! completed cells or restarting in-flight branch-and-bound searches.
//!
//! ```text
//! campaign run    <dir>           start a fresh campaign in <dir>
//! campaign resume <dir>           continue after a crash or drain
//! campaign status <dir> [--json]  replay the journal and report, without
//!                                 running; `--json` emits one machine-
//!                                 readable JSON document on stdout
//! ```
//!
//! `status` exit codes are scriptable: `0` all cells done, `3` cells still
//! pending, `4` cells quarantined (quarantine wins when both apply) — so
//! CI can gate on `campaign status "$dir" --json`.
//!
//! Environment:
//! * `METAOPT_QUICK=1` — small Figure-1-only grid,
//! * `METAOPT_BUDGET_SECS` — per-cell wall-clock timeout (default 30),
//! * `METAOPT_CAMPAIGN_WORKERS` — worker threads (default 2),
//! * `METAOPT_CAMPAIGN_THREADS_PER_CELL` — branch-and-bound threads for
//!   each cell's solves (default 0: `METAOPT_THREADS` decides),
//! * `METAOPT_CAMPAIGN_DEADLINE_SECS` — drain gracefully after this many
//!   seconds, checkpointing in-flight sweeps (resume later with `resume`).

use metaopt_bench::{budget_secs, quick_mode, CsvOut};
use metaopt_campaign::{
    resume, run, status, CampaignConfig, CampaignState, CellHeuristic, CellSpec, CellStatus,
    RunEnd, ShutdownFlag, TopologySpec,
};
use metaopt_obs::trace::DEFAULT_RING_CAPACITY;
use metaopt_obs::{SystemClock, Tracer};
use metaopt_resilience::RetryPolicy;
use metaopt_server::Json;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fig1_cells(timeout: Option<f64>) -> Vec<CellSpec> {
    let mut cells: Vec<CellSpec> = [30.0, 50.0, 70.0]
        .into_iter()
        .map(|threshold| CellSpec {
            label: format!("fig1-dp-{threshold}"),
            topology: TopologySpec::Fig1 { cap: 100.0 },
            paths_per_pair: 2,
            heuristic: CellHeuristic::Dp { threshold },
            lo: 0.0,
            hi: 100.0,
            resolution: 2.0,
            probe_cap_nodes: 8_000,
            slice_nodes: 64,
            timeout_secs: timeout,
            fault_seed: None,
            quantized: None,
        })
        .collect();
    for (mode, tail_rank) in [("avg", None), ("tail0", Some(0))] {
        cells.push(CellSpec {
            label: format!("fig1-pop-2x3-{mode}"),
            topology: TopologySpec::Fig1 { cap: 100.0 },
            paths_per_pair: 2,
            heuristic: CellHeuristic::Pop {
                n_parts: 2,
                n_insts: 3,
                seed: 42,
                tail_rank,
            },
            lo: 0.0,
            hi: 100.0,
            resolution: 2.0,
            probe_cap_nodes: 8_000,
            slice_nodes: 64,
            timeout_secs: timeout,
            fault_seed: None,
            quantized: None,
        });
    }
    cells
}

fn wan_cells(timeout: Option<f64>) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for name in ["swan", "b4", "abilene", "geant"] {
        for (variant, quantized) in [
            ("cont", None),
            ("quant", Some(vec![0.0, 50.0, 1000.0])),
        ] {
            cells.push(CellSpec {
                label: format!("{name}-dp-50-{variant}"),
                topology: TopologySpec::Builtin {
                    name: name.into(),
                    cap: 1000.0,
                },
                paths_per_pair: 2,
                heuristic: CellHeuristic::Dp { threshold: 50.0 },
                lo: 0.0,
                hi: 1000.0,
                resolution: 50.0,
                probe_cap_nodes: 50_000,
                slice_nodes: 512,
                timeout_secs: timeout,
                fault_seed: None,
                quantized,
            });
        }
    }
    cells
}

fn grid() -> Vec<CellSpec> {
    let timeout = Some(budget_secs());
    let mut cells = fig1_cells(timeout);
    if !quick_mode() {
        cells.extend(wan_cells(timeout));
    }
    cells
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn config() -> CampaignConfig {
    let deadline = std::env::var("METAOPT_CAMPAIGN_DEADLINE_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|secs| Instant::now() + Duration::from_secs_f64(secs));
    CampaignConfig {
        workers: env_usize("METAOPT_CAMPAIGN_WORKERS", 2),
        retry: RetryPolicy::default(),
        deadline,
        threads_per_cell: env_usize("METAOPT_CAMPAIGN_THREADS_PER_CELL", 0),
        ..CampaignConfig::default()
    }
}

fn report(state: &CampaignState) {
    let mut csv = CsvOut::new(
        "campaign",
        &["cell", "status", "threshold", "gap", "probes", "nodes"],
    );
    let num = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
    for (cell, st) in state.cells.iter().zip(&state.status) {
        let row = match st {
            CellStatus::Done(o) => [
                cell.label.clone(),
                "done".into(),
                num(o.threshold),
                num(o.verified_gap),
                o.probes.to_string(),
                o.nodes.to_string(),
            ],
            CellStatus::Quarantined { reason, attempts } => [
                cell.label.clone(),
                format!("quarantined:{reason} after {attempts} attempts"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
            CellStatus::Pending { attempt, resume } => [
                cell.label.clone(),
                format!(
                    "pending (attempt {attempt}{})",
                    if resume.is_some() { ", checkpointed" } else { "" }
                ),
                "-".into(),
                "-".into(),
                "-".into(),
                resume.as_ref().map_or("0".into(), |r| r.nodes.to_string()),
            ],
        };
        csv.row(row);
    }
    csv.print();
    if let Ok(path) = csv.flush() {
        println!("\nseries written to {}", path.display());
    }
    let (done, quarantined, pending) = state.counts();
    println!("done {done}, quarantined {quarantined}, pending {pending}");
}

/// Machine-readable status document: everything `report` prints, as JSON.
fn status_json(state: &CampaignState) -> Json {
    let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let cells: Vec<Json> = state
        .cells
        .iter()
        .zip(&state.status)
        .map(|(cell, st)| {
            let mut pairs = vec![("label", Json::str(cell.label.clone()))];
            match st {
                CellStatus::Done(o) => {
                    pairs.push(("status", Json::str("done")));
                    pairs.push(("threshold", opt_num(o.threshold)));
                    pairs.push(("verified_gap", opt_num(o.verified_gap)));
                    pairs.push(("probes", Json::Num(o.probes as f64)));
                    pairs.push(("nodes", Json::Num(o.nodes as f64)));
                }
                CellStatus::Quarantined { reason, attempts } => {
                    pairs.push(("status", Json::str("quarantined")));
                    pairs.push(("reason", Json::str(reason.kind())));
                    pairs.push(("attempts", Json::Num(*attempts as f64)));
                }
                CellStatus::Pending { attempt, resume } => {
                    pairs.push(("status", Json::str("pending")));
                    pairs.push(("attempts_failed", Json::Num(*attempt as f64)));
                    pairs.push(("checkpointed", Json::Bool(resume.is_some())));
                    if let Some(r) = resume {
                        pairs.push(("nodes", Json::Num(r.nodes as f64)));
                    }
                }
            }
            Json::obj(pairs)
        })
        .collect();
    let (done, quarantined, pending) = state.counts();
    Json::obj(vec![
        ("name", Json::str(state.name.clone())),
        ("cells", Json::Arr(cells)),
        ("done", Json::Num(done as f64)),
        ("quarantined", Json::Num(quarantined as f64)),
        ("pending", Json::Num(pending as f64)),
    ])
}

/// `0` all done, `4` anything quarantined, `3` anything still pending.
fn status_exit(state: &CampaignState) -> ExitCode {
    let (_, quarantined, pending) = state.counts();
    if quarantined > 0 {
        ExitCode::from(4)
    } else if pending > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    // Diagnostics go through the obs event API (flight recorder dumped
    // on panic); stderr bytes are identical to the old `eprintln!`s.
    let tracer = Tracer::new(Arc::new(SystemClock), DEFAULT_RING_CAPACITY);
    tracer.install_panic_dump();
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: campaign <run|resume|status> <dir> [--json]";
    let (cmd, dir) = match (args.get(1), args.get(2)) {
        (Some(c), Some(d)) => (c.as_str(), Path::new(d)),
        _ => {
            tracer.log_stderr("bench.usage", usage);
            return ExitCode::from(2);
        }
    };
    let json_flag = args.iter().skip(3).any(|a| a == "--json");
    let outcome = match cmd {
        "run" => {
            let cells = grid();
            println!(
                "campaign: {} cells, {} workers, journal at {}\n",
                cells.len(),
                config().workers,
                dir.join(metaopt_campaign::JOURNAL_FILE).display()
            );
            run(dir, "bench", cells, &config(), &ShutdownFlag::new())
        }
        "resume" => resume(dir, &config(), &ShutdownFlag::new()),
        "status" => {
            return match status(dir) {
                Ok(st) => {
                    if json_flag {
                        println!("{}", status_json(&st).render());
                    } else {
                        report(&st);
                    }
                    status_exit(&st)
                }
                Err(e) => {
                    tracer.log_stderr("bench.status_failed", &format!("status failed: {e}"));
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            tracer.log_stderr(
                "bench.bad_command",
                &format!("unknown command `{other}`\n{usage}"),
            );
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(rep) => {
            report(&rep.state);
            match rep.end {
                RunEnd::Complete => ExitCode::SUCCESS,
                RunEnd::Drained => {
                    println!("\ndrained before completion — resume with `campaign resume`");
                    ExitCode::from(3)
                }
            }
        }
        Err(e) => {
            tracer.log_stderr("bench.campaign_failed", &format!("campaign failed: {e}"));
            ExitCode::FAILURE
        }
    }
}
