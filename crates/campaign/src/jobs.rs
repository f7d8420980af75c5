//! The job server's durable job store, built on the same write-ahead
//! journal machinery as campaigns ([`crate::journal`]): every job-lifecycle
//! transition is one CRC-checked record, appended and synced *before* the
//! transition is acknowledged anywhere else — the admission `202` is only
//! sent after the `job` record is durable, which is what makes "every
//! acknowledged job survives `kill -9`" a provable contract rather than a
//! best effort.
//!
//! Record vocabulary (the payload inside each `J1` envelope):
//!
//! ```text
//! jobs v1 <server-name>                    header, always first
//! job <id> <client> <prio> <threads> <spec…>  admission (durable before the ack)
//! cancel <id>                              client requested cancellation
//! run <id> <attempt> <fence>               a pool worker picked the job up
//! ckpt <id> <sweep-state…>                 durable tick boundary
//! done <id> <outcome…>                     certified completion (terminal)
//! fail <id> <attempt> <kind> <detail>      attempt failed; retry may follow
//! quarantine <id> <reason> <attempts>      gave up on the job (terminal)
//! cancelled <id>                           cancellation drained (terminal)
//! shutdown <reason>                        graceful drain finished
//! ```
//!
//! Unlike a campaign (a fixed grid declared up front), jobs arrive
//! dynamically, so there is no cell count in the header; ids are assigned
//! monotonically by the server and replay enforces that they are strictly
//! increasing. Replay is otherwise as strict as the campaign's: unknown
//! kinds, undeclared ids, and transitions on terminal jobs are all
//! [`CampaignError::Corrupt`].

use crate::cell::{decode_sweep_state, encode_sweep_state, CellOutcome, CellSpec};
use crate::journal::read_journal;
use crate::state::FailureRecord;
use crate::{wire, CampaignError};
use metaopt_core::SweepState;
use metaopt_resilience::QuarantineReason;
use std::collections::BTreeMap;
use std::path::Path;

/// Job-journal format/version header tag.
pub const JOBS_MAGIC: &str = "jobs v1";

/// One typed record of the job journal. [`JobRecord::encode`] produces the
/// payload the journal envelope wraps; [`JobRecord::decode`] is its strict
/// inverse (it never panics on untrusted post-crash bytes).
#[derive(Debug, Clone)]
pub enum JobRecord {
    /// Admission: the job exists once this record is durable.
    Submit {
        /// Server-assigned monotone job id.
        id: u64,
        /// Client identity (quota accounting).
        client: String,
        /// Priority class, `0` = most urgent.
        priority: u8,
        /// Per-job `FinderConfig::threads` cap (`0` = spec default).
        threads: usize,
        /// The work itself.
        spec: Box<CellSpec>,
    },
    /// A client asked for cancellation (drain to checkpoint, then stop).
    Cancel {
        /// Target job.
        id: u64,
    },
    /// A pool worker picked the job up.
    Run {
        /// Target job.
        id: u64,
        /// 1-based attempt number.
        attempt: usize,
        /// Fencing token of the lease this attempt runs under (strictly
        /// monotone per claim; `0` in journals written before fencing
        /// existed). Replay ignores it, but journaling the token with
        /// the claim makes every stale-write rejection auditable.
        fence: u64,
    },
    /// Durable tick boundary of the job's sweep.
    Ckpt {
        /// Target job.
        id: u64,
        /// The resumable state at the boundary.
        state: Box<SweepState>,
    },
    /// Certified completion. Terminal.
    Done {
        /// Target job.
        id: u64,
        /// The certified outcome.
        outcome: CellOutcome,
    },
    /// A failed attempt (retry may follow).
    Fail {
        /// Target job.
        id: u64,
        /// Which attempt failed (1-based).
        attempt: usize,
        /// Failure-taxonomy kind (`fatal`/`panic`/`solver`/`timeout`).
        kind: String,
        /// Free-form detail.
        detail: String,
    },
    /// The supervisor gave up on the job. Terminal.
    Quarantine {
        /// Target job.
        id: u64,
        /// Why.
        reason: QuarantineReason,
        /// Attempts burnt.
        attempts: usize,
    },
    /// Cancellation completed. Terminal.
    Cancelled {
        /// Target job.
        id: u64,
    },
    /// Graceful drain finished.
    Shutdown {
        /// Why the server drained.
        reason: String,
    },
}

impl JobRecord {
    /// Encodes the record as a journal payload.
    pub fn encode(&self) -> String {
        match self {
            JobRecord::Submit {
                id,
                client,
                priority,
                threads,
                spec,
            } => format!(
                "job {id} {} {priority} {threads} {}",
                wire::escape(client),
                spec.encode()
            ),
            JobRecord::Cancel { id } => format!("cancel {id}"),
            JobRecord::Run { id, attempt, fence } => format!("run {id} {attempt} {fence}"),
            JobRecord::Ckpt { id, state } => {
                format!("ckpt {id} {}", encode_sweep_state(state))
            }
            JobRecord::Done { id, outcome } => format!("done {id} {}", outcome.encode()),
            JobRecord::Fail {
                id,
                attempt,
                kind,
                detail,
            } => format!(
                "fail {id} {attempt} {} {}",
                wire::escape(kind),
                wire::escape(detail)
            ),
            JobRecord::Quarantine {
                id,
                reason,
                attempts,
            } => format!("quarantine {id} {} {attempts}", reason.kind()),
            JobRecord::Cancelled { id } => format!("cancelled {id}"),
            JobRecord::Shutdown { reason } => format!("shutdown {}", wire::escape(reason)),
        }
    }

    /// Decodes a journal payload. Errors, never panics, on malformed
    /// input — journal bytes are untrusted after a crash.
    pub fn decode(payload: &str) -> Result<JobRecord, String> {
        let (kind, rest) = payload.split_once(' ').unwrap_or((payload, ""));
        if kind == "shutdown" {
            return Ok(JobRecord::Shutdown {
                reason: wire::unescape(rest)?,
            });
        }
        let (id_tok, body) = rest.split_once(' ').unwrap_or((rest, ""));
        let id = wire::parse_u64(id_tok, "job id")?;
        Ok(match kind {
            "job" => {
                let (client_tok, r) = body
                    .split_once(' ')
                    .ok_or_else(|| "job record missing client".to_string())?;
                let (prio_tok, r) = r
                    .split_once(' ')
                    .ok_or_else(|| "job record missing priority".to_string())?;
                let (threads_tok, spec_body) = r
                    .split_once(' ')
                    .ok_or_else(|| "job record missing threads".to_string())?;
                let priority = prio_tok
                    .parse::<u8>()
                    .map_err(|_| format!("bad priority `{prio_tok}`"))?;
                JobRecord::Submit {
                    id,
                    client: wire::unescape(client_tok)?,
                    priority,
                    threads: wire::parse_usize(threads_tok, "threads")?,
                    spec: Box::new(CellSpec::decode(spec_body)?),
                }
            }
            "cancel" => {
                if !body.is_empty() {
                    return Err("trailing tokens after cancel".into());
                }
                JobRecord::Cancel { id }
            }
            "run" => {
                // Pre-fencing journals wrote `run <id> <attempt>`; the
                // fence token is a back-compatible third field.
                let (attempt_tok, fence_tok) = body.split_once(' ').unwrap_or((body, "0"));
                JobRecord::Run {
                    id,
                    attempt: wire::parse_usize(attempt_tok, "attempt")?,
                    fence: wire::parse_u64(fence_tok, "fence")?,
                }
            }
            "ckpt" => JobRecord::Ckpt {
                id,
                state: Box::new(decode_sweep_state(body)?),
            },
            "done" => JobRecord::Done {
                id,
                outcome: CellOutcome::decode(body)?,
            },
            "fail" => {
                let mut tok = body.splitn(3, ' ');
                let attempt = wire::parse_usize(tok.next().unwrap_or(""), "attempt")?;
                let fkind = tok
                    .next()
                    .ok_or_else(|| "missing fault kind".to_string())?;
                JobRecord::Fail {
                    id,
                    attempt,
                    kind: wire::unescape(fkind)?,
                    detail: wire::unescape(tok.next().unwrap_or("~"))?,
                }
            }
            "quarantine" => {
                let (reason_tok, attempts_tok) = body
                    .split_once(' ')
                    .ok_or_else(|| "quarantine missing attempts".to_string())?;
                JobRecord::Quarantine {
                    id,
                    reason: QuarantineReason::from_kind(reason_tok)
                        .ok_or_else(|| format!("unknown quarantine reason `{reason_tok}`"))?,
                    attempts: wire::parse_usize(attempts_tok, "attempts")?,
                }
            }
            "cancelled" => {
                if !body.is_empty() {
                    return Err("trailing tokens after cancelled".into());
                }
                JobRecord::Cancelled { id }
            }
            other => return Err(format!("unknown job record kind `{other}`")),
        })
    }
}

/// Replayed lifecycle state of one job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Admitted but not finished: run (or re-run) it, continuing from
    /// `resume` if set. `cancel_requested` jobs drain to their next
    /// checkpoint and then become [`JobStatus::Cancelled`].
    Pending {
        /// Attempts already burnt (failed runs).
        attempt: usize,
        /// Last durable tick boundary, if any; boxed, so that a finished
        /// job's status stays small.
        resume: Option<Box<SweepState>>,
        /// Whether a `cancel` record has been journaled.
        cancel_requested: bool,
    },
    /// Completed with a certified outcome. Terminal.
    Done(CellOutcome),
    /// Given up after repeated failures. Terminal.
    Quarantined {
        /// Why the supervisor gave up.
        reason: QuarantineReason,
        /// Attempts burnt before giving up.
        attempts: usize,
    },
    /// Cancellation drained. Terminal.
    Cancelled,
}

impl JobStatus {
    /// Whether the job needs no further work.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Pending { .. })
    }

    /// Stable lowercase name for status reporting.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Pending {
                cancel_requested: true,
                ..
            } => "cancelling",
            JobStatus::Pending { .. } => "pending",
            JobStatus::Done(_) => "done",
            JobStatus::Quarantined { .. } => "quarantined",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

/// One job reconstructed from the journal: the admission metadata plus the
/// replayed lifecycle state and fault history.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// Server-assigned id.
    pub id: u64,
    /// Client identity.
    pub client: String,
    /// Priority class, `0` = most urgent.
    pub priority: u8,
    /// Per-job thread cap (`0` = spec default).
    pub threads: usize,
    /// The work itself.
    pub spec: CellSpec,
    /// Replayed lifecycle state.
    pub status: JobStatus,
    /// Failure history (survives retries and quarantine).
    pub failures: Vec<FailureRecord>,
}

/// The whole job store reconstructed from its journal — the *only* source
/// of truth at server boot.
#[derive(Debug)]
pub struct JobBook {
    /// Server name (from the header record).
    pub name: String,
    /// Jobs by id (ordered: ids are admission-monotone).
    pub jobs: BTreeMap<u64, JobEntry>,
    /// Whether the journal ended in a torn record (hard-kill evidence).
    pub torn_tail: bool,
    /// `Some(reason)` when the last run drained gracefully.
    pub clean_shutdown: Option<String>,
    /// Highest fencing token seen on any `run` record. The next boot
    /// starts minting tokens above this, keeping fences monotone across
    /// restarts even though leases themselves die with the process.
    pub max_fence: u64,
}

impl JobBook {
    /// Reads and replays a job-server directory's journal.
    pub fn from_dir(dir: &Path) -> Result<JobBook, CampaignError> {
        let contents = read_journal(dir)?;
        JobBook::replay(&contents.records, contents.torn_tail)
    }

    /// Folds verified journal records into the job store. Strict: a
    /// journal that replays is a journal whose every transition made
    /// sense in order.
    pub fn replay(records: &[String], torn_tail: bool) -> Result<JobBook, CampaignError> {
        let corrupt = |msg: String| CampaignError::Corrupt(msg);
        let mut it = records.iter();
        let header = it
            .next()
            .ok_or_else(|| corrupt("empty journal (no jobs header)".into()))?;
        let name_tok = header
            .strip_prefix(JOBS_MAGIC)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| corrupt(format!("bad jobs header `{header}`")))?;
        let name = wire::unescape(name_tok).map_err(&corrupt)?;

        let mut jobs: BTreeMap<u64, JobEntry> = BTreeMap::new();
        let mut clean_shutdown = None;
        let mut max_id: Option<u64> = None;
        let mut max_fence = 0u64;

        for (rec_no, raw) in it.enumerate() {
            let ctx = |why: String| corrupt(format!("record {}: {why}", rec_no + 1));
            let rec = JobRecord::decode(raw).map_err(&ctx)?;
            // Admission and shutdown first; everything else targets an
            // existing, non-terminal job.
            match rec {
                JobRecord::Shutdown { reason } => {
                    clean_shutdown = Some(reason);
                    continue;
                }
                JobRecord::Submit {
                    id,
                    client,
                    priority,
                    threads,
                    spec,
                } => {
                    if max_id.is_some_and(|m| id <= m) {
                        return Err(ctx(format!(
                            "job id {id} not strictly increasing (max {})",
                            max_id.unwrap_or(0)
                        )));
                    }
                    max_id = Some(id);
                    jobs.insert(
                        id,
                        JobEntry {
                            id,
                            client,
                            priority,
                            threads,
                            spec: *spec,
                            status: JobStatus::Pending {
                                attempt: 0,
                                resume: None,
                                cancel_requested: false,
                            },
                            failures: Vec::new(),
                        },
                    );
                    continue;
                }
                _ => {}
            }
            let id = match &rec {
                JobRecord::Cancel { id }
                | JobRecord::Run { id, .. }
                | JobRecord::Ckpt { id, .. }
                | JobRecord::Done { id, .. }
                | JobRecord::Fail { id, .. }
                | JobRecord::Quarantine { id, .. }
                | JobRecord::Cancelled { id } => *id,
                // an:allow(AN202): both variants were consumed by the
                // enclosing match directly above; this arm is structurally
                // unreachable, and a panic here would mean that invariant
                // broke — exactly what should abort replay.
                JobRecord::Submit { .. } | JobRecord::Shutdown { .. } => unreachable!(),
            };
            let entry = jobs
                .get_mut(&id)
                .ok_or_else(|| ctx(format!("job {id} used before admission")))?;
            if entry.status.is_terminal() {
                return Err(ctx(format!("transition on terminal job {id}")));
            }
            match rec {
                JobRecord::Cancel { .. } => {
                    if let JobStatus::Pending {
                        cancel_requested, ..
                    } = &mut entry.status
                    {
                        *cancel_requested = true;
                    }
                }
                // Informational for job state; the fence high-water mark
                // seeds the next boot's token mint.
                JobRecord::Run { fence, .. } => max_fence = max_fence.max(fence),
                JobRecord::Ckpt { state, .. } => {
                    if let JobStatus::Pending { resume, .. } = &mut entry.status {
                        *resume = Some(state);
                    }
                }
                JobRecord::Done { outcome, .. } => entry.status = JobStatus::Done(outcome),
                JobRecord::Fail {
                    attempt,
                    kind,
                    detail,
                    ..
                } => {
                    entry.failures.push(FailureRecord {
                        attempt,
                        kind,
                        detail,
                    });
                    if let JobStatus::Pending { attempt: a, .. } = &mut entry.status {
                        *a = attempt;
                    }
                }
                JobRecord::Quarantine {
                    reason, attempts, ..
                } => {
                    entry.status = JobStatus::Quarantined { reason, attempts };
                }
                JobRecord::Cancelled { .. } => entry.status = JobStatus::Cancelled,
                // an:allow(AN202): same structural invariant as the id
                // extraction above — the outer match already took these.
                JobRecord::Submit { .. } | JobRecord::Shutdown { .. } => unreachable!(),
            }
        }
        Ok(JobBook {
            name,
            jobs,
            torn_tail,
            clean_shutdown,
            max_fence,
        })
    }

    /// Encodes the header record for a fresh job journal.
    pub fn header(name: &str) -> String {
        format!("{JOBS_MAGIC} {}", wire::escape(name))
    }

    /// The next id the server may assign (ids are admission-monotone).
    pub fn next_id(&self) -> u64 {
        self.jobs.keys().next_back().map_or(1, |m| m + 1)
    }

    /// Ids of jobs that still need work, in admission order.
    pub fn pending_ids(&self) -> Vec<u64> {
        self.jobs
            .values()
            .filter(|j| !j.status.is_terminal())
            .map(|j| j.id)
            .collect()
    }

    /// `(done, quarantined, cancelled, pending)` job counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut out = (0, 0, 0, 0);
        for j in self.jobs.values() {
            match &j.status {
                JobStatus::Done(_) => out.0 += 1,
                JobStatus::Quarantined { .. } => out.1 += 1,
                JobStatus::Cancelled => out.2 += 1,
                JobStatus::Pending { .. } => out.3 += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellHeuristic, TopologySpec};

    fn spec(label: &str) -> CellSpec {
        CellSpec {
            label: label.into(),
            topology: TopologySpec::Fig1 { cap: 100.0 },
            paths_per_pair: 2,
            heuristic: CellHeuristic::Dp { threshold: 50.0 },
            lo: 0.0,
            hi: 100.0,
            resolution: 2.0,
            probe_cap_nodes: 4_000,
            slice_nodes: 16,
            timeout_secs: None,
            fault_seed: None,
            quantized: None,
        }
    }

    fn submit(id: u64) -> String {
        JobRecord::Submit {
            id,
            client: "alice a.".into(),
            priority: 2,
            threads: 1,
            spec: Box::new(spec(&format!("job-{id}"))),
        }
        .encode()
    }

    #[test]
    fn job_records_round_trip() {
        let outcome = CellOutcome {
            threshold: Some(48.0),
            verified_gap: Some(50.0),
            demands: vec![50.0, 100.0],
            probes: 6,
            nodes: 500,
        };
        let state = spec("x").fresh_state().unwrap();
        let records = [
            JobRecord::Submit {
                id: 3,
                client: "bob".into(),
                priority: 0,
                threads: 4,
                spec: Box::new(spec("a b")),
            },
            JobRecord::Cancel { id: 3 },
            JobRecord::Run { id: 3, attempt: 2, fence: 7 },
            JobRecord::Ckpt {
                id: 3,
                state: Box::new(state),
            },
            JobRecord::Done {
                id: 3,
                outcome: outcome.clone(),
            },
            JobRecord::Fail {
                id: 3,
                attempt: 1,
                kind: "panic".into(),
                detail: "boom at node 7".into(),
            },
            JobRecord::Quarantine {
                id: 3,
                reason: QuarantineReason::WorkerPanic,
                attempts: 3,
            },
            JobRecord::Cancelled { id: 3 },
            JobRecord::Shutdown {
                reason: "drained".into(),
            },
        ];
        for r in records {
            let enc = r.encode();
            let back = JobRecord::decode(&enc).unwrap();
            assert_eq!(back.encode(), enc, "{enc}");
        }
    }

    #[test]
    fn replay_reconstructs_job_lifecycles() {
        let outcome = CellOutcome {
            threshold: Some(48.0),
            verified_gap: Some(50.0),
            demands: vec![50.0],
            probes: 6,
            nodes: 500,
        };
        let ckpt = JobRecord::Ckpt {
            id: 2,
            state: Box::new(spec("x").fresh_state().unwrap()),
        };
        let records = vec![
            JobBook::header("srv"),
            submit(1),
            submit(2),
            submit(3),
            submit(4),
            JobRecord::Run { id: 1, attempt: 1, fence: 1 }.encode(),
            JobRecord::Done {
                id: 1,
                outcome: outcome.clone(),
            }
            .encode(),
            JobRecord::Run { id: 2, attempt: 1, fence: 2 }.encode(),
            ckpt.encode(),
            JobRecord::Cancel { id: 2 }.encode(),
            JobRecord::Fail {
                id: 3,
                attempt: 1,
                kind: "solver".into(),
                detail: "nan".into(),
            }
            .encode(),
            JobRecord::Quarantine {
                id: 3,
                reason: QuarantineReason::ExhaustedRetries,
                attempts: 3,
            }
            .encode(),
            JobRecord::Cancel { id: 4 }.encode(),
            JobRecord::Cancelled { id: 4 }.encode(),
        ];
        let book = JobBook::replay(&records, false).unwrap();
        assert_eq!(book.name, "srv");
        assert_eq!(book.counts(), (1, 1, 1, 1));
        assert_eq!(book.pending_ids(), vec![2]);
        assert_eq!(book.next_id(), 5);
        match &book.jobs[&1].status {
            JobStatus::Done(o) => assert_eq!(*o, outcome),
            other => panic!("{other:?}"),
        }
        match &book.jobs[&2].status {
            JobStatus::Pending {
                resume,
                cancel_requested,
                ..
            } => {
                assert!(resume.is_some());
                assert!(*cancel_requested);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(book.jobs[&2].status.name(), "cancelling");
        assert_eq!(book.jobs[&3].failures.len(), 1);
        assert_eq!(book.jobs[&4].status.name(), "cancelled");
    }

    #[test]
    fn replay_rejects_inconsistent_journals() {
        let cases: Vec<Vec<String>> = vec![
            vec![],                                           // empty
            vec!["not a header".into()],                      // bad magic
            vec![JobBook::header("s"), "run 1 1".into()],     // undeclared id
            vec![JobBook::header("s"), submit(2), submit(2)], // duplicate id
            vec![JobBook::header("s"), submit(2), submit(1)], // non-monotone
            vec![JobBook::header("s"), submit(1), "warp 1 1".into()], // unknown kind
            vec![
                // transition on terminal job
                JobBook::header("s"),
                submit(1),
                JobRecord::Cancelled { id: 1 }.encode(),
                JobRecord::Run { id: 1, attempt: 1, fence: 1 }.encode(),
            ],
        ];
        for records in cases {
            assert!(
                JobBook::replay(&records, false).is_err(),
                "accepted {records:?}"
            );
        }
    }
}
