//! The job-submission wire format: JSON in, a validated [`CellSpec`] out.
//!
//! Admission runs the *full* modelcheck gate
//! ([`metaopt_core::validate_adversarial_setup`]): the spec is built into
//! its single-shot adversarial program once and statically analyzed, so a
//! malformed job is rejected with a diagnostic at submit time instead of
//! failing mid-solve on a worker an hour later. The built model is then
//! discarded — workers rebuild deterministically from the spec, exactly
//! like campaign resume does.

use crate::json::Json;
use metaopt_campaign::{CellHeuristic, CellSpec, TopologySpec};
use metaopt_model::ModelStats;
use metaopt_resilience::ServiceFault;

/// Hard ceilings on admitted job shapes: a multi-tenant server must not
/// let one client submit a job that monopolizes memory or the pool.
#[derive(Debug, Clone)]
pub struct AdmissionLimits {
    /// Maximum `cfg.milp.threads` a job may request.
    pub max_threads: usize,
    /// Maximum branch-and-bound nodes per probe.
    pub max_probe_cap_nodes: usize,
    /// Maximum sweep grid points (`(hi-lo)/resolution`).
    pub max_grid_points: usize,
    /// Maximum single-shot model variables (from the paper's Figure-6 size
    /// axis) — structurally huge encodings are rejected at admission.
    pub max_model_vars: usize,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits {
            max_threads: 8,
            max_probe_cap_nodes: 2_000_000,
            max_grid_points: 100_000,
            max_model_vars: 2_000_000,
        }
    }
}

/// A parsed, *not yet validated* submission.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Client identity (quota accounting); defaults to `"anonymous"`.
    pub client: String,
    /// Priority class `0..=9` (0 = most urgent); defaults to 5.
    pub priority: u8,
    /// Requested solver threads (0 = server default).
    pub threads: usize,
    /// The work itself.
    pub spec: CellSpec,
}

fn bad(msg: impl Into<String>) -> ServiceFault {
    ServiceFault::AdmissionRejected(msg.into())
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, ServiceFault> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric `{key}`")))
}

fn get_usize(obj: &Json, key: &str, default: usize) -> Result<usize, ServiceFault> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Parses a submission body. Shape:
///
/// ```json
/// {
///   "client": "alice", "priority": 2, "threads": 1,
///   "label": "fig1-dp50",
///   "topology": {"kind": "fig1", "cap": 100.0},
///   "paths_per_pair": 2,
///   "heuristic": {"kind": "dp", "threshold": 50.0},
///   "sweep": {"lo": 0.0, "hi": 100.0, "resolution": 2.0},
///   "budget": {"probe_cap_nodes": 4000, "slice_nodes": 16, "timeout_secs": null},
///   "quantized": [0.0, 50.0, 100.0]
/// }
/// ```
///
/// `topology.kind` is `"fig1"` or `"builtin"` (with `"name"`);
/// `heuristic.kind` is `"dp"` (with `"threshold"`) or `"pop"` (with
/// `"n_parts"`, `"n_insts"`, `"seed"`, optional `"tail_rank"`). `budget`
/// and `quantized` are optional.
pub fn parse_submit(body: &[u8]) -> Result<SubmitRequest, ServiceFault> {
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    let v = Json::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;

    let client = match v.get("client") {
        None | Some(Json::Null) => "anonymous".to_string(),
        Some(c) => {
            let c = c.as_str().ok_or_else(|| bad("`client` must be a string"))?;
            if c.is_empty() || c.len() > 64 {
                return Err(bad("`client` must be 1..=64 bytes"));
            }
            c.to_string()
        }
    };
    let priority = get_usize(&v, "priority", 5)?;
    if priority > 9 {
        return Err(bad("`priority` must be 0..=9 (0 = most urgent)"));
    }
    let threads = get_usize(&v, "threads", 0)?;

    let label = match v.get("label") {
        None | Some(Json::Null) => "unnamed-job".to_string(),
        Some(l) => l
            .as_str()
            .ok_or_else(|| bad("`label` must be a string"))?
            .to_string(),
    };

    let topo = v.get("topology").ok_or_else(|| bad("missing `topology`"))?;
    let topology = match topo.get("kind").and_then(Json::as_str) {
        Some("fig1") => TopologySpec::Fig1 {
            cap: get_f64(topo, "cap")?,
        },
        Some("builtin") => TopologySpec::Builtin {
            name: topo
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("builtin topology needs a `name`"))?
                .to_string(),
            cap: get_f64(topo, "cap")?,
        },
        other => return Err(bad(format!("unknown topology kind {other:?}"))),
    };
    let paths_per_pair = get_usize(&v, "paths_per_pair", 2)?;

    let heu = v.get("heuristic").ok_or_else(|| bad("missing `heuristic`"))?;
    let heuristic = match heu.get("kind").and_then(Json::as_str) {
        Some("dp") => CellHeuristic::Dp {
            threshold: get_f64(heu, "threshold")?,
        },
        Some("pop") => CellHeuristic::Pop {
            n_parts: get_usize(heu, "n_parts", 0)?,
            n_insts: get_usize(heu, "n_insts", 0)?,
            seed: heu
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("pop heuristic needs a `seed`"))?,
            tail_rank: match heu.get("tail_rank") {
                None | Some(Json::Null) => None,
                Some(t) => Some(
                    t.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| bad("`tail_rank` must be a non-negative integer"))?,
                ),
            },
        },
        other => return Err(bad(format!("unknown heuristic kind {other:?}"))),
    };

    let sweep = v.get("sweep").ok_or_else(|| bad("missing `sweep`"))?;
    let lo = get_f64(sweep, "lo")?;
    let hi = get_f64(sweep, "hi")?;
    let resolution = get_f64(sweep, "resolution")?;

    let budget = v.get("budget").cloned().unwrap_or(Json::Obj(Vec::new()));
    let probe_cap_nodes = get_usize(&budget, "probe_cap_nodes", 4_000)?;
    let slice_nodes = get_usize(&budget, "slice_nodes", 64)?;
    let timeout_secs = match budget.get("timeout_secs") {
        None | Some(Json::Null) => None,
        Some(t) => Some(
            t.as_f64()
                .filter(|s| *s > 0.0)
                .ok_or_else(|| bad("`timeout_secs` must be a positive number"))?,
        ),
    };

    let quantized = match v.get("quantized") {
        None | Some(Json::Null) => None,
        Some(q) => {
            let levels = q
                .as_array()
                .ok_or_else(|| bad("`quantized` must be an array of numbers"))?
                .iter()
                .map(|l| l.as_f64().ok_or_else(|| bad("`quantized` must be numeric")))
                .collect::<Result<Vec<f64>, _>>()?;
            if levels.is_empty() {
                return Err(bad("`quantized` must not be empty"));
            }
            Some(levels)
        }
    };

    Ok(SubmitRequest {
        client,
        priority: priority as u8,
        threads,
        spec: CellSpec {
            label,
            topology,
            paths_per_pair,
            heuristic,
            lo,
            hi,
            resolution,
            probe_cap_nodes,
            slice_nodes,
            timeout_secs,
            fault_seed: None,
            quantized,
        },
    })
}

/// Validates an admitted request against the server's limits and the
/// modelcheck gate. Returns the single-shot program's size statistics on
/// success (reported back to the client in the `202`).
pub fn validate_submit(
    req: &SubmitRequest,
    limits: &AdmissionLimits,
) -> Result<ModelStats, ServiceFault> {
    let s = &req.spec;
    if req.threads > limits.max_threads {
        return Err(bad(format!(
            "threads {} exceeds server cap {}",
            req.threads, limits.max_threads
        )));
    }
    if !(s.lo.is_finite() && s.hi.is_finite()) || s.lo > s.hi {
        return Err(bad(format!("bad sweep range [{}, {}]", s.lo, s.hi)));
    }
    if !(s.resolution.is_finite() && s.resolution > 0.0) {
        return Err(bad(format!("bad sweep resolution {}", s.resolution)));
    }
    let grid_points = ((s.hi - s.lo) / s.resolution).ceil();
    if grid_points > limits.max_grid_points as f64 {
        return Err(bad(format!(
            "sweep grid of ~{grid_points} points exceeds cap {}",
            limits.max_grid_points
        )));
    }
    if s.probe_cap_nodes == 0 || s.probe_cap_nodes > limits.max_probe_cap_nodes {
        return Err(bad(format!(
            "probe_cap_nodes {} outside 1..={}",
            s.probe_cap_nodes, limits.max_probe_cap_nodes
        )));
    }
    if s.slice_nodes == 0 {
        return Err(bad("slice_nodes must be >= 1"));
    }
    if s.paths_per_pair == 0 {
        return Err(bad("paths_per_pair must be >= 1"));
    }
    if let CellHeuristic::Pop { n_parts, n_insts, .. } = &s.heuristic {
        if *n_parts < 1 || *n_insts < 1 {
            return Err(bad("pop needs n_parts >= 1 and n_insts >= 1"));
        }
    }
    // Build the actual problem and run the full static analyzer over the
    // assembled single-shot program — the modelcheck gate at admission.
    let (inst, heu, cs, cfg) = s
        .build()
        .map_err(|e| bad(format!("spec does not build: {e}")))?;
    let stats = metaopt_core::validate_adversarial_setup(&inst, &heu, &cs, &cfg)
        .map_err(|e| bad(format!("modelcheck gate: {e}")))?;
    if stats.n_vars > limits.max_model_vars {
        return Err(bad(format!(
            "model of {} variables exceeds cap {}",
            stats.n_vars, limits.max_model_vars
        )));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn fig1_body(label: &str) -> String {
        format!(
            r#"{{"client":"alice","priority":2,"label":"{label}",
                "topology":{{"kind":"fig1","cap":100.0}},
                "heuristic":{{"kind":"dp","threshold":50.0}},
                "sweep":{{"lo":40.0,"hi":60.0,"resolution":10.0}},
                "budget":{{"probe_cap_nodes":4000,"slice_nodes":64}}}}"#
        )
    }

    #[test]
    fn parses_and_validates_a_good_job() {
        let req = parse_submit(fig1_body("t1").as_bytes()).unwrap();
        assert_eq!(req.client, "alice");
        assert_eq!(req.priority, 2);
        assert_eq!(req.spec.label, "t1");
        let stats = validate_submit(&req, &AdmissionLimits::default()).unwrap();
        assert!(stats.n_vars > 0);
    }

    #[test]
    fn defaults_fill_in() {
        let body = r#"{"topology":{"kind":"fig1","cap":100.0},
            "heuristic":{"kind":"dp","threshold":50.0},
            "sweep":{"lo":0.0,"hi":100.0,"resolution":2.0}}"#;
        let req = parse_submit(body.as_bytes()).unwrap();
        assert_eq!(req.client, "anonymous");
        assert_eq!(req.priority, 5);
        assert_eq!(req.threads, 0);
        assert_eq!(req.spec.slice_nodes, 64);
    }

    #[test]
    fn rejects_malformed_submissions() {
        let cases: Vec<String> = vec![
            "not json".into(),
            "{}".into(),
            r#"{"topology":{"kind":"hypercube","cap":1.0},
                "heuristic":{"kind":"dp","threshold":1.0},
                "sweep":{"lo":0,"hi":1,"resolution":1}}"#
                .into(),
            fig1_body("x").replace("\"priority\":2", "\"priority\":12"),
            fig1_body("x").replace("\"threshold\":50.0", "\"threshold\":\"high\""),
        ];
        for body in cases {
            assert!(parse_submit(body.as_bytes()).is_err(), "accepted `{body}`");
        }
    }

    #[test]
    fn validation_rejects_out_of_limit_jobs() {
        let limits = AdmissionLimits::default();
        let mut req = parse_submit(fig1_body("x").as_bytes()).unwrap();
        req.threads = limits.max_threads + 1;
        assert!(validate_submit(&req, &limits).is_err());

        let mut req = parse_submit(fig1_body("x").as_bytes()).unwrap();
        req.spec.lo = 10.0;
        req.spec.hi = 0.0;
        assert!(validate_submit(&req, &limits).is_err());

        let mut req = parse_submit(fig1_body("x").as_bytes()).unwrap();
        req.spec.resolution = 1e-9;
        assert!(validate_submit(&req, &limits).is_err());

        // Unknown builtin topology only fails at build time — the gate
        // catches it.
        let mut req = parse_submit(fig1_body("x").as_bytes()).unwrap();
        req.spec.topology = TopologySpec::Builtin {
            name: "tokamak".into(),
            cap: 1.0,
        };
        let err = validate_submit(&req, &limits).unwrap_err();
        assert_eq!(err.kind(), "admission_rejected");
    }
}
