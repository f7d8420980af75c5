//! Pre-registered obs handles for the branch-and-bound engines.
//!
//! One `MilpMetrics` travels inside [`crate::MilpConfig`]; both engines
//! (serial and deterministic wave) increment the same cells, and the
//! embedded [`LpMetrics`] is installed on each worker simplex so node-LP
//! pivot/refactor/warm-cold deltas accumulate with no per-pivot cost. All handles default to no-ops; observation never
//! feeds back into search order, so the deterministic engine stays
//! bit-identical with metrics enabled.

use metaopt_lp::LpMetrics;
use metaopt_obs::{Counter, Registry};

/// Counter handles for the tree-search layer.
#[derive(Debug, Clone, Default)]
pub struct MilpMetrics {
    /// Nodes expanded (certified), summed across engines and workers.
    pub nodes: Counter,
    /// Deterministic-engine waves dispatched.
    pub waves: Counter,
    /// Incumbent improvements accepted.
    pub incumbents: Counter,
    /// Node-LP kernel counters, installed on every worker simplex.
    pub lp: LpMetrics,
}

impl MilpMetrics {
    /// No-op handles.
    pub fn disabled() -> MilpMetrics {
        MilpMetrics::default()
    }

    /// Registers the `metaopt_milp_*` (and nested `metaopt_lp_*`)
    /// families on `registry`.
    pub fn register(registry: &Registry) -> MilpMetrics {
        MilpMetrics {
            nodes: registry.counter(
                "metaopt_milp_nodes_total",
                "Branch-and-bound nodes expanded",
                &[],
            ),
            waves: registry.counter(
                "metaopt_milp_waves_total",
                "Deterministic-engine waves dispatched",
                &[],
            ),
            incumbents: registry.counter(
                "metaopt_milp_incumbents_total",
                "Incumbent improvements accepted",
                &[],
            ),
            lp: LpMetrics::register(registry),
        }
    }
}
