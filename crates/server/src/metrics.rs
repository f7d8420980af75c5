//! Pre-registered obs handles for the job server.
//!
//! One `ServerMetrics` lives inside [`crate::GapServer`], built from the
//! registry handed in via [`crate::ServerConfig`]. Route families are
//! pre-registered for every route the API serves (plus a `not_found`
//! bucket), so the hot request path never takes the registry lock — it
//! looks handles up in an immutable map built at boot.
//!
//! The `metaopt_server_jobs_*` counters carry the crash-recovery
//! consistency contract: at boot, [`crate::GapServer::open`] re-derives
//! them from the replayed journal (admitted = every `job` record,
//! completed/quarantined/cancelled = terminal statuses, retried = failed
//! attempts that did not quarantine), so after a `kill -9` the scraped
//! values line up with what the pre-kill process reported for all durable
//! transitions. The crash drill in CI asserts exactly that.

use metaopt_milp::MilpMetrics;
use metaopt_obs::metrics::LATENCY_BUCKETS_SECS;
use metaopt_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::BTreeMap;

/// Route names used as the `route` label. `route_name` in the API layer
/// maps every request onto one of these; keeping the list closed means
/// a scanning client cannot mint unbounded label values.
pub const ROUTES: &[&str] = &[
    "healthz",
    "jobs_list",
    "jobs_submit",
    "job_get",
    "job_events",
    "job_cancel",
    "admin_drain",
    "admin_trace",
    "metrics",
    "not_found",
];

/// Per-route request handles.
#[derive(Debug, Clone, Default)]
pub struct RouteMetrics {
    /// Requests served on this route.
    pub requests: Counter,
    /// Wall-clock handling latency (includes response write).
    pub latency: Histogram,
}

/// Counter/gauge/histogram handles for the job server.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    routes: BTreeMap<&'static str, RouteMetrics>,
    /// Admission queue depth (updated at every push/pop site).
    pub queue_depth: Gauge,
    /// Live HTTP connections being serviced.
    pub active_connections: Gauge,
    /// Submissions refused by the per-client token bucket.
    pub quota_rejections: Counter,
    /// Connections shed at the acceptor's hard cap.
    pub shed_connections: Counter,
    /// Submissions shed because the bounded queue was full.
    pub shed_queue_full: Counter,
    /// Jobs durably admitted (journal `job` record fsynced).
    pub jobs_admitted: Counter,
    /// Jobs that reached `done`.
    pub jobs_completed: Counter,
    /// Jobs quarantined.
    pub jobs_quarantined: Counter,
    /// Jobs cancelled.
    pub jobs_cancelled: Counter,
    /// Failed attempts re-queued by the retry policy.
    pub jobs_retried: Counter,
    /// Sandboxed worker children spawned.
    pub workers_spawned: Counter,
    /// Workers killed for an RSS-limit breach.
    pub workers_killed_oom: Counter,
    /// Workers killed for a wall-clock-limit breach.
    pub workers_killed_deadline: Counter,
    /// Workers killed for heartbeat silence.
    pub workers_killed_heartbeat: Counter,
    /// Worker children that exited without a terminal result frame.
    pub workers_lost: Counter,
    /// Stale results rejected by lease fencing (a write arriving under a
    /// fence token that is no longer the job's current lease).
    pub workers_fenced: Counter,
    /// Solver-stack counters installed on every job attempt's
    /// branch-and-bound config (nodes, waves, node-LP pivots).
    pub solver: MilpMetrics,
}

impl ServerMetrics {
    /// No-op handles.
    pub fn disabled() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Registers the `metaopt_server_*` families on `registry`.
    pub fn register(registry: &Registry) -> ServerMetrics {
        let mut routes = BTreeMap::new();
        for &route in ROUTES {
            routes.insert(
                route,
                RouteMetrics {
                    requests: registry.counter(
                        "metaopt_server_requests_total",
                        "HTTP requests served",
                        &[("route", route)],
                    ),
                    latency: registry.histogram(
                        "metaopt_server_request_seconds",
                        "HTTP request handling latency",
                        &[("route", route)],
                        LATENCY_BUCKETS_SECS,
                    ),
                },
            );
        }
        ServerMetrics {
            routes,
            queue_depth: registry.gauge(
                "metaopt_server_queue_depth",
                "Admission queue depth",
                &[],
            ),
            active_connections: registry.gauge(
                "metaopt_server_active_connections",
                "Live HTTP connections",
                &[],
            ),
            quota_rejections: registry.counter(
                "metaopt_server_quota_rejections_total",
                "Submissions refused by per-client quotas",
                &[],
            ),
            shed_connections: registry.counter(
                "metaopt_server_shed_total",
                "Load shed by class",
                &[("class", "connection_limit")],
            ),
            shed_queue_full: registry.counter(
                "metaopt_server_shed_total",
                "Load shed by class",
                &[("class", "queue_full")],
            ),
            jobs_admitted: registry.counter(
                "metaopt_server_jobs_admitted_total",
                "Jobs durably admitted",
                &[],
            ),
            jobs_completed: registry.counter(
                "metaopt_server_jobs_completed_total",
                "Jobs completed with certified results",
                &[],
            ),
            jobs_quarantined: registry.counter(
                "metaopt_server_jobs_quarantined_total",
                "Jobs quarantined",
                &[],
            ),
            jobs_cancelled: registry.counter(
                "metaopt_server_jobs_cancelled_total",
                "Jobs cancelled",
                &[],
            ),
            jobs_retried: registry.counter(
                "metaopt_server_jobs_retried_total",
                "Failed attempts re-queued for retry",
                &[],
            ),
            workers_spawned: registry.counter(
                "metaopt_server_workers_spawned_total",
                "Sandboxed worker children spawned",
                &[],
            ),
            workers_killed_oom: registry.counter(
                "metaopt_server_workers_killed_total",
                "Worker children killed by the supervisor, by reason",
                &[("reason", "oom")],
            ),
            workers_killed_deadline: registry.counter(
                "metaopt_server_workers_killed_total",
                "Worker children killed by the supervisor, by reason",
                &[("reason", "deadline")],
            ),
            workers_killed_heartbeat: registry.counter(
                "metaopt_server_workers_killed_total",
                "Worker children killed by the supervisor, by reason",
                &[("reason", "heartbeat")],
            ),
            workers_lost: registry.counter(
                "metaopt_server_workers_lost_total",
                "Worker children that exited without a result frame",
                &[],
            ),
            workers_fenced: registry.counter(
                "metaopt_server_workers_fenced_total",
                "Stale worker results rejected by lease fencing",
                &[],
            ),
            solver: MilpMetrics::register(registry),
        }
    }

    /// Handles for `route` (no-ops if the route is unknown or metrics are
    /// disabled).
    pub fn route(&self, route: &str) -> RouteMetrics {
        self.routes.get(route).cloned().unwrap_or_default()
    }
}
