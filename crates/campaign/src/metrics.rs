//! Pre-registered obs handles for the campaign layer.
//!
//! One `CampaignMetrics` travels inside [`crate::CampaignConfig`] and is
//! installed on the write-ahead [`crate::Journal`], so every durable
//! append/fsync is counted at the single choke point all records pass
//! through. Retry and quarantine decisions are counted where the
//! supervisor makes them, and journal replays (resume, status, post-run
//! verification) record their wall-clock duration. All handles default
//! to no-ops: a campaign run with metrics disabled makes identical
//! scheduling decisions and writes byte-identical journals.

use metaopt_milp::MilpMetrics;
use metaopt_obs::metrics::DURATION_BUCKETS_SECS;
use metaopt_obs::{Counter, Histogram, Registry};

/// Counter/histogram handles for the campaign runner and journal.
#[derive(Debug, Clone, Default)]
pub struct CampaignMetrics {
    /// Records appended to the write-ahead journal.
    pub journal_appends: Counter,
    /// `sync_data` calls completed by the journal (one per durable
    /// append under the current write-ahead discipline).
    pub journal_fsyncs: Counter,
    /// Journal handles poisoned by a failed append/`sync_data` (the
    /// fsync-poisoning rule: no further appends until reopen+tail-verify).
    pub journal_poisonings: Counter,
    /// Successful journal reopen+tail-verify recoveries after poisoning.
    pub journal_reopens: Counter,
    /// Cell attempts re-queued by the retry policy.
    pub retries: Counter,
    /// Cells quarantined (fatal error or exhausted retries).
    pub quarantines: Counter,
    /// Wall-clock seconds spent replaying a journal into a
    /// [`crate::CampaignState`].
    pub replay_seconds: Histogram,
    /// Solver-stack counters (branch-and-bound nodes/waves plus
    /// node-LP pivots), installed on every cell attempt's `MilpConfig`
    /// by [`crate::drive_cell`] — the same embedding pattern as
    /// `MilpMetrics` carrying `LpMetrics`.
    pub solver: MilpMetrics,
}

impl CampaignMetrics {
    /// No-op handles.
    pub fn disabled() -> CampaignMetrics {
        CampaignMetrics::default()
    }

    /// Registers the `metaopt_campaign_*` families on `registry`.
    pub fn register(registry: &Registry) -> CampaignMetrics {
        CampaignMetrics {
            journal_appends: registry.counter(
                "metaopt_campaign_journal_appends_total",
                "Records appended to the write-ahead journal",
                &[],
            ),
            journal_fsyncs: registry.counter(
                "metaopt_campaign_journal_fsyncs_total",
                "Journal sync_data calls completed",
                &[],
            ),
            journal_poisonings: registry.counter(
                "metaopt_campaign_journal_poisonings_total",
                "Journal handles poisoned by a failed append or sync_data",
                &[],
            ),
            journal_reopens: registry.counter(
                "metaopt_campaign_journal_reopens_total",
                "Journal reopen+tail-verify recoveries after poisoning",
                &[],
            ),
            retries: registry.counter(
                "metaopt_campaign_retries_total",
                "Cell attempts re-queued by the retry policy",
                &[],
            ),
            quarantines: registry.counter(
                "metaopt_campaign_quarantines_total",
                "Cells quarantined after fatal errors or exhausted retries",
                &[],
            ),
            replay_seconds: registry.histogram(
                "metaopt_campaign_replay_seconds",
                "Journal replay wall-clock duration",
                &[],
                DURATION_BUCKETS_SECS,
            ),
            solver: MilpMetrics::register(registry),
        }
    }
}
