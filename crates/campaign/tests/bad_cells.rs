//! A cell whose spec cannot run is that cell's failure, not the
//! campaign's: the supervisor quarantines it and finishes the rest.

use metaopt_campaign::{
    run, CampaignConfig, CellHeuristic, CellSpec, CellStatus, RunEnd, ShutdownFlag, TopologySpec,
};
use metaopt_resilience::QuarantineReason;

#[test]
fn bad_sweep_range_quarantines_its_cell_and_the_campaign_completes() {
    let good = CellSpec {
        label: "fig1-dp-50".into(),
        topology: TopologySpec::Fig1 { cap: 100.0 },
        paths_per_pair: 2,
        heuristic: CellHeuristic::Dp { threshold: 50.0 },
        lo: 0.0,
        hi: 100.0,
        resolution: 4.0,
        probe_cap_nodes: 4_000,
        slice_nodes: 64,
        timeout_secs: None,
        fault_seed: None,
        quantized: None,
    };
    let inverted = CellSpec {
        label: "fig1-dp-50-inverted".into(),
        lo: 100.0,
        hi: 0.0,
        ..good.clone()
    };
    let dir =
        std::env::temp_dir().join(format!("metaopt-campaign-bad-range-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let report = run(
        &dir,
        "bad-range",
        vec![good, inverted],
        &CampaignConfig::default(),
        &ShutdownFlag::new(),
    )
    .expect("a bad cell must not fail the campaign");
    assert_eq!(report.end, RunEnd::Complete);
    assert!(
        matches!(report.state.status[0], CellStatus::Done(_)),
        "{:?}",
        report.state.status[0]
    );
    assert!(
        matches!(
            report.state.status[1],
            CellStatus::Quarantined {
                reason: QuarantineReason::FatalError,
                attempts: 1,
            }
        ),
        "{:?}",
        report.state.status[1]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
