//! The `util::par` determinism contract, end to end: the same seeded
//! workload must produce *byte-identical* serialized output whether the
//! substrate runs on 1 worker or 4. The pipeline relies on this so that
//! `VOLCAST_THREADS` is purely a wall-clock knob — every committed figure
//! regenerates exactly regardless of the machine's core count.
//!
//! The thread-count knob is process-global, so every run goes through
//! `par::with_thread_count`, which serializes overrides and restores the
//! original count when done.

use volcast_core::session::quick_session_with_device;
use volcast_core::PlayerKind;
use volcast_pointcloud::{CellGrid, SyntheticBody};
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::{group_iou, DeviceClass, UserStudy, VisibilityComputer, VisibilityOptions};

/// Runs `work` at 1 worker and at 4 workers and asserts the serialized
/// outputs are identical bytes.
fn assert_thread_invariant<F: Fn() -> String>(work: F) {
    let serial = par::with_thread_count(1, &work);
    let parallel = par::with_thread_count(4, &work);
    assert_eq!(serial, parallel, "output depends on VOLCAST_THREADS");
}

/// A fig2b-style pairwise IoU sweep: seeded study, per-frame visibility
/// maps fanned out with `par_map`, all-pairs group IoU per frame.
fn iou_sweep_json() -> String {
    let study = UserStudy::generate(7, 12);
    let body = SyntheticBody::default();
    let grid = CellGrid::new(0.5);
    let frames: Vec<usize> = (0..12).step_by(3).collect();
    let per_frame: Vec<Vec<f64>> = par::par_map(&frames, |&f| {
        let cloud = body.frame(f as u64, 8_000);
        let partition = grid.partition(&cloud);
        let maps: Vec<_> = (0..6)
            .map(|u| {
                let trace = &study.traces[u];
                let vc = VisibilityComputer::new(VisibilityOptions {
                    intrinsics: trace.device.intrinsics(),
                    ..VisibilityOptions::vivo()
                });
                vc.compute(&trace.pose(f), &grid, &partition)
            })
            .collect();
        let mut ious = Vec::new();
        for i in 0..maps.len() {
            for j in (i + 1)..maps.len() {
                ious.push(group_iou(&[&maps[i], &maps[j]]));
            }
        }
        ious
    });
    per_frame.to_json().to_json_string()
}

/// A short full-system session: parallel per-user RSS, visibility and
/// per-cell encode inside, every float accounted in the outcome.
fn session_json() -> String {
    let mut s = quick_session_with_device(PlayerKind::Volcast, 4, 12, 42, DeviceClass::Phone);
    s.params.analysis_points = 4_000;
    s.run().unwrap().to_json().to_json_string()
}

#[test]
fn iou_sweep_is_thread_count_invariant() {
    assert_thread_invariant(iou_sweep_json);
}

#[test]
fn session_outcome_is_thread_count_invariant() {
    assert_thread_invariant(session_json);
}

/// The observability layer must not weaken the contract: with tracing on,
/// the *metrics* a session emits (counters, histogram shapes, span
/// counts — everything `MetricsSnapshot::deterministic` keeps) are also
/// byte-identical at 1 and 4 workers. Per-thread sinks merge at the
/// `par_map` join, so totals cannot depend on how work was sharded.
#[test]
fn obs_snapshot_is_thread_count_invariant() {
    use volcast_util::obs;
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    assert_thread_invariant(|| {
        obs::reset();
        let mut s = quick_session_with_device(PlayerKind::Volcast, 4, 12, 42, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        let _ = s.run().unwrap();
        let snap = obs::snapshot().deterministic();
        assert!(
            !snap.counters.is_empty(),
            "tracing enabled but session emitted no counters"
        );
        snap.to_json().to_json_string()
    });
    obs::set_enabled(was_enabled);
}
