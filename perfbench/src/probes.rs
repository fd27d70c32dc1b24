//! Layer probes: the benchmark calls a layer's public functions itself, on
//! the workload's own inputs, and times them. Used where the program has
//! no span of its own around the layer.

use std::hint::black_box;
use std::time::Instant;
use volcast_core::{PlayerKind, StreamingSession};
use volcast_mmwave::Blocker;
use volcast_pointcloud::codec::GopEncoder;
use volcast_pointcloud::{CellGrid, PointCloud};
use volcast_viewport::{JointPredictor, VisibilityComputer, VisibilityOptions};

/// Host seconds a session run spends in layers that have no span of
/// their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionLayerTimes {
    /// `JointPredictor` observe + predict.
    pub predict_s: f64,
    /// `VisibilityComputer::compute`, one map per user.
    pub visibility_s: f64,
    /// Analysis-cloud generation and cell partitioning.
    pub analysis_s: f64,
    /// Per-user serving-beam RSS with the other users as blockers.
    pub rss_s: f64,
}

/// Replays a session's per-frame work in the layers above: the joint
/// predictor over the users' traces; the frame's analysis cloud and its
/// cell partition; one visibility map per user from the predicted pose;
/// and each user's dedicated-beam RSS — the same calls, inputs and
/// options the session's frame loop makes (the loop switches a blocked
/// user to the best-beam search, which this replay does not model).
pub fn session_layers(s: &StreamingSession) -> SessionLayerTimes {
    let cfg = s.params.config;
    let n = s.traces.len();
    let grid = CellGrid::new(cfg.cell_size);
    let gop_len = (cfg.target_fps.round() as usize).max(1);
    let mut gop = GopEncoder::new();
    let mut cloud = PointCloud::new();
    let mut joint = JointPredictor::new(n, cfg.predictor_window, Default::default());
    let mut poses = Vec::with_capacity(n);
    let mut planning = Vec::with_capacity(n);
    let mut times = SessionLayerTimes::default();
    let mut blockers = Vec::with_capacity(n);
    for f in 0..s.params.frames {
        poses.clear();
        poses.extend(s.traces.iter().map(|t| t.pose(f)));
        let t = Instant::now();
        joint.observe_frame(&poses);
        let predicted = s.params.use_prediction
            && joint.predict_frame_into(cfg.prediction_horizon, &mut planning);
        times.predict_s += t.elapsed().as_secs_f64();
        if !predicted {
            planning.clear();
            planning.extend_from_slice(&poses);
        }

        let t = Instant::now();
        if f % gop_len == 0 {
            let len = gop_len.min(s.params.frames - f);
            gop.generate_gop(&s.video, f as u64, len, s.params.analysis_points);
        }
        gop.frame_points(f % gop_len).to_cloud_into(&mut cloud);
        let partition = grid.partition(&cloud);
        times.analysis_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for (u, pose) in poses.iter().enumerate() {
            blockers.clear();
            blockers.extend(
                poses
                    .iter()
                    .enumerate()
                    .filter(|&(v, _)| v != u)
                    .map(|(_, p)| Blocker::person(p.position)),
            );
            black_box(s.channel.rss_dedicated_beam(pose.position, &blockers));
        }
        times.rss_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for (u, pose) in planning.iter().enumerate() {
            let options = match s.params.player {
                PlayerKind::Vanilla => VisibilityOptions::vanilla(),
                _ => VisibilityOptions {
                    intrinsics: s.traces[u].device.intrinsics(),
                    ..VisibilityOptions::vivo()
                },
            };
            black_box(VisibilityComputer::new(options).compute(pose, &grid, &partition));
        }
        times.visibility_s += t.elapsed().as_secs_f64();
    }
    times
}
