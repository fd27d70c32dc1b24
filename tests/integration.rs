//! Cross-crate integration tests exercising the public facade end to end.

use volcast::core::{
    max_sustainable_fps, quick_session, quick_session_with_device, AbrPolicy, GroupPlanner,
    GroupingInputs, MitigationMode, PlayerKind, SystemConfig,
};
use volcast::geom::Vec3;
use volcast::mmwave::{Channel, Codebook, McsTable, SweepEngine};
use volcast::net::{AdMac, MacModel};
use volcast::pointcloud::{codec, CellGrid, DecodeModel, Ladder, QualityLevel, SyntheticBody};
use volcast::viewport::{iou, DeviceClass, UserStudy, VisibilityComputer, VisibilityOptions};

/// The full data path: generate geometry -> encode -> decode -> partition
/// -> visibility -> similarity, all through the facade.
#[test]
fn content_pipeline_end_to_end() {
    let body = SyntheticBody::default();
    let cloud = body.frame(0, 12_000);

    // Codec round trip.
    let (enc, stats) = codec::encode(&cloud, &codec::CodecConfig::default());
    let decoded = codec::decode(&enc).expect("decode");
    assert_eq!(decoded.len(), stats.voxels);
    assert!(stats.bits_per_point < 40.0);

    // Cells + visibility for two users.
    let grid = CellGrid::new(0.5);
    let partition = grid.partition(&cloud);
    assert!(!partition.is_empty());
    let study = UserStudy::generate(9, 30);
    let vc = VisibilityComputer::new(VisibilityOptions {
        intrinsics: DeviceClass::Headset.intrinsics(),
        ..VisibilityOptions::vivo()
    });
    let m0 = vc.compute(&study.traces[16].pose(10), &grid, &partition);
    let m1 = vc.compute(&study.traces[17].pose(10), &grid, &partition);
    assert!(!m0.is_empty() && !m1.is_empty());
    let similarity = iou(&m0, &m1);
    assert!((0.0..=1.0).contains(&similarity));
}

/// The network path: positions -> beams -> RSS -> MCS -> airtime.
#[test]
fn radio_pipeline_end_to_end() {
    let channel = Channel::default_setup();
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    let mcs = McsTable::dmg();
    let mac = AdMac::default();

    let users = [Vec3::new(-1.5, 1.5, 0.0), Vec3::new(1.5, 1.5, 0.0)];
    let beam = engine.design(&users, &[]);
    let rate = mcs.multicast_rate_mbps(beam.member_rss_dbm());
    assert!(rate > 0.0, "group in outage");
    let airtime = mac.airtime_s(500_000.0, rate, 2);
    assert!(airtime.is_finite() && airtime > 0.0);
}

/// Table-1 style modeling through the facade.
#[test]
fn table1_model_reproduces_anchor_rows() {
    let ad = AdMac::default();
    let decode = DecodeModel::default();
    // ad, 1 user, all qualities: 30 FPS.
    let rate1 = ad.per_user_rate_mbps(2502.5, 1);
    for level in QualityLevel::ALL {
        let q = Ladder::paper().quality(level);
        let fps = max_sustainable_fps(
            rate1,
            q.full_frame_bytes(),
            q.points_per_frame,
            &decode,
            30.0,
        );
        assert_eq!(fps, 30.0, "{level:?}");
    }
    // ad, 7 users, high quality vanilla: ~11-12 FPS in the paper.
    let rate7 = ad.per_user_rate_mbps(2502.5, 7);
    let q = Ladder::paper().quality(QualityLevel::High);
    let fps7 = max_sustainable_fps(
        rate7,
        q.full_frame_bytes(),
        q.points_per_frame,
        &decode,
        30.0,
    );
    assert!((9.0..15.0).contains(&fps7), "7-user high fps {fps7}");
}

/// Grouping through the facade with hand-built maps.
#[test]
fn grouping_api_is_usable_standalone() {
    use volcast::pointcloud::{CellId, CellInfo};
    use volcast::viewport::VisibilityMap;

    let mut m1 = VisibilityMap::new();
    let mut m2 = VisibilityMap::new();
    for x in 0..4 {
        m1.cells.insert(CellId::new(x, 0, 0), 1.0);
        m2.cells.insert(CellId::new(x + 1, 0, 0), 1.0);
    }
    let partition: Vec<CellInfo> = (0..5)
        .map(|x| CellInfo {
            id: CellId::new(x, 0, 0),
            point_count: 10,
            point_indices: vec![],
        })
        .collect();
    let sizes = vec![50_000.0; 5];
    let maps = vec![m1, m2];
    let rates = vec![2000.0, 2000.0];
    let mc = |_: &[usize]| 1500.0;
    let plan = GroupPlanner::new(SystemConfig::default()).plan(&GroupingInputs {
        maps: &maps,
        partition: &partition,
        cell_sizes: &sizes,
        unicast_rate_mbps: &rates,
        multicast_rate_mbps: &mc,
    });
    assert_eq!(
        plan.groups.len(),
        1,
        "3/5 overlap at high rate should merge"
    );
    assert!(plan.feasible);
}

/// Full sessions across players, deterministic and ordered as expected.
#[test]
fn sessions_rank_players_correctly() {
    let run = |player: PlayerKind| {
        let mut s = quick_session_with_device(player, 4, 45, 42, DeviceClass::Phone);
        s.params.analysis_points = 6_000;
        s.params.fixed_quality = Some(QualityLevel::High);
        s.run().unwrap()
    };
    let vanilla = run(PlayerKind::Vanilla);
    let vivo = run(PlayerKind::Vivo);
    let volcast = run(PlayerKind::Volcast);

    // Airtime ordering: volcast <= vivo <= vanilla.
    assert!(vivo.mean_frame_time_s <= vanilla.mean_frame_time_s + 1e-9);
    assert!(volcast.mean_frame_time_s <= vivo.mean_frame_time_s + 1e-9);
    // QoE ordering at this load.
    assert!(volcast.qoe.mean_fps() >= vivo.qoe.mean_fps() - 0.5);
    assert!(volcast.multicast_byte_fraction > 0.0);
}

/// ABR policies are all runnable and adaptive sessions pick qualities.
#[test]
fn abr_policies_run() {
    for abr in [
        AbrPolicy::BufferOnly,
        AbrPolicy::ThroughputOnly,
        AbrPolicy::CrossLayer,
    ] {
        let mut s = quick_session(PlayerKind::Volcast, 2, 30, 5);
        s.params.abr = abr;
        s.params.analysis_points = 4_000;
        let out = s.run().unwrap();
        assert_eq!(out.qoe.users.len(), 2);
        assert!(out.qoe.mean_fps() > 0.0, "{abr:?}");
    }
}

/// Mitigation modes are both runnable with walkers.
#[test]
fn mitigation_modes_run_with_walker() {
    use volcast::geom::Pose;
    use volcast::viewport::Trace;
    let walker = Trace {
        user_id: usize::MAX,
        device: DeviceClass::Headset,
        rate_hz: 30.0,
        poses: (0..45)
            .map(|f| {
                Pose::new(
                    Vec3::new(-3.0 + f as f64 * 0.15, 1.7, 2.0),
                    Default::default(),
                )
            })
            .collect(),
    };
    for mode in [MitigationMode::Reactive, MitigationMode::Proactive] {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 45, 42, DeviceClass::Phone);
        s.params.mitigation = mode;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        s.walkers.push(walker.clone());
        let out = s.run().unwrap();
        assert!(out.blocked_user_frames > 0, "walker never blocked anyone");
    }
}
