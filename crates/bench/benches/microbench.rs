//! Microbenchmarks for the performance-critical kernels.
//!
//! These measure the costs a real deployment would care about: per-frame
//! visibility computation, grouping search, beam design, codec throughput,
//! and channel evaluation. Timing uses the in-tree
//! harness (`volcast_util::timing`) — wall-clock min/median/mean over a
//! fixed sample count, no external dependencies.
//!
//! Run: `cargo bench -p volcast-bench`
//! (knobs: `VOLCAST_BENCH_SAMPLES`, default 20)
//!
//! `cargo bench -p volcast-bench -- --json` runs only the tracked kernels
//! (visibility fan-out, codebook sweep, codec arena arms, session frame
//! loop) and writes `BENCH_visibility.json` / `BENCH_codebook.json` /
//! `BENCH_codec.json` / `BENCH_session.json` machine-readable reports
//! (median ns per iteration, thread counts, git revision) for the perf
//! trajectory tracked by `scripts/bench_baseline.sh`.

use std::hint::black_box;
use volcast_core::session::quick_session_with_device;
use volcast_core::{GroupPlanner, GroupingInputs, PlayerKind, SystemConfig};
use volcast_geom::Vec3;
use volcast_mmwave::{Channel, Codebook, GroupBeam, McsTable, SweepEngine, SweepRx};
use volcast_pointcloud::codec::{
    decode, encode, CodecConfig, Decoder, EncodedCloud, Encoder, GopEncoder,
};
use volcast_pointcloud::{CellCensus, CellGrid, QualityLevel, SyntheticBody, VideoSequence};
use volcast_util::json::{JsonValue, ToJson};
use volcast_util::par;
use volcast_util::timing::Harness;
use volcast_viewport::{iou, DeviceClass, UserStudy, VisibilityComputer, VisibilityOptions};

fn bench_codec(h: &mut Harness) {
    let cloud = SyntheticBody::default().frame(0, 50_000);
    let cfg = CodecConfig::default();
    h.bench_function("codec/encode_50k_points", |b| {
        b.iter(|| encode(black_box(&cloud), &cfg))
    });
    let (enc, _) = encode(&cloud, &cfg);
    h.bench_function("codec/decode_50k_points", |b| {
        b.iter(|| decode(black_box(&enc)).unwrap())
    });
}

fn bench_geometry(h: &mut Harness) {
    let cloud = SyntheticBody::default().frame(0, 50_000);
    let grid = CellGrid::new(0.5);
    h.bench_function("cells/partition_50k_points", |b| {
        b.iter(|| grid.partition(black_box(&cloud)))
    });
    // The session's per-frame binning: a warm census over one analysis
    // frame (15K points, 50 cm cells), counts written to a reused list.
    let analysis = SyntheticBody::default().frame(0, 15_000);
    let mut census = CellCensus::new();
    let mut cells = Vec::new();
    h.bench_function("cells/census_15k_points", |b| {
        b.iter(|| {
            census.count(&grid, black_box(&analysis).points.iter().map(|p| p.pos));
            census.cells_into(&mut cells);
            cells.len()
        })
    });

    let partition = grid.partition(&cloud);
    let study = UserStudy::generate(1, 30);
    let vc = VisibilityComputer::new(VisibilityOptions {
        intrinsics: DeviceClass::Headset.intrinsics(),
        ..VisibilityOptions::vivo()
    });
    let pose = study.traces[16].pose(10);
    h.bench_function("visibility/full_map_one_user", |b| {
        b.iter(|| vc.compute(black_box(&pose), &grid, &partition))
    });

    let m0 = vc.compute(&study.traces[16].pose(10), &grid, &partition);
    let m1 = vc.compute(&study.traces[17].pose(10), &grid, &partition);
    h.bench_function("similarity/iou_pair", |b| {
        b.iter(|| iou(black_box(&m0), black_box(&m1)))
    });
}

fn bench_mmwave(h: &mut Harness) {
    let channel = Channel::default_setup();
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    let user = Vec3::new(1.0, 1.5, -1.0);
    h.bench_function("channel/rss_one_beam", |b| {
        let beam = &codebook.sectors[10];
        b.iter(|| channel.rss_dbm(black_box(beam), user, &[]))
    });
    let pair = [Vec3::new(-2.0, 1.5, 0.0), Vec3::new(2.0, 1.5, 0.0)];
    h.bench_function("beam/design_two_user_group", |b| {
        b.iter(|| engine.design(black_box(&pair), &[]))
    });
}

fn bench_grouping(h: &mut Harness) {
    // Realistic grouping instance: 6 users over a real frame partition.
    let cloud = SyntheticBody::default().frame(0, 15_000);
    let grid = CellGrid::new(0.5);
    let partition = grid.partition(&cloud);
    let sizes: Vec<f64> = partition
        .iter()
        .map(|c| c.point_count as f64 * 3.0)
        .collect();
    let study = UserStudy::generate(1, 30);
    let vc = VisibilityComputer::new(VisibilityOptions {
        intrinsics: DeviceClass::Phone.intrinsics(),
        ..VisibilityOptions::vivo()
    });
    let maps: Vec<_> = (0..6)
        .map(|u| vc.compute(&study.traces[u].pose(10), &grid, &partition))
        .collect();
    let rates = vec![2000.0; 6];
    let mcs = McsTable::dmg();
    let channel = Channel::default_setup();
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    // The session's probe: receivers prepared once per frame, one reused
    // design (sector caches are warm after the first plan, as they are
    // after the first probes of a session frame).
    let mut rxs: Vec<SweepRx> = Vec::new();
    rxs.resize_with(6, SweepRx::new);
    for (u, rx) in rxs.iter_mut().enumerate() {
        rx.prepare(&engine, study.traces[u].pose(10).position, &[]);
    }
    let state = std::cell::RefCell::new((rxs, GroupBeam::default()));
    let group_rate = |members: &[usize]| -> f64 {
        let mut state = state.borrow_mut();
        let (rxs, beam) = &mut *state;
        engine.design_into(rxs, members, true, beam);
        mcs.multicast_rate_mbps(beam.member_rss_dbm())
    };
    let planner = GroupPlanner::new(SystemConfig::default());
    h.bench_function("grouping/plan_6_users", |b| {
        b.iter(|| {
            planner.plan(black_box(&GroupingInputs {
                maps: &maps,
                partition: &partition,
                cell_sizes: &sizes,
                unicast_rate_mbps: &rates,
                multicast_rate_mbps: &group_rate,
            }))
        })
    });
}

fn bench_synthetic(h: &mut Harness) {
    let body = SyntheticBody::default();
    h.bench_function("synthetic/frame_100k_points", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            body.frame(black_box(i), 100_000)
        })
    });
}

/// Reused-encoder arena benches at a streaming-representative workload:
/// 330k points (the paper's Low-ladder `points_per_frame`) voxelized at
/// depth 7 — dense enough that the quantize/sort/merge pipeline the arenas
/// optimize dominates over the entropy coder.
fn bench_codec_arena(h: &mut Harness) {
    let cloud = SyntheticBody::default().frame(0, 330_000);
    let cfg = CodecConfig {
        depth: 7,
        color_bits: 6,
    };

    let mut enc = Encoder::new();
    let mut stream = Vec::new();
    h.bench_function("codec/encode_reused_330k_d7", |b| {
        b.iter(|| enc.encode_into(black_box(&cloud), &cfg, &mut stream))
    });

    let encoded = EncodedCloud {
        data: stream.clone(),
    };
    let mut dec = Decoder::new();
    let mut decoded = volcast_pointcloud::PointCloud::new();
    h.bench_function("codec/decode_reused_330k_d7", |b| {
        b.iter(|| dec.decode_into(black_box(&encoded), &mut decoded).unwrap())
    });

    // GOP-batched encode: 8 pre-generated reduced-density frames per
    // iteration through one deterministic slot sweep (reduced density
    // bounds the bench's working set; the per-frame arms above measure full
    // density). Pinned to 1 worker so the record stays comparable across
    // hosts; a gated 4-worker arm records the sweep's scaling where the
    // host allows.
    let video = VideoSequence::new(7, 8);
    let clouds: Vec<_> = (0..8)
        .map(|f| video.frame_with_density(f, 50_000))
        .collect();
    let mut gop = GopEncoder::new();
    let orig_threads = par::thread_count();
    par::set_thread_count(1);
    h.bench_function("codec/encode_gop_8x50k_d7", |b| {
        b.iter(|| gop.encode_gop_into(black_box(&clouds), &cfg))
    });
    if can_bench_threads(4, "codec/encode_gop_8x50k_d7_t4") {
        par::set_thread_count(4);
        h.bench_function("codec/encode_gop_8x50k_d7_t4", |b| {
            b.iter(|| gop.encode_gop_into(black_box(&clouds), &cfg))
        });
    }
    par::set_thread_count(orig_threads);
}

/// The full session frame loop (pose -> blockage -> visibility -> ABR ->
/// grouping -> schedule -> QoE) with the double-buffered per-frame state.
/// One iteration runs a fresh 30-frame, 3-user Volcast session; divide the
/// reported time by 30 for the per-frame cost.
fn bench_session_frame(h: &mut Harness) {
    h.bench_function("session/frame_loop_volcast3_30f", |b| {
        b.iter_batched(
            || {
                let mut s =
                    quick_session_with_device(PlayerKind::Volcast, 3, 30, 7, DeviceClass::Phone);
                s.params.analysis_points = 4_000;
                s.params.fixed_quality = Some(QualityLevel::Low);
                s
            },
            |mut s| s.run().unwrap(),
        )
    });
}

/// Hardware threads the host offers (1 if unknown).
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True if a `threads`-worker bench is meaningful on this host; warns and
/// returns false otherwise. Recording a 4-thread datapoint on a 1-core
/// box would measure oversubscription, not scaling, and the baseline
/// comparison in `scripts/bench_baseline.sh` would chase that noise.
fn can_bench_threads(threads: usize, bench: &str) -> bool {
    let host = host_threads();
    if threads <= host {
        return true;
    }
    println!("# WARNING: skipping {bench}: requested {threads} threads but host has {host}");
    false
}

/// Per-user visibility fan-out at 1 and 4 worker threads — the session
/// hot loop this PR parallelizes. Same seeded inputs, bit-identical maps
/// at both thread counts (the determinism property tests enforce that);
/// only the wall clock differs.
fn bench_visibility_scaling(h: &mut Harness) {
    let cloud = SyntheticBody::default().frame(0, 30_000);
    let grid = CellGrid::new(0.5);
    let partition = grid.partition(&cloud);
    let study = UserStudy::generate(1, 30);
    let vc = VisibilityComputer::new(VisibilityOptions {
        intrinsics: DeviceClass::Headset.intrinsics(),
        ..VisibilityOptions::vivo()
    });
    let poses: Vec<_> = (0..8).map(|u| study.traces[u].pose(10)).collect();
    let orig = par::thread_count();
    for threads in [1usize, 4] {
        let name = format!("visibility/maps_8_users_t{threads}");
        if !can_bench_threads(threads, &name) {
            continue;
        }
        par::set_thread_count(threads);
        h.bench_function(&name, |b| {
            b.iter(|| par::par_map(&poses, |p| vc.compute(black_box(p), &grid, &partition)))
        });
    }
    par::set_thread_count(orig);
}

/// Full 48-sector codebook sweep for a 3-user group: the naive per-call
/// path (re-deriving rays, blockage and steering vectors for every
/// (sector, member) pair) vs the pruned engine (each member prepared once
/// into reused buffers, sectors whose RSS bound cannot win skipped). Both
/// return the same best sector and RSS values.
fn bench_codebook_caching(h: &mut Harness) {
    let channel = Channel::default_setup();
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    let members = [
        Vec3::new(-2.0, 1.5, 0.0),
        Vec3::new(2.0, 1.5, 0.0),
        Vec3::new(0.5, 1.6, -1.5),
    ];
    h.bench_function("codebook/sweep48_naive", |b| {
        b.iter(|| {
            let mut best = (0usize, f64::NEG_INFINITY);
            for (si, sector) in codebook.sectors.iter().enumerate() {
                let min = members
                    .iter()
                    .map(|&m| channel.rss_dbm(black_box(sector), m, &[]))
                    .fold(f64::INFINITY, f64::min);
                if min > best.1 {
                    best = (si, min);
                }
            }
            best
        })
    });
    let mut rxs: Vec<SweepRx> = Vec::new();
    rxs.resize_with(members.len(), SweepRx::new);
    let (mut tmp, mut rss) = (Vec::new(), Vec::new());
    h.bench_function("codebook/sweep48_pruned", |b| {
        b.iter(|| {
            for (rx, &m) in rxs.iter_mut().zip(&members) {
                rx.prepare(&engine, black_box(m), &[]);
            }
            engine.best_joint(&mut rxs, &[0, 1, 2], &mut tmp, &mut rss)
        })
    });
}

/// Writes one `BENCH_<name>.json` report at the workspace root: the
/// harness records plus the git revision and host thread budget, for the
/// perf trajectory. (Cargo runs bench binaries from the package dir, so
/// the path is anchored to the manifest.)
fn write_report(name: &str, h: &Harness) {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1) as u64;
    let report = JsonValue::Obj(vec![
        ("git_rev".into(), rev.to_json()),
        ("host_threads".into(), host_threads.to_json()),
        ("benches".into(), h.json_report()),
    ]);
    std::fs::write(&path, report.to_json_string() + "\n")
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {name} (host_threads={host_threads})");
}

fn main() {
    // Scaling benches compare thread counts, so say up front how many the
    // host actually has — a reader of the report needs this to judge
    // whether a _t4 record is missing (skipped) or meaningful.
    println!("host_threads={}", host_threads());
    // `--json`: only the parallel-kernel benches, with machine-readable
    // reports (fast enough for scripts/bench_baseline.sh to run per
    // commit). Default: the full suite, human-readable.
    if std::env::args().any(|a| a == "--json") {
        let mut hv = Harness::new();
        bench_visibility_scaling(&mut hv);
        write_report("BENCH_visibility.json", &hv);
        let mut hc = Harness::new();
        bench_codebook_caching(&mut hc);
        write_report("BENCH_codebook.json", &hc);
        let mut hcd = Harness::new();
        bench_codec_arena(&mut hcd);
        write_report("BENCH_codec.json", &hcd);
        let mut hs = Harness::new();
        bench_session_frame(&mut hs);
        write_report("BENCH_session.json", &hs);
        return;
    }
    let mut h = Harness::new();
    bench_codec(&mut h);
    bench_geometry(&mut h);
    bench_mmwave(&mut h);
    bench_grouping(&mut h);
    bench_synthetic(&mut h);
    bench_codec_arena(&mut h);
    bench_session_frame(&mut h);
    bench_visibility_scaling(&mut h);
    bench_codebook_caching(&mut h);
}
