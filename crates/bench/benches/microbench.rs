//! Microbenchmarks for the performance-critical kernels.
//!
//! These measure the costs a real deployment would care about: per-frame
//! visibility computation, grouping search, beam design, codec throughput,
//! channel evaluation, and the event engine. Timing uses the in-tree
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
use volcast_net::{EventQueue, SimTime};
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

fn bench_event_queue(h: &mut Harness) {
    h.bench_function("events/schedule_pop_10k", |b| {
        b.iter_batched(EventQueue::<u64>::new, |mut q| {
            for i in 0..10_000u64 {
                // Pseudo-random interleaved times.
                let t = (i.wrapping_mul(2_654_435_761)) % 1_000_000;
                q.schedule(SimTime(t + 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
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

/// Faithful copy of the pre-arena (seed) encoder: branchy bit coder,
/// per-bit Morton loop, comparison sort, and a fresh allocation for every
/// intermediate buffer on every call. It is the *naive per-call* arm of
/// the `codec/encode` bench — kept verbatim so the reused-`Encoder` arm is
/// measured against what the code path actually cost before the scratch
/// arenas, and doubles as a byte-equality cross-check (both arms must emit
/// the identical bitstream).
mod seed_codec {
    // Verbatim seed code predates current lint settings; keep it unchanged
    // rather than "improving" the baseline being measured.
    #![allow(clippy::needless_range_loop)]

    use volcast_geom::{Aabb, Vec3};
    use volcast_pointcloud::codec::CodecConfig;
    use volcast_pointcloud::PointCloud;

    const PROB_BITS: u32 = 11;
    const PROB_ONE: u16 = 1 << PROB_BITS;
    const ADAPT_SHIFT: u32 = 5;
    const TOP: u32 = 1 << 24;
    const MAGIC: [u8; 4] = *b"VOCT";
    const HEADER_LEN: usize = 4 + 1 + 1 + 4 + 24;

    #[derive(Clone, Copy)]
    struct BitModel {
        p0: u16,
    }
    impl BitModel {
        fn new() -> Self {
            BitModel { p0: PROB_ONE / 2 }
        }
        #[inline]
        fn update(&mut self, bit: bool) {
            if bit {
                self.p0 -= self.p0 >> ADAPT_SHIFT;
            } else {
                self.p0 += (PROB_ONE - self.p0) >> ADAPT_SHIFT;
            }
        }
    }

    struct RangeEncoder {
        low: u64,
        range: u32,
        cache: u8,
        pending: u64,
        first: bool,
        out: Vec<u8>,
    }
    impl RangeEncoder {
        fn new() -> Self {
            RangeEncoder {
                low: 0,
                range: u32::MAX,
                cache: 0,
                pending: 0,
                first: true,
                out: Vec::new(),
            }
        }
        fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
            let bound = (self.range >> PROB_BITS) * model.p0 as u32;
            if !bit {
                self.range = bound;
            } else {
                self.low += bound as u64;
                self.range -= bound;
            }
            model.update(bit);
            while self.range < TOP {
                self.shift_low();
                self.range <<= 8;
            }
        }
        fn encode_bits(&mut self, models: &mut [BitModel], value: u32, n: u32) {
            for i in (0..n).rev() {
                let bit = (value >> i) & 1 == 1;
                self.encode_bit(&mut models[(n - 1 - i) as usize], bit);
            }
        }
        #[inline]
        fn shift_low(&mut self) {
            if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
                let carry = (self.low >> 32) as u8;
                if self.first {
                    self.first = false;
                }
                self.out.push(self.cache.wrapping_add(carry));
                while self.pending > 0 {
                    self.out.push(0xFFu8.wrapping_add(carry));
                    self.pending -= 1;
                }
                self.cache = ((self.low >> 24) & 0xFF) as u8;
            } else {
                self.pending += 1;
            }
            self.low = (self.low << 8) & 0xFFFF_FFFF;
        }
        fn finish(mut self) -> Vec<u8> {
            for _ in 0..5 {
                self.shift_low();
            }
            self.out
        }
    }

    fn morton_encode(x: u32, y: u32, z: u32, depth: u32) -> u64 {
        let mut code = 0u64;
        for i in (0..depth).rev() {
            code = (code << 3)
                | (((x >> i) & 1) as u64) << 2
                | (((y >> i) & 1) as u64) << 1
                | ((z >> i) & 1) as u64;
        }
        code
    }

    struct Contexts {
        occupancy: Vec<[BitModel; 8]>,
        color: [[BitModel; 8]; 3],
    }
    impl Contexts {
        fn new(depth: u32) -> Self {
            Contexts {
                occupancy: vec![[BitModel::new(); 8]; depth as usize],
                color: [[BitModel::new(); 8]; 3],
            }
        }
    }

    pub fn encode(cloud: &PointCloud, cfg: &CodecConfig) -> Vec<u8> {
        let bounds = if cloud.is_empty() {
            Aabb::new(Vec3::ZERO, Vec3::ZERO)
        } else {
            cloud.bounds()
        };
        let extent = bounds.extent().max_component().max(1e-6);
        let levels = 1u32 << cfg.depth;
        let scale = levels as f64 / extent;
        let mut voxels: Vec<(u64, [u32; 3], u32)> = cloud
            .points
            .iter()
            .map(|p| {
                let rel = (p.position() - bounds.min) * scale;
                let q = |v: f64| (v.floor() as i64).clamp(0, (levels - 1) as i64) as u32;
                let (x, y, z) = (q(rel.x), q(rel.y), q(rel.z));
                (
                    morton_encode(x, y, z, cfg.depth),
                    [p.color[0] as u32, p.color[1] as u32, p.color[2] as u32],
                    1u32,
                )
            })
            .collect();
        voxels.sort_unstable_by_key(|v| v.0);
        let mut merged: Vec<(u64, [u32; 3], u32)> = Vec::with_capacity(voxels.len());
        for v in voxels {
            match merged.last_mut() {
                Some(last) if last.0 == v.0 => {
                    for c in 0..3 {
                        last.1[c] += v.1[c];
                    }
                    last.2 += v.2;
                }
                _ => merged.push(v),
            }
        }
        let codes: Vec<u64> = merged.iter().map(|v| v.0).collect();
        let mut data = Vec::with_capacity(HEADER_LEN + merged.len());
        data.extend_from_slice(&MAGIC);
        data.push(cfg.depth as u8);
        data.push(cfg.color_bits as u8);
        data.extend_from_slice(&(merged.len() as u32).to_le_bytes());
        for v in [bounds.min.x, bounds.min.y, bounds.min.z] {
            data.extend_from_slice(&(v as f32).to_le_bytes());
        }
        for v in [extent, 0.0, 0.0] {
            data.extend_from_slice(&(v as f32).to_le_bytes());
        }
        let mut ctx = Contexts::new(cfg.depth);
        let mut enc = RangeEncoder::new();
        if !codes.is_empty() {
            encode_node(&mut enc, &mut ctx, &codes, 0, cfg.depth);
            let shift = 8 - cfg.color_bits;
            for v in &merged {
                for ch in 0..3 {
                    let avg = v.1[ch] / v.2;
                    enc.encode_bits(&mut ctx.color[ch], avg >> shift, cfg.color_bits);
                }
            }
        }
        data.extend_from_slice(&enc.finish());
        data
    }

    fn encode_node(
        enc: &mut RangeEncoder,
        ctx: &mut Contexts,
        codes: &[u64],
        depth_from_root: u32,
        total_depth: u32,
    ) {
        let level_shift = 3 * (total_depth - depth_from_root - 1);
        let mut ranges: [(usize, usize); 8] = [(0, 0); 8];
        let mut start = 0usize;
        for child in 0..8u64 {
            let end = codes[start..]
                .iter()
                .position(|&c| (c >> level_shift) & 0b111 != child)
                .map(|p| start + p)
                .unwrap_or(codes.len());
            ranges[child as usize] = (start, end);
            start = end;
        }
        for child in 0..8usize {
            let occupied = ranges[child].1 > ranges[child].0;
            enc.encode_bit(
                &mut ctx.occupancy[depth_from_root as usize][child],
                occupied,
            );
        }
        if depth_from_root + 1 < total_depth {
            for child in 0..8usize {
                let (s, e) = ranges[child];
                if e > s {
                    encode_node(enc, ctx, &codes[s..e], depth_from_root + 1, total_depth);
                }
            }
        }
    }
}

/// Reused-encoder arena benches against the faithful seed copy, at a
/// streaming-representative workload: 330k points (the paper's Low-ladder
/// `points_per_frame`) voxelized at depth 7 — dense enough that the
/// quantize/sort/merge pipeline the arenas optimize dominates over the
/// entropy coder (whose per-bit cost is a shared floor for both arms).
fn bench_codec_arena(h: &mut Harness) {
    let cloud = SyntheticBody::default().frame(0, 330_000);
    let cfg = CodecConfig {
        depth: 7,
        color_bits: 6,
    };

    // Both arms must produce the identical bitstream — the naive arm is a
    // baseline, not a different codec.
    let naive_out = seed_codec::encode(&cloud, &cfg);
    let mut enc = Encoder::new();
    let mut stream = Vec::new();
    enc.encode_into(&cloud, &cfg, &mut stream);
    assert_eq!(naive_out, stream, "seed and arena encoders diverged");

    h.bench_function("codec/encode_naive_330k_d7", |b| {
        b.iter(|| seed_codec::encode(black_box(&cloud), &cfg))
    });
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

    // GOP-batched generate+encode: 8 reduced-density frames per iteration
    // through one deterministic slot sweep (reduced density bounds the
    // bench's working set; the per-frame arms above measure full density).
    // Pinned to 1 worker so the record stays comparable across hosts; a
    // gated 4-worker arm records the sweep's scaling where the host allows.
    let video = VideoSequence::new(7, 8);
    let grid = CellGrid::new(0.5);
    let mut gop = GopEncoder::new();
    let orig_threads = par::thread_count();
    par::set_thread_count(1);
    h.bench_function("codec/encode_gop_8x50k_d7", |b| {
        b.iter(|| gop.encode_video_gop_into(black_box(&video), 0, 8, 50_000, &grid, &cfg))
    });
    if can_bench_threads(4, "codec/encode_gop_8x50k_d7_t4") {
        par::set_thread_count(4);
        h.bench_function("codec/encode_gop_8x50k_d7_t4", |b| {
            b.iter(|| gop.encode_video_gop_into(black_box(&video), 0, 8, 50_000, &grid, &cfg))
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
    bench_event_queue(&mut h);
    bench_synthetic(&mut h);
    bench_codec_arena(&mut h);
    bench_session_frame(&mut h);
    bench_visibility_scaling(&mut h);
    bench_codebook_caching(&mut h);
}
