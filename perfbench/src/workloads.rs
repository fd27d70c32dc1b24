//! The four workloads: how each is built from a seed, how one closed-loop
//! request runs, and which identities its outcome must satisfy.

use std::time::Instant;
use volcast_core::campus::{Campus, CampusParams};
use volcast_core::session::quick_session_with_device;
use volcast_core::{
    DeliveryMode, PlayerKind, ServerOutcome, ServerParams, SessionOutcome, SessionServer,
    StreamingSession,
};
use volcast_net::{FaultConfig, StreamReader, StreamWriter};
use volcast_pointcloud::codec::{CodecConfig, GopEncoder};
use volcast_pointcloud::synthetic::SyntheticBody;
use volcast_pointcloud::QualityLevel;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;
use volcast_viewport::{DeviceClass, UserStudy};

/// The benchmark's workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Classroom,
    HallwayFaults,
    CampusPaper,
    ServerChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Classroom,
        Workload::HallwayFaults,
        Workload::CampusPaper,
        Workload::ServerChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Classroom => "classroom",
            Workload::HallwayFaults => "hallway_faults",
            Workload::CampusPaper => "campus_paper",
            Workload::ServerChurn => "server_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Distinct inputs generated per run. One session room is a small
    /// sample, so a run simulates many seeded rooms to keep the simulated
    /// metrics from swinging with one room's luck; campus and server are
    /// large enough on their own.
    pub fn instances(self, size: Size) -> usize {
        match (self, size) {
            (Workload::Classroom, Size::Full) => 56,
            (Workload::HallwayFaults, Size::Full) => 48,
            (Workload::Classroom | Workload::HallwayFaults, Size::Tiny) => 2,
            _ => 1,
        }
    }

    /// Worker budget of the end-to-end run. Campus and server rooms and
    /// clients are coarse parallel work, so they get every host thread.
    /// A session frame runs hundreds of tiny parallel regions: at two
    /// workers the vCPUs idle and wake between them, and under host load
    /// the run's wall time swung 3–4× with the hypervisor's steal time.
    /// Sessions therefore run at one worker; the traced run's
    /// `par.speedup` reports what the host's full budget does to them.
    pub fn e2e_threads(self, host_threads: usize) -> usize {
        match self {
            Workload::Classroom | Workload::HallwayFaults => 1,
            Workload::CampusPaper | Workload::ServerChurn => host_threads,
        }
    }
}

/// Full benchmark sizes, or the tiny ones the smoke test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Session shape: device class, users, frames, delivery, fault spec.
struct SessionShape {
    device: DeviceClass,
    users: usize,
    frames: usize,
    delivery: DeliveryMode,
    /// Fault spec (empty = fault-free).
    faults: &'static str,
}

/// The fault matrix's `combined` scenario (`--bin faults`).
const COMBINED_FAULTS: &str =
    "seed=17,outage=0.02:4,blockage=0.05:3,stall=0.02:2,loss=0.04,decode=0.03,blackout=30:6";
/// The `campus` bin's default fault spec.
const CAMPUS_FAULTS: &str = "seed=5,outage=0.01:5,loss=0.02,stall=0.005:3";
/// The `server` bin's default fault spec.
const SERVER_FAULTS: &str = "seed=11,outage=0.01:3,loss=0.02,stall=0.005:2,decode=0.01";

fn session_shape(w: Workload, size: Size) -> SessionShape {
    let tiny = size == Size::Tiny;
    match w {
        Workload::Classroom => SessionShape {
            device: DeviceClass::Phone,
            users: if tiny { 2 } else { 8 },
            frames: if tiny { 12 } else { 30 },
            delivery: DeliveryMode::Single,
            faults: "",
        },
        Workload::HallwayFaults => SessionShape {
            device: DeviceClass::Headset,
            users: if tiny { 2 } else { 6 },
            frames: if tiny { 40 } else { 60 },
            delivery: DeliveryMode::Layered,
            faults: COMBINED_FAULTS,
        },
        _ => unreachable!("not a session workload"),
    }
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named fault specs are used verbatim, schedule seed included: they
/// are part of the scenario, as in the bins they come from.
fn fault_config(spec: &str) -> FaultConfig {
    FaultConfig::from_spec(spec).expect("benchmark fault specs are well-formed")
}

/// Wall-clock split of the server set-up (the codec and wire layers).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSetup {
    /// Synthetic point-cloud frames.
    pub synth_s: f64,
    pub encode_s: f64,
    pub write_s: f64,
    /// Everything else: traces and `SessionServer::new`.
    pub other_s: f64,
    pub payload_bytes: u64,
}

/// One generated input, ready to run.
pub enum Instance {
    Session(Box<StreamingSession>),
    Campus(Box<Campus>),
    Server {
        server: Box<SessionServer>,
        /// The wire stream the server was built from (kept for the wire
        /// parse probe).
        stream: Vec<u8>,
        clients: usize,
        cap: usize,
        frames: usize,
        setup: ServerSetup,
    },
}

/// Builds instance `index` of workload `w` from the run's seed. This is
/// the work `setup_s` times.
pub fn setup(w: Workload, size: Size, seed: u64, index: usize) -> Result<Instance, String> {
    let seed = derive_seed(seed, index as u64);
    let tiny = size == Size::Tiny;
    match w {
        Workload::Classroom | Workload::HallwayFaults => {
            let shape = session_shape(w, size);
            let mut s = quick_session_with_device(
                PlayerKind::Volcast,
                shape.users,
                shape.frames,
                seed,
                shape.device,
            );
            s.params.delivery = shape.delivery;
            if !shape.faults.is_empty() {
                s.params.faults = Some(fault_config(shape.faults));
            }
            Ok(Instance::Session(Box::new(s)))
        }
        Workload::CampusPaper => {
            // Four users per AP, two APs per room (the paper's Table 1
            // regime, where the quality clamp stays near nominal).
            let (grid_w, grid_h, users, frames) = if tiny {
                (4, 2, 32, 20)
            } else {
                (25, 20, 4_000, 300)
            };
            let params = CampusParams {
                grid_w,
                grid_h,
                users,
                frames,
                epoch_frames: 10,
                seed,
                faults: Some(fault_config(CAMPUS_FAULTS)),
                ..CampusParams::default()
            };
            Campus::new(params)
                .map(|c| Instance::Campus(Box::new(c)))
                .map_err(|e| e.to_string())
        }
        Workload::ServerChurn => {
            let (clients, cap, frames, points): (usize, usize, usize, usize) = if tiny {
                (40, 32, 24, 500)
            } else {
                (2_400, 2_048, 600, 4_000)
            };
            let t_all = Instant::now();
            let cfg = CodecConfig::default();
            let body = SyntheticBody {
                seed: derive_seed(seed, 2),
                ..SyntheticBody::default()
            };
            let clouds: Vec<_> = (0..frames).map(|f| body.frame(f as u64, points)).collect();
            let synth_s = t_all.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut gop = GopEncoder::new();
            gop.encode_gop_into(&clouds, &cfg);
            let encode_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut writer =
                StreamWriter::new(cfg.depth as u8, cfg.color_bits as u8, frames as u32);
            let mut payload_bytes = 0u64;
            for f in 0..frames {
                let data = gop.frame_data(f);
                payload_bytes += data.len() as u64;
                writer.push_frame(data);
            }
            let stream = writer.finish();
            let write_s = t.elapsed().as_secs_f64();
            let traces =
                UserStudy::generate_with(seed, frames, clients.div_ceil(2), clients / 2).traces;
            let params = ServerParams {
                clients,
                admit_cap: cap,
                seed,
                faults: fault_config(SERVER_FAULTS),
                ..ServerParams::default()
            };
            let server =
                SessionServer::new(params, stream.clone(), traces).map_err(|e| e.to_string())?;
            let other_s = t_all.elapsed().as_secs_f64() - synth_s - encode_s - write_s;
            Ok(Instance::Server {
                server: Box::new(server),
                stream,
                clients,
                cap,
                frames,
                setup: ServerSetup {
                    synth_s,
                    encode_s,
                    write_s,
                    other_s,
                    payload_bytes,
                },
            })
        }
    }
}

/// What one request produced, reduced to what the benchmark reports and
/// checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a of the serialized outcome: must repeat exactly.
    pub hash: u64,
    /// User-frames attempted (session users × frames, campus users ×
    /// frames, offered clients × frames).
    pub user_frames: u64,
    /// Of those, how many missed their deadline.
    pub late: f64,
    /// Share of full quality delivered: session rendered points over
    /// High-level points per user-frame, campus mean quality scale, or
    /// the share of admitted client-frames the server delivered whole.
    pub quality: f64,
    /// Workload-specific details the traced run reports.
    pub detail: Detail,
}

#[derive(Debug, Clone)]
pub enum Detail {
    Session(Box<SessionOutcome>),
    Campus {
        handoffs: u64,
        mean_group_size: f64,
        multicast_byte_fraction: f64,
    },
    Server(Box<ServerOutcome>),
}

impl Instance {
    /// Simulated frames per run: session frames, campus frames, or server
    /// frames (per user or client).
    pub fn frames(&self) -> usize {
        match self {
            Instance::Session(s) => s.params.frames,
            Instance::Campus(c) => c.params.frames,
            Instance::Server { frames, .. } => *frames,
        }
    }

    /// Runs one request and checks the identities its outcome type
    /// defines. An error means the run failed.
    pub fn run(&mut self) -> Result<Outcome, String> {
        match self {
            Instance::Session(s) => {
                let out = s.run().map_err(|e| e.to_string())?;
                check_session(s, &out)?;
                Ok(session_outcome(s, out))
            }
            Instance::Campus(c) => {
                let out = c.run().map_err(|e| e.to_string())?;
                campus_outcome(c, &out)
            }
            Instance::Server {
                server,
                cap,
                frames,
                ..
            } => {
                let out = server.run().map_err(|e| e.to_string())?;
                server_outcome(*cap, *frames, out)
            }
        }
    }
}

fn check_session(s: &StreamingSession, out: &SessionOutcome) -> Result<(), String> {
    let n = s.traces.len();
    if out.qoe.users.len() != n {
        return Err(format!("{} QoE records for {n} users", out.qoe.users.len()));
    }
    if let Some(u) = out
        .qoe
        .users
        .iter()
        .position(|q| q.frames() != s.params.frames)
    {
        return Err(format!(
            "user {u} has {} QoE frames, expected {}",
            out.qoe.users[u].frames(),
            s.params.frames
        ));
    }
    if out.recovered_user_frames > out.fault_user_frames {
        return Err(format!(
            "recovered {} > faulted {} user-frames",
            out.recovered_user_frames, out.fault_user_frames
        ));
    }
    Ok(())
}

fn session_outcome(s: &StreamingSession, out: SessionOutcome) -> Outcome {
    let stalled: usize = out.qoe.users.iter().map(|q| q.frames_stalled).sum();
    Outcome {
        hash: fnv1a(out.to_json().to_json_string().as_bytes()),
        user_frames: (s.traces.len() * s.params.frames) as u64,
        late: stalled as f64,
        quality: density_ratio(s, &out),
        detail: Detail::Session(Box::new(out)),
    }
}

/// Mean over user-frames of the rendered level's points per frame over
/// the High level's.
fn density_ratio(s: &StreamingSession, out: &SessionOutcome) -> f64 {
    let full = s.video.quality(QualityLevel::High).points_per_frame as f64;
    let (mut sum, mut n) = (0.0, 0usize);
    for q in out.qoe.users.iter().flat_map(|u| &u.qualities) {
        sum += s.video.quality(*q).points_per_frame as f64 / full;
        n += 1;
    }
    sum / n.max(1) as f64
}

/// Checks a campus outcome and reduces it.
pub fn campus_outcome(c: &Campus, out: &volcast_core::CampusOutcome) -> Result<Outcome, String> {
    if !(out.on_time_ratio <= out.delivered_ratio && out.delivered_ratio <= 1.0) {
        return Err(format!(
            "on-time {} / delivered {} ratios out of order",
            out.on_time_ratio, out.delivered_ratio
        ));
    }
    if out.over_budget_items != 0 {
        return Err(format!("{} over-budget items", out.over_budget_items));
    }
    if out.users != c.params.users || out.frames != c.params.frames {
        return Err("campus outcome shape does not match its parameters".into());
    }
    let user_frames = (out.users * out.frames) as u64;
    Ok(Outcome {
        hash: fnv1a(out.to_json().to_json_string().as_bytes()),
        user_frames,
        late: (1.0 - out.on_time_ratio) * user_frames as f64,
        quality: out.mean_quality_scale,
        detail: Detail::Campus {
            handoffs: out.handoffs,
            mean_group_size: out.mean_group_size,
            multicast_byte_fraction: out.multicast_byte_fraction,
        },
    })
}

fn server_outcome(cap: usize, frames: usize, out: ServerOutcome) -> Result<Outcome, String> {
    if out.admitted + out.rejected != out.offered {
        return Err(format!(
            "admitted {} + rejected {} != offered {}",
            out.admitted, out.rejected, out.offered
        ));
    }
    if out.admitted > cap {
        return Err(format!("admitted {} above the cap {cap}", out.admitted));
    }
    let frames = frames as u64;
    let admitted_frames = out.admitted as u64 * frames;
    Ok(Outcome {
        hash: out.outcome_hash,
        user_frames: out.offered as u64 * frames,
        late: (out.rejected as u64 * frames + out.dropped_frames + out.undelivered_frames) as f64,
        quality: if admitted_frames == 0 {
            0.0
        } else {
            out.delivered_frames as f64 / admitted_frames as f64
        },
        detail: Detail::Server(Box::new(out)),
    })
}

/// Wire-layer probe: parses the server's stream and validates every
/// chunk, as a client would on receipt.
pub fn wire_parse(stream: &[u8]) -> Result<(), String> {
    let reader = StreamReader::parse(stream).map_err(|e| e.to_string())?;
    reader.validate_all().map_err(|e| e.to_string())
}
