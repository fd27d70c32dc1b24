//! End-to-end multi-user streaming sessions.
//!
//! [`StreamingSession::run`] drives the paper's per-frame pipeline over the
//! simulated substrates, one private function per stage:
//!
//! 1. **observe** user poses into the joint multi-user predictor, which
//!    predicts the poses the frame is planned on,
//! 2. **links**: forecast body blockages and steer beams (proactive mode
//!    pre-steers to the best surviving path; reactive mode serves one stale
//!    frame and pays a full sweep), then each user's RSS and PHY rate,
//! 3. **visibility** maps over the frame's non-empty cells (per-cell point
//!    counts from a census of the analysis frame),
//! 4. **quality** per user (buffer-only / throughput-only / cross-layer),
//! 5. **plan**: unicast for the baselines; for Volcast, viewport-similarity
//!    groups (`T_m(k)` model) with designed group beams, single-stream or
//!    layered,
//! 6. **degrade**: the bounded retransmit and the injected AP stall,
//! 7. **account**: execute on the 802.11ad/ac MAC model, then client
//!    buffers, decode time, stalls, and QoE,
//!
//! then a pipelined replay of every frame's plan. The baselines, **vanilla**
//! (full frames, unicast) and **multi-user ViVo** (visibility-culled,
//! unicast), share the pipeline, so every comparison shares one code path.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::bandwidth::CrossLayerInputs;
use crate::config::SystemConfig;
use crate::error::VolcastError;
use crate::grouping::{Group, GroupPlan, GroupPlanner, GroupingInputs};
use crate::mitigation::{BlockageMitigator, MitigationAction, MitigationMode};
use crate::player::PlayerKind;
use crate::qoe::QoeReport;
use crate::rate_adapt::{AbrPolicy, Distress, FecRung, GroupState, RateAdapter};
use volcast_geom::{Pose, Vec3};
use volcast_mmwave::{Blocker, Channel, Codebook, GroupBeam, McsTable, SweepEngine, SweepRx};
use volcast_net::{
    AcMac, AdMac, BacklogPolicy, FaultConfig, FaultPlan, FrameFaults, MacModel, PlanTiming,
    SimTime, Simulator, TransmissionPlan, TxItem, TxKind, Wifi5Channel,
};
use volcast_pointcloud::codec::GopEncoder;
use volcast_pointcloud::{CellGrid, CellId, CellInfo, DecodeModel, QualityLevel, VideoSequence};
use volcast_util::{obs, par};
use volcast_viewport::{
    size_index, BlockageEvent, BlockageForecaster, DeviceClass, JointPredictor, Trace,
    TraceGenerator, VisibilityComputer, VisibilityMap, VisibilityOptions,
};

/// Which radio the session runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadioKind {
    /// 802.11ad at 60 GHz: directional beams, body blockage, multicast at
    /// the group's common MCS under a designed beam (the paper's system).
    MmWave,
    /// 802.11ac at 5 GHz: quasi-omni, mild body shadowing, group-addressed
    /// frames at a slow legacy basic rate (the Table 1 baseline network).
    Wifi5,
}

/// How frame payloads are laid onto the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// One single-stream payload per user (the pre-layered pipeline).
    Single,
    /// Layered progressive delivery: the octree base layer is multicast to
    /// the whole group at the ladder's floor quality, enhancement layers
    /// are unicast per user within the airtime budget, and distressed
    /// users' bursts carry proactive XOR parity (see `volcast_net::fec`).
    /// A user whose enhancements miss the deadline renders the base
    /// instead of stalling. Takes effect for the volcast player; the
    /// vanilla/ViVo baselines have no layered bitstream and ignore it.
    Layered,
}

/// `MacModel` dispatch over the session's radio.
enum MacDispatch<'a> {
    Ad(&'a AdMac),
    Ac(&'a AcMac),
}

impl MacModel for MacDispatch<'_> {
    fn goodput_mbps(&self, phy_mbps: f64, n_active: usize) -> f64 {
        match self {
            MacDispatch::Ad(m) => m.goodput_mbps(phy_mbps, n_active),
            MacDispatch::Ac(m) => m.goodput_mbps(phy_mbps, n_active),
        }
    }
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct SessionParams {
    /// Shared system configuration.
    pub config: SystemConfig,
    /// Which player the users run.
    pub player: PlayerKind,
    /// Rate-adaptation policy.
    pub abr: AbrPolicy,
    /// Blockage-mitigation mode.
    pub mitigation: MitigationMode,
    /// Fixed quality (bypasses ABR) or `None` for adaptive.
    pub fixed_quality: Option<QualityLevel>,
    /// Number of frames to run.
    pub frames: usize,
    /// Point density used for visibility/cell analysis. Cell byte sizes
    /// are rescaled to the chosen quality's full density, so this only
    /// trades analysis resolution for speed.
    pub analysis_points: usize,
    /// Use customized multi-lobe beams for multicast (ablation knob).
    pub custom_beams: bool,
    /// Plan on predicted poses (`true`, the paper's design) or oracle
    /// current poses (`false`, upper bound).
    pub use_prediction: bool,
    /// Whether other users' bodies block mmWave links.
    pub body_blockage: bool,
    /// The radio technology (mmWave 802.11ad or baseline 802.11ac).
    pub radio: RadioKind,
    /// Deterministic fault injection, or `None` for a fault-free run.
    pub faults: Option<FaultConfig>,
    /// Single-stream or layered progressive delivery.
    pub delivery: DeliveryMode,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            config: SystemConfig::default(),
            player: PlayerKind::Volcast,
            abr: AbrPolicy::CrossLayer,
            mitigation: MitigationMode::Proactive,
            fixed_quality: None,
            frames: 90,
            analysis_points: 15_000,
            custom_beams: true,
            use_prediction: true,
            body_blockage: true,
            radio: RadioKind::MmWave,
            faults: None,
            delivery: DeliveryMode::Single,
        }
    }
}

impl SessionParams {
    /// Validates the parameters, surfacing what used to be deep-loop
    /// panics (or silent nonsense) as errors: a session needs at least one
    /// frame, a positive frame interval, a nonzero analysis density, a
    /// positive finite cell size, and a well-formed fault configuration.
    pub fn validate(&self) -> Result<(), VolcastError> {
        if self.frames == 0 {
            return Err(VolcastError::InvalidParams("frames must be >= 1".into()));
        }
        if self.analysis_points == 0 {
            return Err(VolcastError::InvalidParams(
                "analysis_points must be >= 1".into(),
            ));
        }
        let cell_size = self.config.cell_size;
        if !(cell_size > 0.0 && cell_size.is_finite()) {
            return Err(VolcastError::InvalidParams(format!(
                "cell_size {cell_size} m must be positive and finite"
            )));
        }
        let interval = self.config.frame_interval_s();
        if !(interval > 0.0 && interval.is_finite()) {
            return Err(VolcastError::InvalidParams(format!(
                "frame interval {interval} s (target_fps {}) must be positive and finite",
                self.config.target_fps
            )));
        }
        if let Some(cfg) = &self.faults {
            cfg.validate()?;
        }
        Ok(())
    }
}

/// Aggregated outcome of a session run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Per-user and aggregate QoE.
    pub qoe: QoeReport,
    /// Mean per-frame transmission time (seconds).
    pub mean_frame_time_s: f64,
    /// Fraction of delivered bytes that rode multicast.
    pub multicast_byte_fraction: f64,
    /// Mean multicast group size (1.0 = pure unicast). A planning
    /// statistic: it averages the groups the planner formed, including on
    /// frames an AP stall kept off the air.
    pub mean_group_size: f64,
    /// Fraction of multicast transmissions using customized beams.
    pub customized_beam_fraction: f64,
    /// Count of frames during which some user's link was body-blocked.
    pub blocked_user_frames: usize,
    /// Mean viewport-prediction translation error (meters), when
    /// prediction was active.
    pub mean_prediction_error_m: f64,
    /// Network-only pipelined view: fraction of (user, frame) payloads that
    /// completed within their frame slot when the per-frame plans run
    /// back-to-back through the event-driven simulator with live (drop)
    /// semantics. Ignores client buffers/decode — it isolates how much the
    /// *schedule itself* fits the medium.
    pub pipelined_on_time_ratio: f64,
    /// Count of (user, frame) pairs hit by an injected fault (outage,
    /// blockage, loss, decode overrun, or an AP stall covering everyone).
    /// 0 for fault-free runs.
    pub fault_user_frames: usize,
    /// Of [`fault_user_frames`](Self::fault_user_frames), how many still
    /// rendered on time — absorbed by the degradation ladder (buffer
    /// playback, retransmit, quality fall-down) rather than stalling.
    pub recovered_user_frames: usize,
}

/// The end-to-end session.
pub struct StreamingSession {
    /// Parameters.
    pub params: SessionParams,
    /// Per-user 6DoF traces (all the same length >= `params.frames`).
    pub traces: Vec<Trace>,
    /// The video content.
    pub video: VideoSequence,
    /// The mmWave channel (room + AP array).
    pub channel: Channel,
    /// The default sector codebook.
    pub codebook: Codebook,
    /// 802.11ad MAC model.
    pub mac: AdMac,
    /// 802.11ac MAC model (used when `params.radio` is `Wifi5`).
    pub ac_mac: AcMac,
    /// 5 GHz channel (used when `params.radio` is `Wifi5`).
    pub wifi5: Wifi5Channel,
    /// DMG MCS table.
    pub mcs: McsTable,
    /// VHT MCS table for the 802.11ac baseline.
    pub vht: McsTable,
    /// Client decode model.
    pub decode: DecodeModel,
    /// Ambient (non-viewer) people walking through the room: pure blockers.
    /// Their motion comes from traces; walker motion is near-linear, so the
    /// proactive mitigator is modeled as forecasting their crossings
    /// accurately (prefetch + pre-steered beam land at the onset).
    pub walkers: Vec<Trace>,
}

impl StreamingSession {
    /// Builds a session with default substrates.
    pub fn new(params: SessionParams, traces: Vec<Trace>) -> Self {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        StreamingSession {
            params,
            traces,
            video: VideoSequence::default(),
            channel,
            codebook,
            mac: AdMac::default(),
            ac_mac: AcMac::default(),
            wifi5: Wifi5Channel::default(),
            mcs: McsTable::dmg(),
            vht: McsTable::vht80_2ss(),
            decode: DecodeModel::default(),
            walkers: Vec::new(),
        }
    }

    /// Runs the session, returning aggregate QoE and system statistics.
    ///
    /// Errors — instead of panicking deep in the frame loop — on invalid
    /// [`SessionParams`] (see [`SessionParams::validate`]), degenerate
    /// traces (no users, an empty trace), or an out-of-range fault
    /// configuration.
    pub fn run(&mut self) -> Result<SessionOutcome, VolcastError> {
        self.params.validate()?;
        if self.traces.is_empty() {
            return Err(VolcastError::InvalidTraces("no user traces".into()));
        }
        if let Some(u) = self.traces.iter().position(|t| t.is_empty()) {
            return Err(VolcastError::InvalidTraces(format!(
                "user {u} has an empty trace"
            )));
        }
        if let Some(w) = self.walkers.iter().position(|t| t.is_empty()) {
            return Err(VolcastError::InvalidTraces(format!(
                "walker {w} has an empty trace"
            )));
        }
        let (n, frames) = (self.traces.len(), self.params.frames);
        // The fault schedule is materialized up front: one shared, immutable
        // plan consulted by the frame loop and the pipelined replay.
        let fault_plan = match &self.params.faults {
            Some(cfg) => FaultPlan::generate(*cfg, frames, n).map_err(VolcastError::Net)?,
            None => FaultPlan::quiet(),
        };
        let ctx = RunCtx::new(self, &fault_plan);
        let mut sc = Scratch::default();
        let mut joint = JointPredictor::new(n, ctx.cfg.predictor_window, Default::default());
        let mut users = Users {
            adapter: RateAdapter::new(self.params.abr, n),
            qoe: QoeReport::new(n),
            buffers: vec![2.0; n], // frames of startup buffer
            distress: vec![0; n],
        };
        let mut sums = Totals::default();
        let mut all_plans: Vec<TransmissionPlan> = Vec::with_capacity(frames);

        for f in 0..frames {
            let _frame_span = obs::span("session.frame");
            obs::inc("session.frames");
            let faults = fault_plan.at(f);
            ctx.count_faults(faults);
            ctx.observe(f, &mut joint, &mut sc.scene, &mut sums);
            ctx.links(faults, &sc.scene, &mut sc.links, &mut sums);
            ctx.visibility(f, &sc.scene.planning_poses, &mut sc.demand);
            ctx.quality(&sc.links, &users, &mut sc.demand);
            let frame = FrameView {
                faults,
                scene: &sc.scene,
                links: &sc.links,
                demand: &sc.demand,
            };
            ctx.plan(&frame, &users, &mut sc.grouping, &mut sc.delivery);
            ctx.degrade(&frame, &mut sc.delivery);
            ctx.account(&frame, &sc.delivery, &mut users, &mut sums);
            // The replay log takes the plan by move: accounting read it last.
            all_plans.push(std::mem::take(&mut sc.delivery.plan));
        }

        users.qoe.duration_s = frames as f64 * ctx.interval;
        let pipelined = ctx.replay(&fault_plan, &all_plans)?;
        Ok(sums.outcome(users.qoe, pipelined, frames))
    }
}

/// What every stage of a run reads and no stage writes: the session's
/// substrates plus constants derived from its parameters.
struct RunCtx<'a> {
    s: &'a StreamingSession,
    n: usize,
    cfg: SystemConfig,
    interval: f64,
    /// The degradation ladder only engages on faulted runs, so fault-free
    /// sessions behave bit-identically to a build without it.
    have_faults: bool,
    is_wifi5: bool,
    /// Layered delivery needs the layered bitstream and the multicast
    /// scheduler: volcast-player sessions only.
    layered: bool,
    mac: MacDispatch<'a>,
    mcs_table: &'a McsTable,
    grid: CellGrid,
    planner: GroupPlanner,
    engine: SweepEngine<'a>,
    mitigator: BlockageMitigator,
    forecaster: BlockageForecaster,
    /// Analysis frames per census batch: one GOP (a second of frames).
    gop_len: usize,
    buf_cap: f64,
}

/// Per-user client and ABR state carried across frames.
struct Users {
    adapter: RateAdapter,
    qoe: QoeReport,
    /// Client buffer occupancy in frames.
    buffers: Vec<f64>,
    /// Degradation-ladder distress (DESIGN.md §11): drives the quality
    /// fall-down and deepens the enhancement reserve.
    distress: Vec<u32>,
}

/// Run-wide sums behind [`SessionOutcome`].
#[derive(Default)]
struct Totals {
    total_bytes: f64,
    multicast_bytes: f64,
    frame_time_sum: f64,
    group_size_sum: f64,
    group_count: usize,
    multicast_groups: usize,
    customized_groups: usize,
    blocked_user_frames: usize,
    pred_err_sum: f64,
    pred_err_count: usize,
    fault_user_frames: usize,
    recovered_user_frames: usize,
}

/// The per-frame buffers of a run, one part per stage: built once and
/// cleared (never freed) every frame, so the steady-state loop does not
/// churn the allocator.
#[derive(Default)]
struct Scratch {
    scene: Scene,
    links: Links,
    demand: Demand,
    grouping: Grouping,
    delivery: Delivery,
}

/// Observe: who stands where this frame.
#[derive(Default)]
struct Scene {
    poses: Vec<Pose>,
    planning_poses: Vec<Pose>,
    walker_pos: Vec<Vec3>,
    /// Users' bodies, then walkers' (empty without body blockage).
    all_blockers: Vec<Blocker>,
}

/// Links: blockage, mitigation and every user's serving link.
#[derive(Default)]
struct Links {
    /// Double-buffered: this frame's `blocked_now` becomes next frame's
    /// `blocked_prev` by a swap.
    blocked_now: Vec<bool>,
    blocked_prev: Vec<bool>,
    beam_outage: Vec<f64>,
    extra_prefetch: Vec<usize>,
    wasted_tx: Vec<bool>,
    events: Vec<BlockageEvent>,
    actions: Vec<MitigationAction>,
    rss: Vec<f64>,
    unicast_phy: Vec<f64>,
}

/// Cells, visibility and quality: what each user needs this frame.
#[derive(Default)]
struct Demand {
    gop: GopEncoder,
    cells: Vec<CellInfo>,
    maps: Vec<VisibilityMap>,
    /// Unit (analysis-density) size per cell, and its id-keyed index.
    unit_sizes: Vec<f64>,
    unit_index: BTreeMap<CellId, f64>,
    needed_fraction: Vec<f64>,
    qualities: Vec<QualityLevel>,
    fec_rungs: Vec<FecRung>,
}

/// The Volcast plans' working buffers.
#[derive(Default)]
struct Grouping {
    /// One sweep receiver per user, re-prepared every frame, and one
    /// design reused by every probe.
    beam_rxs: Vec<SweepRx>,
    group_beam: GroupBeam,
    /// Unit byte need per user.
    member_unit: Vec<f64>,
    cell_sizes: Vec<f64>,
    severed: Vec<usize>,
    /// Beam-switch outage not yet charged to one of the user's bursts.
    outage_pending: Vec<f64>,
}

/// Plan output, revised by degrade and read by account.
#[derive(Default)]
struct Delivery {
    plan: TransmissionPlan,
    groups: Vec<Group>,
    /// Grouped users may be pulled down to their group's quality, layered
    /// users to the base.
    effective_quality: Vec<QualityLevel>,
    unserved: Vec<bool>,
    needed_bytes: Vec<f64>,
    /// Users with parity on a burst: they repair one loss locally.
    fec_protected: Vec<bool>,
    /// The plan item carrying each user's base layer (layered delivery).
    base_item_idx: Vec<Option<usize>>,
    retransmitted: Vec<bool>,
    /// Multicast items of the plan that ride customized beams.
    customized: usize,
}

/// One frame's read-only view for the plan, degrade and account stages.
struct FrameView<'f> {
    faults: &'f FrameFaults,
    scene: &'f Scene,
    links: &'f Links,
    demand: &'f Demand,
}

impl Delivery {
    /// Starts a frame planned at `qualities`.
    fn begin(&mut self, qualities: &[QualityLevel]) {
        let n = qualities.len();
        self.plan.items.clear();
        self.groups.clear();
        self.customized = 0;
        self.effective_quality.clear();
        self.effective_quality.extend_from_slice(qualities);
        reset(&mut self.unserved, n, false);
        reset(&mut self.needed_bytes, n, 0.0);
        reset(&mut self.fec_protected, n, false);
        reset(&mut self.base_item_idx, n, None);
    }
}

impl Totals {
    fn outcome(self, qoe: QoeReport, pipelined: f64, frames: usize) -> SessionOutcome {
        let customized = self.customized_groups as f64;
        SessionOutcome {
            qoe,
            mean_frame_time_s: self.frame_time_sum / frames.max(1) as f64,
            multicast_byte_fraction: ratio(self.multicast_bytes, self.total_bytes, 0.0),
            mean_group_size: ratio(self.group_size_sum, self.group_count as f64, 1.0),
            customized_beam_fraction: ratio(customized, self.multicast_groups as f64, 0.0),
            blocked_user_frames: self.blocked_user_frames,
            mean_prediction_error_m: ratio(self.pred_err_sum, self.pred_err_count as f64, 0.0),
            pipelined_on_time_ratio: pipelined,
            fault_user_frames: self.fault_user_frames,
            recovered_user_frames: self.recovered_user_frames,
        }
    }
}

impl<'a> RunCtx<'a> {
    fn new(s: &'a StreamingSession, fault_plan: &FaultPlan) -> Self {
        let cfg = s.params.config;
        let is_wifi5 = s.params.radio == RadioKind::Wifi5;
        let layered = s.params.delivery == DeliveryMode::Layered
            && matches!(s.params.player, PlayerKind::Volcast);
        let buf_frames = cfg.buffer_capacity_frames as f64;
        RunCtx {
            s,
            n: s.traces.len(),
            cfg,
            interval: cfg.frame_interval_s(),
            have_faults: !fault_plan.is_quiet(),
            is_wifi5,
            layered,
            mac: match s.params.radio {
                RadioKind::MmWave => MacDispatch::Ad(&s.mac),
                RadioKind::Wifi5 => MacDispatch::Ac(&s.ac_mac),
            },
            mcs_table: if is_wifi5 { &s.vht } else { &s.mcs },
            grid: CellGrid::new(cfg.cell_size),
            planner: GroupPlanner::new(cfg),
            engine: SweepEngine::new(&s.channel, &s.codebook),
            mitigator: BlockageMitigator::new(s.params.mitigation),
            forecaster: BlockageForecaster::new(s.channel.array.position),
            gop_len: (cfg.target_fps.round() as usize).max(1),
            // Layered streams buffer deeper: a prefetched base frame is
            // quality-invariant (the enhancement decision is made at play
            // time, not fetch time), so progressive delivery can hold twice
            // the single-stream motion-to-photon window without the
            // quality-switch waste that caps single-stream prefetch — the
            // SVC deep-buffer argument, and the mechanism by which the FEC
            // ladder's goodput savings convert into stall headroom.
            buf_cap: if layered {
                2.0 * buf_frames
            } else {
                buf_frames
            },
        }
    }

    /// Admission control: never admit a burst whose airtime alone exceeds
    /// three frame intervals. A frame that slow can never catch up (the
    /// buffer is shallower than the backlog it creates) and would starve
    /// the service period. Sub-30-FPS bursts (the paper's 10-25 FPS rows)
    /// still fit; deeply faded MCS0-trickle bursts are deferred instead of
    /// poisoning every other user's frame.
    fn admit(&self, bytes: f64, phy: f64) -> bool {
        phy > 0.0 && self.mac.airtime_s(bytes, phy, self.n) <= 3.0 * self.interval
    }

    /// Bytes per unit (analysis-density point) at quality `q`: cell sizes
    /// are rescaled to the quality's full density.
    fn scale(&self, q: QualityLevel) -> f64 {
        let quality = self.s.video.quality(q);
        quality.points_per_frame as f64 / self.s.params.analysis_points as f64
            * quality.bytes_per_point()
    }

    /// Client decode time at `q`. An overrun (thermal throttling,
    /// background work) misses the slot: at least a slot and a half.
    fn decode_time(&self, q: QualityLevel, overrun: bool) -> f64 {
        let points = self.s.video.quality(q).points_per_frame;
        let t = self.s.decode.frame_decode_time(points);
        if overrun {
            t.max(1.5 * self.interval)
        } else {
            t
        }
    }

    /// Playout of a frame ready at `t_eff` with `buf` frames buffered:
    /// on-time flag, stall seconds, and the buffer's next value.
    fn playout(&self, t_eff: f64, buf: f64) -> (bool, f64, f64) {
        let interval = self.interval;
        if !t_eff.is_finite() {
            // Undeliverable frame: play from buffer if possible.
            if buf >= 1.0 {
                (true, 0.0, buf - 1.0)
            } else {
                (false, interval, 0.0)
            }
        } else if t_eff <= interval {
            // Spare airtime prefetches ahead.
            let spare = (interval - t_eff) / interval;
            (true, 0.0, (buf + spare).min(self.buf_cap))
        } else {
            let deficit = (t_eff - interval) / interval; // frames
            if buf >= deficit {
                (true, 0.0, buf - deficit)
            } else {
                (false, (deficit - buf) * interval, 0.0)
            }
        }
    }

    /// Designs the group beam for `members`: its common RSS and whether it
    /// is customized. The grouping search probes the same member sets
    /// repeatedly; repeats hit the receivers' per-sector caches.
    fn design(&self, g: &mut Grouping, members: &[usize]) -> (f64, bool) {
        let _span = obs::span("mmwave.designer.design");
        let custom = self.s.params.custom_beams;
        let (rxs, beam) = (&mut g.beam_rxs, &mut g.group_beam);
        self.engine.design_into(rxs, members, custom, beam);
        (beam.common_rss_dbm(), beam.customized)
    }

    /// Counts the frame's injected faults into `obs`.
    fn count_faults(&self, faults: &FrameFaults) {
        if !(self.have_faults && obs::enabled() && !faults.is_quiet()) {
            return;
        }
        for (name, users) in [
            ("session.faults.outage_user_frames", &faults.outage),
            ("session.faults.blockage_user_frames", &faults.blockage),
            ("session.faults.loss_user_frames", &faults.loss),
            ("session.faults.decode_overruns", &faults.decode_overrun),
        ] {
            obs::add(name, users.count() as u64);
        }
        if faults.ap_stall {
            obs::inc("session.faults.ap_stall_frames");
        }
    }

    /// Observe: this frame's poses into the joint predictor, the bodies
    /// that block links, and the poses the frame is planned on — the joint
    /// prediction one horizon ahead, or else the observed poses.
    fn observe(&self, f: usize, joint: &mut JointPredictor, sc: &mut Scene, sums: &mut Totals) {
        let s = self.s;
        sc.poses.clear();
        sc.poses.extend(s.traces.iter().map(|t| t.pose(f)));
        joint.observe_frame(&sc.poses);
        sc.walker_pos.clear();
        sc.walker_pos
            .extend(s.walkers.iter().map(|w| w.pose(f).position));
        sc.all_blockers.clear();
        if s.params.body_blockage {
            let users = sc.poses.iter().map(|p| p.position);
            let bodies = users.chain(sc.walker_pos.iter().copied());
            sc.all_blockers.extend(bodies.map(Blocker::person));
        }
        let horizon = self.cfg.prediction_horizon;
        if s.params.use_prediction && joint.predict_frame_into(horizon, &mut sc.planning_poses) {
            if f + horizon < s.params.frames {
                for (u, p) in sc.planning_poses.iter().enumerate() {
                    let truth = s.traces[u].pose(f + horizon);
                    sums.pred_err_sum += (p.position - truth.position).norm();
                    sums.pred_err_count += 1;
                }
            }
        } else {
            sc.planning_poses.clear();
            sc.planning_poses.extend_from_slice(&sc.poses);
        }
    }

    /// Links: which users are body-blocked, the mitigation each blockage
    /// onset triggers, and every user's serving RSS and unicast PHY rate.
    fn links(&self, faults: &FrameFaults, scene: &Scene, links: &mut Links, sums: &mut Totals) {
        let n = self.n;
        let params = &self.s.params;
        let pos = &scene.poses;
        std::mem::swap(&mut links.blocked_prev, &mut links.blocked_now);
        // Nobody was blocked before the first frame.
        links.blocked_prev.resize(n, false);
        // Whose LoS another body (co-viewer or walker) blocks right now.
        let blocked_by = |u: usize, at: Vec3| self.forecaster.is_blocked(pos[u].position, at);
        links.blocked_now.clear();
        links.blocked_now.extend((0..n).map(|u| {
            params.body_blockage
                && ((0..n).any(|v| v != u && blocked_by(u, pos[v].position))
                    || scene.walker_pos.iter().any(|&w| blocked_by(u, w)))
        }));
        // Injected blockage: a phantom body parks on the user's LoS. It
        // enters both the mitigation logic (via `blocked_now`) and the
        // channel (`serving_rss`), so the proactive / reactive machinery
        // reacts exactly as for an organic body.
        if self.have_faults && !faults.blockage.is_empty() {
            for (u, b) in links.blocked_now.iter_mut().enumerate() {
                *b |= faults.blockage_for(u);
            }
        }
        let blocked_count = links.blocked_now.iter().filter(|&&b| b).count();
        sums.blocked_user_frames += blocked_count;
        obs::add("session.blocked_user_frames", blocked_count as u64);

        // Mitigation: charge a beam-switch outage on the clear->blocked
        // transition, sized by the mode (full reactive sweep vs the small
        // proactive switch). Proactive mode also prefetched ahead of the
        // onset: a buffer bonus at the transition. Reactive systems detect
        // a blockage by failing: the victim's burst goes out on the stale
        // beam at the old MCS and is lost, wasting that airtime.
        reset(&mut links.beam_outage, n, 0.0);
        reset(&mut links.extra_prefetch, n, 0);
        reset(&mut links.wasted_tx, n, false);
        links.events.clear();
        if !self.is_wifi5 {
            // No beams at 5 GHz: nothing to switch or waste.
            let (now, prev) = (&links.blocked_now, &links.blocked_prev);
            let onsets = (0..n).filter(|&u| now[u] && !prev[u]);
            links.events.extend(onsets.map(|u| BlockageEvent {
                victim: u,
                blocker: usize::MAX, // unattributed (organic or injected)
                onset_frames: 0,
            }));
        }
        self.mitigator.plan_into(&links.events, &mut links.actions);
        for a in &links.actions {
            links.beam_outage[a.user] = a.beam_outage_s;
            match params.mitigation {
                MitigationMode::Proactive => {
                    links.extra_prefetch[a.user] = a.prefetch_frames;
                    obs::add("session.prefetch_frames", a.prefetch_frames as u64);
                }
                MitigationMode::Reactive => {
                    links.wasted_tx[a.user] = true;
                    obs::inc("session.wasted_tx");
                }
            }
        }

        // The serving beam's RSS per user. Proactive users are already on
        // the best surviving path; reactive users spend the first blocked
        // frame on the stale LoS beam before re-searching. Links are
        // independent given the frame's poses and blockers: evaluated in
        // parallel, input order preserved.
        let proactive = params.mitigation == MitigationMode::Proactive;
        let (now, prev) = (&links.blocked_now, &links.blocked_prev);
        links.rss = par::par_map_indexed(pos, |u, _| {
            let best_path = now[u] && (proactive || prev[u]);
            self.serving_rss(u, faults, scene, best_path)
        });
        // Injected link outage: the PHY collapses below every MCS
        // sensitivity, so admission control defers the user's bursts and
        // the ladder (buffer playback, regrouping) takes over.
        if self.have_faults && !faults.outage.is_empty() {
            for (u, r) in links.rss.iter_mut().enumerate() {
                if faults.outage_for(u) {
                    *r = -100.0;
                }
            }
        }
        let phy = links.rss.iter().map(|&r| self.mcs_table.phy_rate_mbps(r));
        links.unicast_phy.clear();
        links.unicast_phy.extend(phy);
    }

    /// User `u`'s RSS on the dedicated beam, or on the best surviving path
    /// when `best_path` (mmWave; 5 GHz links have no beams).
    fn serving_rss(&self, u: usize, faults: &FrameFaults, scene: &Scene, best_path: bool) -> f64 {
        let s = self.s;
        let pos = scene.poses[u].position;
        let injected = self.have_faults && faults.blockage_for(u);
        // Every body but the user's own (users come first in the list).
        let all = scene.all_blockers.iter().enumerate();
        let others = all.filter(|&(i, _)| i != u);
        if self.is_wifi5 {
            // Log-distance 5 GHz link; bodies shadow mildly.
            let d = s.channel.array.position.distance(pos);
            let shadows = if s.params.body_blockage {
                others
                    .filter(|(_, b)| self.forecaster.is_blocked(pos, b.center))
                    .count()
            } else {
                0
            } + injected as usize;
            return s.wifi5.rss_dbm(d, shadows);
        }
        let mut bl: Vec<Blocker> = others.map(|(_, b)| *b).collect();
        if injected {
            // The phantom body stands mid-path: guaranteed LoS intersection.
            bl.push(Blocker::person(s.channel.array.position.lerp(pos, 0.5)));
        }
        if best_path {
            s.channel.rss_best_beam(pos, &bl)
        } else {
            s.channel.rss_dedicated_beam(pos, &bl)
        }
    }

    /// Cells + visibility: the frame's non-empty cells with their
    /// analysis-density point counts, and one visibility map per user.
    fn visibility(&self, f: usize, planning_poses: &[Pose], demand: &mut Demand) {
        let s = self.s;
        // Counted a GOP at a time: each slot samples its frame straight
        // into a per-cell census (no point is stored), so the batch sweeps
        // across the `par` workers while staying byte-identical to a
        // per-frame partition at any thread count.
        if f.is_multiple_of(self.gop_len) {
            let len = self.gop_len.min(s.params.frames - f);
            let points = s.params.analysis_points;
            demand
                .gop
                .census_gop(&s.video, f as u64, len, points, &self.grid);
        }
        demand.gop.cells_into(f % self.gop_len, &mut demand.cells);
        // Per-user maps are independent; the fan-out is the frame's biggest
        // cost at scale (a frustum + occlusion pass per user).
        let cells = &demand.cells;
        demand.maps = par::par_map_indexed(planning_poses, |u, pose| {
            let options = match s.params.player {
                PlayerKind::Vanilla => VisibilityOptions::vanilla(),
                _ => VisibilityOptions {
                    intrinsics: s.traces[u].device.intrinsics(),
                    ..VisibilityOptions::vivo()
                },
            };
            VisibilityComputer::new(options).compute(pose, &self.grid, cells)
        });
    }

    /// Quality: each user's visible share of the frame, then one delivery
    /// decision per user from [`RateAdapter::plan_delivery`] — the ABR
    /// target (or the pinned quality), the ladder's rung-1 quality clamp
    /// (the identity without faults: distress stays zero), and for layered
    /// delivery the enhancement count and proactive-FEC rung.
    fn quality(&self, links: &Links, users: &Users, demand: &mut Demand) {
        let (n, params) = (self.n, &self.s.params);
        let sizes = demand.cells.iter().map(|c| c.point_count as f64);
        demand.unit_sizes.clear();
        demand.unit_sizes.extend(sizes);
        demand.unit_index = size_index(&demand.cells, &demand.unit_sizes);
        let total_points: f64 = demand.unit_sizes.iter().sum();
        let (maps, index) = (&demand.maps, &demand.unit_index);
        let fraction = |u: usize| match params.player {
            PlayerKind::Vanilla => 1.0,
            _ if total_points <= 0.0 => 1.0,
            _ => maps[u].required_bytes_indexed(index) / total_points,
        };
        demand.needed_fraction.clear();
        demand.needed_fraction.extend((0..n).map(fraction));

        demand.qualities.clear();
        demand.fec_rungs.clear();
        for u in 0..n {
            let phy = links.unicast_phy[u];
            let predicted_rss = users.adapter.predictors[u]
                .link
                .predicted_rss_dbm(self.cfg.prediction_horizon);
            let inputs = CrossLayerInputs {
                measured_throughput_mbps: 0.0,
                buffer_frames: users.buffers[u],
                blockage_forecast: match params.mitigation {
                    MitigationMode::Proactive => links.blocked_now[u],
                    // Reactive ABRs only see the collapse after it has
                    // already cost them a frame.
                    MitigationMode::Reactive => links.blocked_prev[u],
                },
                predicted_phy_rate_mbps: predicted_rss
                    .map_or(phy, |r| self.mcs_table.phy_rate_mbps(r)),
                current_phy_rate_mbps: phy,
            };
            let group = GroupState {
                user: u,
                inputs: &inputs,
                share: 1.0 / n as f64,
                needed_fraction: demand.needed_fraction[u],
                layered: self.layered,
                fixed: params.fixed_quality,
            };
            let distress = Distress::new(users.distress[u]);
            let decision = users.adapter.plan_delivery(&group, &distress);
            let delivered = decision.quality();
            if self.have_faults && delivered != decision.target_quality {
                obs::inc("session.degrade.quality_clamps");
            }
            demand.qualities.push(delivered);
            demand.fec_rungs.push(decision.fec);
        }
    }

    /// Plan: the frame's transmission plan and every user's delivery
    /// bookkeeping — reactive probes first, then one plan per player.
    fn plan(&self, frame: &FrameView, users: &Users, g: &mut Grouping, d: &mut Delivery) {
        d.begin(&frame.demand.qualities);
        // Lost reactive bursts: sent at the pre-blockage rate (stale beam,
        // clear-channel MCS) but never received. They are queued first —
        // the AP doesn't yet know the link is dead.
        for u in (0..self.n).filter(|&u| frame.links.wasted_tx[u]) {
            let pos = frame.scene.poses[u].position;
            let clear_rss = self.s.channel.rss_dedicated_beam(pos, &[]);
            let stale_phy = self.mcs_table.phy_rate_mbps(clear_rss);
            // The AP aborts after ~a quarter frame of unacknowledged MPDUs.
            let probe_bytes = stale_phy * 1e6 / 8.0 * (self.interval * 0.25);
            if self.admit(probe_bytes, stale_phy) {
                d.plan
                    .items
                    .push(TxItem::unicast(u, probe_bytes, stale_phy));
            }
        }
        match self.s.params.player {
            PlayerKind::Vanilla | PlayerKind::Vivo => self.plan_unicast(frame, d),
            PlayerKind::Volcast if self.layered => self.plan_layered(frame, users, g, d),
            PlayerKind::Volcast => self.plan_single(frame, g, d),
        }
    }

    /// The unicast baselines: each user's frame on a burst of its own.
    /// Vanilla fetches the full frame, ViVo only the visible cells.
    fn plan_unicast(&self, frame: &FrameView, d: &mut Delivery) {
        let (demand, links) = (frame.demand, frame.links);
        for u in 0..self.n {
            let q = demand.qualities[u];
            let needed = match self.s.params.player {
                PlayerKind::Vanilla => self.s.video.quality(q).full_frame_bytes(),
                _ => demand.maps[u].required_bytes_indexed(&demand.unit_index) * self.scale(q),
            };
            d.needed_bytes[u] = needed;
            if !self.admit(needed, links.unicast_phy[u]) {
                d.unserved[u] = needed > 0.0; // outage/too slow: defer
                continue;
            }
            let mut item = TxItem::unicast(u, needed, links.unicast_phy[u]);
            item.beam_switch_s = links.beam_outage[u];
            d.plan.items.push(item);
        }
    }

    /// Volcast grouping: prepares every receiver's beam sweep on the
    /// planning poses, groups users by viewport similarity under the `T_m`
    /// model with cell sizes at `scale`, and applies rung 3 of the ladder.
    /// Also fills each user's unit byte need and pending beam outage.
    fn plan_groups(&self, frame: &FrameView, g: &mut Grouping, scale: f64) -> GroupPlan {
        let (scene, links, demand) = (frame.scene, frame.links, frame.demand);
        // All bodies block — including other group members (joining a
        // group does not move anyone's body). Each receiver's own cylinder
        // is excluded by the channel's endpoint guard.
        g.beam_rxs.resize_with(self.n, SweepRx::new);
        for (rx, pose) in g.beam_rxs.iter_mut().zip(&scene.planning_poses) {
            rx.prepare(&self.engine, pose.position, &scene.all_blockers);
        }
        let units = demand
            .maps
            .iter()
            .map(|m| m.required_bytes_indexed(&demand.unit_index));
        g.member_unit.clear();
        g.member_unit.extend(units);
        g.outage_pending.clear();
        g.outage_pending.extend_from_slice(&links.beam_outage);
        g.cell_sizes.clear();
        g.cell_sizes
            .extend(demand.unit_sizes.iter().map(|s| s * scale));
        // Lent out while the planner's rate probes hold the grouping.
        let cell_sizes = std::mem::take(&mut g.cell_sizes);
        let g_cell = RefCell::new(&mut *g);
        let group_rate = |members: &[usize]| -> f64 {
            if self.is_wifi5 {
                // Group-addressed frames at the legacy basic rate — why ac
                // multicast doesn't pay off.
                return self.s.wifi5.multicast_basic_rate_mbps;
            }
            let common_rss = self.design(&mut g_cell.borrow_mut(), members).0;
            self.s.mcs.phy_rate_mbps(common_rss)
        };
        let mut gp = self.planner.plan(&GroupingInputs {
            maps: &demand.maps,
            partition: &demand.cells,
            cell_sizes: &cell_sizes,
            unicast_rate_mbps: &links.unicast_phy,
            multicast_rate_mbps: &group_rate,
        });
        g.cell_sizes = cell_sizes;
        regroup(frame.faults, &mut gp.groups, &mut g.severed);
        gp
    }

    /// Volcast single-stream: grouping plans with cell sizes at the lowest
    /// active quality; each formed group is then re-priced at its members'
    /// minimum quality (shared cells must be decodable by all members), and
    /// residuals ride unicast at each member's own quality.
    fn plan_single(&self, frame: &FrameView, g: &mut Grouping, d: &mut Delivery) {
        let phy = &frame.links.unicast_phy;
        let qualities = &frame.demand.qualities;
        let planning_quality = qualities.iter().copied().min().unwrap_or(QualityLevel::Low);
        let gp = self.plan_groups(frame, g, self.scale(planning_quality));
        for grp in &gp.groups {
            let members = &grp.members;
            let own = |u: usize| g.member_unit[u] * self.scale(qualities[u]);
            // Shared cells at the group's minimum quality; singletons keep
            // their own.
            let group_q = members.iter().map(|&u| qualities[u]).min();
            let group_q = group_q.unwrap_or(planning_quality);
            let overlap_unit = grp.multicast_bytes / self.scale(planning_quality).max(1e-12);
            let shared_bytes = overlap_unit * self.scale(group_q);

            // The planner priced this group at the global minimum quality;
            // re-check the merge at the group's actual quality and against
            // admission — if the repriced multicast no longer beats plain
            // unicast (or cannot fit a slot), dissolve it.
            let rate = grp.multicast_rate_mbps;
            let beneficial = members.len() >= 2 && grp.multicast_bytes > 0.0 && rate > 0.0 && {
                let residual_t = |u: usize| ratio((own(u) - shared_bytes).max(0.0), phy[u], 0.0);
                let alone_t = |u: usize| ratio(own(u), phy[u], f64::INFINITY);
                let merged_t =
                    shared_bytes / rate + members.iter().map(|&u| residual_t(u)).sum::<f64>();
                merged_t <= members.iter().map(|&u| alone_t(u)).sum::<f64>()
            };
            let group_active = beneficial && self.admit(shared_bytes, rate);
            if group_active {
                if self.s.params.custom_beams && self.design(g, members).1 {
                    d.customized += 1;
                }
                let item = TxItem::multicast(members.clone(), shared_bytes, rate);
                d.plan.items.push(item);
            }

            for &u in members {
                if group_active {
                    d.effective_quality[u] = d.effective_quality[u].min(group_q);
                }
                let own_bytes = g.member_unit[u] * self.scale(qualities[u]);
                let shared = if group_active { shared_bytes } else { 0.0 };
                let residual = (own_bytes - shared).max(0.0);
                d.needed_bytes[u] = own_bytes;
                if residual <= 0.0 {
                    continue; // fully covered by the multicast
                }
                if !self.admit(residual, phy[u]) {
                    // The frame cannot complete this slot; don't burn
                    // airtime on a partial delivery the user cannot render.
                    d.unserved[u] = true;
                    continue;
                }
                let mut item = TxItem::unicast(u, residual, phy[u]);
                item.beam_switch_s = std::mem::take(&mut g.outage_pending[u]); // charge once
                d.plan.items.push(item);
            }
        }
        d.groups = gp.groups;
    }

    /// Volcast layered delivery. The base layer rides the similarity-driven
    /// multicast groups of §4.2, priced at the ladder's floor quality: each
    /// group multicasts its members' shared base cells once over the best
    /// common beam; the unshared rest of each member's base and any
    /// enhancement layers ride unicast, admitted per RSS/airtime budget.
    /// Distressed users' bursts carry proactive XOR parity, so a single
    /// lost chunk repairs locally instead of costing a retransmit.
    fn plan_layered(&self, frame: &FrameView, users: &Users, g: &mut Grouping, d: &mut Delivery) {
        let phy = &frame.links.unicast_phy;
        let (qualities, fec) = (&frame.demand.qualities, &frame.demand.fec_rungs);
        let base_scale = self.scale(QualityLevel::Low);
        let gp = self.plan_groups(frame, g, base_scale);
        for grp in &gp.groups {
            let members = &grp.members;
            // The shared base rides at the members' highest FEC rung: one
            // lost reception anywhere in the group repairs locally.
            let rungs = members.iter().map(|&u| fec[u]);
            let base_fec = rungs.fold(FecRung::Off, |a, b| {
                if b.overhead() > a.overhead() {
                    b
                } else {
                    a
                }
            });
            // Priced at base scale: the shared bytes ARE the base payload.
            let (shared_base, rate) = (grp.multicast_bytes, grp.multicast_rate_mbps);
            let base_parity = shared_base * base_fec.overhead();
            let group_active = members.len() >= 2
                && shared_base > 0.0
                && rate > 0.0
                && self.admit(shared_base + base_parity, rate);
            let mut base_idx = None;
            if group_active {
                if self.s.params.custom_beams && !self.is_wifi5 && self.design(g, members).1 {
                    d.customized += 1;
                }
                let item = TxItem::multicast(members.clone(), shared_base, rate);
                d.plan.items.push(item.with_parity(base_parity));
                base_idx = Some(d.plan.items.len() - 1);
            }
            for &u in members {
                let own_full = g.member_unit[u] * self.scale(qualities[u]);
                d.needed_bytes[u] = own_full;
                if phy[u] <= 0.0 {
                    d.unserved[u] = own_full > 0.0;
                    continue;
                }
                let base_own = g.member_unit[u] * base_scale;
                let base_shared = if group_active {
                    shared_base.min(base_own)
                } else {
                    0.0
                };
                if group_active {
                    d.base_item_idx[u] = base_idx;
                    d.fec_protected[u] |= base_parity > 0.0;
                }
                // Unshared remainder of the base, unicast.
                let base_rest = (base_own - base_shared).max(0.0);
                if base_rest > 0.0 {
                    let parity = base_rest * fec[u].overhead();
                    if self.admit(base_rest + parity, phy[u]) {
                        let mut item = TxItem::unicast(u, base_rest, phy[u]).with_parity(parity);
                        item.beam_switch_s = std::mem::take(&mut g.outage_pending[u]);
                        d.plan.items.push(item);
                        d.base_item_idx[u].get_or_insert(d.plan.items.len() - 1);
                        d.fec_protected[u] |= parity > 0.0;
                    } else if group_active {
                        // The shared slice still renders a coarse frame —
                        // degrade, don't drop.
                        d.effective_quality[u] = QualityLevel::Low;
                        d.needed_bytes[u] = base_shared;
                        obs::inc("session.layered.enhancements_deferred");
                        continue;
                    } else {
                        d.unserved[u] = true;
                        continue;
                    }
                }
                let enh_bytes = (own_full - base_own).max(0.0);
                if enh_bytes <= 0.0 {
                    continue; // base-only target: done
                }
                let parity = enh_bytes * fec[u].overhead();
                // Enhancements are optional upgrades: they ride only when the
                // client holds enough buffer that a slipped enhancement can
                // never stall playout. Distress deepens the reserve, so a
                // user leaving a fault window streams cheap base-only frames
                // (whose spare airtime refills the buffer fastest) until a
                // cushion for the next window is in place; cold-started
                // clients join at base quality and upgrade once buffered.
                let reserve = (1.0 + f64::from(users.distress[u]))
                    .max(self.cfg.buffer_capacity_frames as f64);
                if !self.admit(enh_bytes + parity, phy[u]) || users.buffers[u] < reserve {
                    // The base still renders: degrade instead of unserved.
                    d.effective_quality[u] = QualityLevel::Low;
                    d.needed_bytes[u] = base_own;
                    obs::inc("session.layered.enhancements_deferred");
                    continue;
                }
                let mut item = TxItem::unicast(u, enh_bytes, phy[u]).with_parity(parity);
                item.beam_switch_s = std::mem::take(&mut g.outage_pending[u]);
                d.plan.items.push(item);
                d.fec_protected[u] |= parity > 0.0;
                obs::inc("session.layered.enhancement_items");
            }
        }
        d.groups = gp.groups;
    }

    /// Degrade: the ladder's rung 2 and the injected AP stall. Rung 2 is a
    /// bounded retransmit: a user whose delivery will be lost (corrupted
    /// past the MAC's retry budget) gets exactly one re-send, paid for with
    /// a backoff surcharge and admitted only while the whole frame still
    /// fits the 3x-interval airtime window. Beyond it, the buffer absorbs
    /// the loss.
    fn degrade(&self, frame: &FrameView, d: &mut Delivery) {
        let (n, faults) = (self.n, frame.faults);
        reset(&mut d.retransmitted, n, false);
        if self.have_faults && !faults.loss.is_empty() && !faults.ap_stall {
            let backoff_s = 0.1 * self.interval;
            for u in 0..n {
                let needed = d.needed_bytes[u];
                if !faults.loss_for(u) || faults.outage_for(u) || d.unserved[u] || needed <= 0.0 {
                    continue;
                }
                if d.fec_protected[u] {
                    // The parity riding with the user's bursts rebuilds the
                    // lost chunk locally: no retransmit airtime, no backoff.
                    obs::inc("session.degrade.fec_recoveries");
                    continue;
                }
                let air = |i: &TxItem| self.mac.airtime_s(i.wire_bytes(), i.phy_mbps, n);
                let frame_air: f64 = d.plan.items.iter().map(|i| i.beam_switch_s + air(i)).sum();
                let phy = frame.links.unicast_phy[u];
                let retx_air = self.mac.airtime_s(needed, phy, n);
                if frame_air.is_finite()
                    && retx_air.is_finite()
                    && frame_air + backoff_s + retx_air <= 3.0 * self.interval
                {
                    let mut item = TxItem::unicast(u, needed, phy);
                    item.beam_switch_s = backoff_s; // MAC backoff before the re-send
                    d.plan.items.push(item);
                    d.retransmitted[u] = true;
                    obs::inc("session.degrade.retransmits");
                } else {
                    obs::inc("session.degrade.retransmits_deferred");
                }
            }
        }
        // Injected AP stall: the AP transmits nothing this frame. Clear the
        // plan (no airtime is burned) and mark every user with pending
        // payload unserved, so they play from buffer — stall recovery
        // without a panic, never a wedged queue.
        if self.have_faults && faults.ap_stall {
            d.plan.items.clear();
            // Nothing flew: no multicast, no base layer to fall back on, no
            // parity.
            d.customized = 0;
            d.base_item_idx.fill(None);
            d.fec_protected.fill(false);
            for u in 0..n {
                d.unserved[u] = d.needed_bytes[u] > 0.0;
            }
        }
    }

    /// Account: executes the plan on the MAC model and plays out every
    /// user's frame — buffers, stalls, QoE, the ladder's distress counters
    /// and the ABR's throughput observations.
    fn account(&self, frame: &FrameView, d: &Delivery, users: &mut Users, sums: &mut Totals) {
        let (n, faults) = (self.n, frame.faults);
        let timing = d.plan.execute(&self.mac, n, n);
        let planned_bytes = d.plan.total_bytes();
        if obs::enabled() {
            let unserved = d.unserved.iter().filter(|&&b| b).count();
            obs::add("session.scheduled_items", d.plan.items.len() as u64);
            obs::add("session.planned_bytes", planned_bytes.max(0.0) as u64);
            obs::add("session.unserved_user_frames", unserved as u64);
            if timing.total_s.is_finite() {
                obs::record("session.frame_airtime_us", (timing.total_s * 1e6) as u64);
            }
        }
        sums.total_bytes += planned_bytes;
        sums.frame_time_sum += if timing.total_s.is_finite() {
            timing.total_s
        } else {
            self.interval * 4.0 // charge a saturated slot for outage frames
        };
        // Multicast statistics count the plan that flew; the mean group
        // size stays a planning statistic.
        for item in &d.plan.items {
            if let TxKind::Multicast { members } = &item.kind {
                let bytes = item.bytes.max(0.0) as u64;
                sums.multicast_groups += 1;
                sums.multicast_bytes += item.bytes;
                obs::add("session.multicast_bytes", bytes);
                if self.layered {
                    obs::add("session.layered.base_multicast_bytes", bytes);
                }
                obs::record("session.group_size", members.len() as u64);
            }
        }
        sums.customized_groups += d.customized;
        for g in &d.groups {
            sums.group_size_sum += g.members.len() as f64;
            sums.group_count += 1;
        }
        if !matches!(self.s.params.player, PlayerKind::Volcast) {
            sums.group_size_sum += n as f64; // n singleton groups
            sums.group_count += n;
        }

        for u in 0..n {
            // Proactive mitigation prefetched ahead of the onset using
            // earlier frames' spare airtime (the paper: "prefetch the
            // content and schedule the future cells in the current time
            // slot"). The reserve may exceed the motion-to-photon buffer
            // cap: during a forecast outage the client accepts staler
            // predicted-viewport cells over a stall. Half the pushed frames
            // are credited (the rest render out-of-date viewports).
            let reserve = frame.links.extra_prefetch[u] as f64 * 0.5;
            let buf = (users.buffers[u] + reserve).min(self.buf_cap + reserve);
            // A loss without a successful retransmit burns the airtime but
            // delivers nothing decodable — unless the burst carried parity:
            // a single erasure then rebuilds locally.
            let lost = self.have_faults
                && faults.loss_for(u)
                && !d.retransmitted[u]
                && !d.fec_protected[u];
            let (on_time, stall_s, next_buf, rendered_q) =
                self.render(frame, d, &timing, u, lost, buf);
            users.buffers[u] = next_buf;
            users.qoe.users[u].record_frame(on_time, stall_s, rendered_q);
            if obs::enabled() {
                if !on_time {
                    obs::inc("session.stalls");
                    obs::record("session.stall_us", (stall_s * 1e6) as u64);
                }
                obs::gauge("session.buffer_frames_peak", next_buf);
            }

            // Ladder bookkeeping: count fault hits and how many the ladder
            // absorbed, and roll the distress that clamps next frame's
            // quality. Hard faults raise distress even when absorbed (the
            // link has not proven itself); soft ones only when they cost a
            // stall.
            if self.have_faults {
                let hit = faults.ap_stall
                    || faults.outage_for(u)
                    || faults.blockage_for(u)
                    || faults.loss_for(u)
                    || faults.decode_overrun_for(u);
                sums.fault_user_frames += hit as usize;
                sums.recovered_user_frames += (hit && on_time) as usize;
                let hard = faults.ap_stall || faults.outage_for(u) || lost;
                let distress = &mut users.distress[u];
                *distress = if hard || (hit && !on_time) {
                    (*distress + 2).min(6)
                } else {
                    distress.saturating_sub(1)
                };
                if obs::enabled() {
                    obs::gauge("session.degrade.distress_peak", *distress as f64);
                }
            }

            // Feed the ABR's predictor this user's *delivery rate* (bytes
            // over the airtime spent on their items), which an ABR can
            // measure. Layered delivery measures the unicast path only: the
            // multicast base is server-scheduled and rides the group's
            // slowest common beam, so blending it in would anchor every
            // member's estimate to the group floor and starve enhancements.
            let (user_bytes, user_airtime): (f64, f64) = d
                .plan
                .items
                .iter()
                .filter(|i| {
                    i.receivers().contains(&u) && (!self.layered || i.receivers().len() == 1)
                })
                .map(|i| (i.bytes, self.mac.airtime_s(i.wire_bytes(), i.phy_mbps, n)))
                .fold((0.0, 0.0), |(b, t), (ib, it)| (b + ib, t + it));
            let tput = if user_airtime > 0.0 && user_airtime.is_finite() {
                user_bytes * 8.0 / (user_airtime * 1e6)
            } else {
                0.0
            };
            let rss = frame.links.rss[u];
            if self.layered && user_airtime <= 0.0 && d.base_item_idx[u].is_some() {
                // Base-only frame: the unicast path was idle, not slow.
                // Track the RSS trend but keep the throughput EWMA.
                users.adapter.predictors[u].link.observe(rss);
            } else {
                users.adapter.observe(u, tput, rss);
            }
        }
    }

    /// Plays out user `u`'s frame from `buf` buffered frames: on-time
    /// flag, stall seconds, next buffer, and the quality rendered. A
    /// layered frame whose full layer stack misses its slot falls back to
    /// the base layer — a coarse frame on time beats a stall. (A lost or
    /// wasted burst took the base down with it; those cannot fall back.)
    fn render(
        &self,
        frame: &FrameView,
        d: &Delivery,
        timing: &PlanTiming,
        u: usize,
        lost: bool,
        buf: f64,
    ) -> (bool, f64, f64, QualityLevel) {
        let q = d.effective_quality[u];
        let wasted = frame.links.wasted_tx[u];
        let delivery = if d.needed_bytes[u] <= 0.0 {
            0.0 // nothing visible: trivially delivered
        } else if d.unserved[u] || wasted || lost {
            f64::INFINITY
        } else {
            timing.user_completion_s[u].unwrap_or(f64::INFINITY)
        };
        let overrun = self.have_faults && frame.faults.decode_overrun_for(u);
        let (on_time, stall_s, next_buf) =
            self.playout(delivery.max(self.decode_time(q, overrun)), buf);
        if self.layered && !on_time && d.needed_bytes[u] > 0.0 && !lost && !wasted {
            if let Some(i) = d.base_item_idx[u] {
                let base_decode = self.decode_time(QualityLevel::Low, overrun);
                let (b_on, b_stall, b_buf) =
                    self.playout(timing.item_completion_s[i].max(base_decode), buf);
                if b_on || b_stall < stall_s {
                    if b_on {
                        obs::inc("session.layered.partial_renders");
                    }
                    return (b_on, b_stall, b_buf, QualityLevel::Low);
                }
            }
        }
        (on_time, stall_s, next_buf, q)
    }

    /// Pipelined network-only replay (see [`SessionOutcome`]) under the
    /// frame loop's fault schedule: the fraction of addressed (user, frame)
    /// payloads that complete within their slot.
    fn replay(&self, faults: &FaultPlan, plans: &[TransmissionPlan]) -> Result<f64, VolcastError> {
        let deadline = SimTime::from_secs(self.interval);
        let sim = Simulator::new(&self.mac, self.n, self.n, deadline, BacklogPolicy::Drop)
            .map_err(VolcastError::Net)?
            .with_faults(faults);
        let (mut on_time, mut addressed) = (0usize, 0usize);
        for (plan, o) in plans.iter().zip(sim.run(plans)) {
            // Only count users the frame's plan actually addressed.
            for u in (0..self.n).filter(|u| plan.items.iter().any(|i| i.receivers().contains(u))) {
                addressed += 1;
                on_time += o.on_time(u, deadline) as usize;
            }
        }
        Ok(ratio(on_time as f64, addressed as f64, 1.0))
    }
}

/// `num / den`, or `fallback` when `den` is not positive (nothing counted,
/// or no link to divide by).
fn ratio(num: f64, den: f64, fallback: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        fallback
    }
}

/// Clears `v` to `n` copies of `value`, keeping its allocation.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Graceful degradation, rung 3: multicast re-planning. A member in an
/// injected outage cannot receive the group's burst — drop them from their
/// group so the multicast item doesn't (falsely) mark them complete, and
/// carry them on as singletons whose unicast leg admission control defers
/// while the outage lasts. The survivors' shared-byte figure is kept (the
/// overlap of a subset is a superset — the planner's price is a safe
/// underestimate); each plan still re-checks a group before multicasting.
fn regroup(faults: &FrameFaults, groups: &mut Vec<Group>, severed: &mut Vec<usize>) {
    if faults.outage.is_empty() {
        return;
    }
    severed.clear();
    for g in groups.iter_mut() {
        if g.members.iter().any(|&u| faults.outage_for(u)) {
            severed.extend(g.members.iter().filter(|&&u| faults.outage_for(u)));
            g.members.retain(|&u| !faults.outage_for(u));
            obs::inc("session.degrade.regrouped_groups");
        }
    }
    groups.retain(|g| !g.members.is_empty());
    severed.sort_unstable();
    groups.extend(severed.iter().map(|&u| Group {
        members: vec![u],
        multicast_bytes: 0.0,
        multicast_rate_mbps: 0.0,
        iou: 0.0,
    }));
    groups.sort_by(|a, b| a.members.cmp(&b.members));
}

/// Helper: a session over `n` synthetic headset users.
pub fn quick_session(
    player: PlayerKind,
    n_users: usize,
    frames: usize,
    seed: u64,
) -> StreamingSession {
    quick_session_with_device(player, n_users, frames, seed, DeviceClass::Headset)
}

/// Helper: a session over `n` synthetic users of a given device class
/// (phone users cluster in a frontal arc — the paper's classroom case —
/// and show far higher viewport overlap than roaming headset users).
pub fn quick_session_with_device(
    player: PlayerKind,
    n_users: usize,
    frames: usize,
    seed: u64,
    device: DeviceClass,
) -> StreamingSession {
    let gen = TraceGenerator::new(seed, device);
    let traces: Vec<Trace> = (0..n_users).map(|u| gen.generate(u, frames)).collect();
    StreamingSession::new(
        SessionParams {
            player,
            frames,
            ..Default::default()
        },
        traces,
    )
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_enum!(RadioKind { MmWave, Wifi5 });
volcast_util::impl_json_enum!(DeliveryMode { Single, Layered });
volcast_util::impl_json_struct!(SessionParams {
    config,
    player,
    abr,
    mitigation,
    fixed_quality,
    frames,
    analysis_points,
    custom_beams,
    use_prediction,
    body_blockage,
    radio,
    faults,
    delivery
});
volcast_util::impl_json_struct!(SessionOutcome {
    qoe,
    mean_frame_time_s,
    multicast_byte_fraction,
    mean_group_size,
    customized_beam_fraction,
    blocked_user_frames,
    mean_prediction_error_m,
    pipelined_on_time_ratio,
    fault_user_frames,
    recovered_user_frames
});

#[cfg(test)]
mod tests {
    use super::*;

    fn small(player: PlayerKind, users: usize) -> SessionOutcome {
        let mut s = quick_session(player, users, 30, 7);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        s.run().unwrap()
    }

    #[test]
    fn session_runs_and_reports() {
        let out = small(PlayerKind::Volcast, 2);
        assert_eq!(out.qoe.users.len(), 2);
        assert_eq!(out.qoe.users[0].frames(), 30);
        assert!(out.mean_frame_time_s > 0.0);
        assert!(out.qoe.duration_s > 0.9);
    }

    #[test]
    fn vivo_fetches_less_than_vanilla() {
        let vanilla = small(PlayerKind::Vanilla, 2);
        let vivo = small(PlayerKind::Vivo, 2);
        assert!(
            vivo.mean_frame_time_s < vanilla.mean_frame_time_s,
            "vivo {} >= vanilla {}",
            vivo.mean_frame_time_s,
            vanilla.mean_frame_time_s
        );
    }

    #[test]
    fn volcast_uses_multicast_for_phone_users() {
        // Phone users cluster: plenty of viewport overlap to multicast.
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 30, 7, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let out = s.run().unwrap();
        assert!(
            out.multicast_byte_fraction > 0.2,
            "multicast fraction {}",
            out.multicast_byte_fraction
        );
        assert!(out.mean_group_size > 1.0);
    }

    #[test]
    fn unicast_players_never_multicast() {
        for p in [PlayerKind::Vanilla, PlayerKind::Vivo] {
            let out = small(p, 2);
            assert_eq!(out.multicast_byte_fraction, 0.0);
            assert!((out.mean_group_size - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small(PlayerKind::Volcast, 2);
        let b = small(PlayerKind::Volcast, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn prediction_error_is_tracked() {
        let out = small(PlayerKind::Volcast, 2);
        assert!(out.mean_prediction_error_m >= 0.0);
        assert!(
            out.mean_prediction_error_m < 1.0,
            "{}",
            out.mean_prediction_error_m
        );
    }

    #[test]
    fn wifi5_radio_runs_and_behaves() {
        // ViVo ac 2-user Low sits exactly at the paper's 30 FPS row...
        let mut s = quick_session(PlayerKind::Vivo, 2, 30, 7);
        s.params.radio = RadioKind::Wifi5;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let vivo = s.run().unwrap();
        assert_eq!(vivo.qoe.users.len(), 2);
        assert!(vivo.qoe.mean_fps() > 25.0, "{}", vivo.qoe.mean_fps());
        // ...while vanilla at Medium cannot sustain it (paper: 17.4 FPS).
        let mut s = quick_session(PlayerKind::Vanilla, 2, 30, 7);
        s.params.radio = RadioKind::Wifi5;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        let vanilla = s.run().unwrap();
        assert!(
            vanilla.qoe.mean_fps() < 27.0 && vanilla.qoe.mean_fps() > 8.0,
            "vanilla ac/2/Medium fps {}",
            vanilla.qoe.mean_fps()
        );
    }

    #[test]
    fn wifi5_multicast_is_unattractive() {
        // volcast-over-ac: legacy-rate multicast should (almost) never win,
        // so the grouping planner keeps everything unicast.
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 30, 42, DeviceClass::Phone);
        s.params.radio = RadioKind::Wifi5;
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let out = s.run().unwrap();
        assert!(
            out.multicast_byte_fraction < 0.05,
            "legacy-rate multicast used: {}",
            out.multicast_byte_fraction
        );
    }

    #[test]
    fn disabling_blockage_removes_blocked_frames() {
        let mut s = quick_session(PlayerKind::Volcast, 3, 30, 7);
        s.params.analysis_points = 4_000;
        s.params.body_blockage = false;
        s.params.fixed_quality = Some(QualityLevel::Low);
        let out = s.run().unwrap();
        assert_eq!(out.blocked_user_frames, 0);
    }

    #[test]
    fn pipelined_ratio_is_sane() {
        let out = small(PlayerKind::Volcast, 2);
        assert!((0.0..=1.0).contains(&out.pipelined_on_time_ratio));
        // Two Low-quality users: the schedule fits comfortably.
        assert!(
            out.pipelined_on_time_ratio > 0.8,
            "{}",
            out.pipelined_on_time_ratio
        );
    }

    #[test]
    fn adaptive_quality_reacts_to_capacity() {
        // 2 users: plenty of capacity -> quality should not be stuck at the
        // bottom of the ladder.
        let mut s = quick_session(PlayerKind::Vivo, 2, 40, 11);
        s.params.analysis_points = 4_000;
        let out = s.run().unwrap();
        assert!(
            out.qoe.mean_quality_score() > 0.5,
            "quality stuck low: {}",
            out.qoe.mean_quality_score()
        );
    }

    fn layered_session(faults: Option<FaultConfig>) -> StreamingSession {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 30, 7, DeviceClass::Phone);
        s.params.analysis_points = 4_000;
        s.params.fixed_quality = Some(QualityLevel::Medium);
        s.params.delivery = DeliveryMode::Layered;
        s.params.faults = faults;
        s
    }

    #[test]
    fn layered_delivery_runs_and_multicasts_the_base() {
        let out = layered_session(None).run().unwrap();
        assert_eq!(out.qoe.users.len(), 3);
        assert_eq!(out.qoe.users[0].frames(), 30);
        // The base layer rides multicast for clustered phone users.
        assert!(
            out.multicast_byte_fraction > 0.1,
            "base multicast fraction {}",
            out.multicast_byte_fraction
        );
        // Enhancements lift users above the base on a clean channel.
        assert!(
            out.qoe.mean_quality_score() > 0.3,
            "stuck at base: {}",
            out.qoe.mean_quality_score()
        );
    }

    #[test]
    fn layered_delivery_is_deterministic() {
        let a = layered_session(None).run().unwrap();
        let b = layered_session(None).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn layered_fec_absorbs_losses_better_than_retransmit_alone() {
        let faults = FaultConfig {
            seed: 5,
            loss_rate: 0.25,
            ..Default::default()
        };
        let layered = layered_session(Some(faults)).run().unwrap();
        let mut legacy = layered_session(Some(faults));
        legacy.params.delivery = DeliveryMode::Single;
        let legacy = legacy.run().unwrap();
        // Same fault schedule: the parity rung must not recover fewer
        // fault hits than the retransmit-only ladder, and must not stall
        // more.
        assert!(
            layered.recovered_user_frames >= legacy.recovered_user_frames,
            "layered recovered {} < legacy {}",
            layered.recovered_user_frames,
            legacy.recovered_user_frames
        );
        assert!(
            layered.qoe.mean_stall_ratio() <= legacy.qoe.mean_stall_ratio() + 1e-12,
            "layered stalls {} > legacy {}",
            layered.qoe.mean_stall_ratio(),
            legacy.qoe.mean_stall_ratio()
        );
    }

    #[test]
    fn layered_knob_is_inert_for_baseline_players() {
        for p in [PlayerKind::Vanilla, PlayerKind::Vivo] {
            let single = small(p, 2);
            let mut s = quick_session(p, 2, 30, 7);
            s.params.analysis_points = 4_000;
            s.params.fixed_quality = Some(QualityLevel::Low);
            s.params.delivery = DeliveryMode::Layered;
            assert_eq!(s.run().unwrap(), single);
        }
    }
}
