//! volcast-core: the paper's contribution — a multi-user volumetric video
//! streaming system over mmWave WLANs with cross-layer design.
//!
//! The crate composes the substrates (`volcast-pointcloud`,
//! `volcast-viewport`, `volcast-mmwave`, `volcast-net`) into the four
//! research-agenda components of the paper plus the end-to-end system:
//!
//! - [`grouping`]: multicast grouping with viewport similarity — the
//!   `T_m(k) = S_m/r_m + Σ(S_i - S_m)/r_i ≤ 1/F` transmission-time model
//!   and a similarity-driven group search (§4.2),
//! - [`bandwidth`]: cross-layer bandwidth prediction combining PHY-layer
//!   indicators (RSS trend, forecast blockage) with application-layer
//!   indicators (throughput history, buffer levels) (§4.3),
//! - [`rate_adapt`]: the multi-user video rate adaptation that picks
//!   quality levels and reactions (prefetch / regroup / beam switch)
//!   (§4.3),
//! - [`mitigation`]: proactive blockage mitigation driven by multi-user
//!   viewport prediction (§4.1),
//! - [`session`]: the end-to-end streaming session driving all of the
//!   above frame by frame, with client buffers and stall accounting,
//! - [`server`]: the serving story — per-client connection state
//!   machines streaming the `volcast-net::wire` container with admission
//!   control, bounded send queues (backpressure), and network faults
//!   (disconnects, loss, stalls) from the deterministic fault plan,
//! - [`player`]: the three player baselines of Table 1 — vanilla (full
//!   frames), multi-user ViVo (visibility-aware unicast) — and volcast
//!   itself (visibility-aware multicast with custom beams),
//! - [`qoe`]: quality-of-experience metrics,
//! - [`multi_ap`]: multi-AP coordination (§5, open challenge realized).
//!
//! ```
//! use volcast_core::{SessionParams, StreamingSession};
//! use volcast_viewport::UserStudy;
//!
//! // Two seeded runs of the full end-to-end session agree exactly.
//! let params = SessionParams { frames: 5, analysis_points: 2_000, ..SessionParams::default() };
//! let traces = UserStudy::generate_with(7, 5, 1, 1).traces;
//! let a = StreamingSession::new(params.clone(), traces.clone()).run().unwrap();
//! let b = StreamingSession::new(params, traces).run().unwrap();
//! assert_eq!(a.qoe.mean_fps(), b.qoe.mean_fps());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod campus;
pub mod config;
pub mod error;
pub mod grouping;
pub mod mitigation;
pub mod multi_ap;
pub mod player;
pub mod qoe;
pub mod rate_adapt;
pub mod server;
pub mod session;

pub use bandwidth::{BandwidthPredictor, CrossLayerInputs};
pub use campus::{Campus, CampusOutcome, CampusParams};
pub use config::SystemConfig;
pub use error::VolcastError;
pub use grouping::{Group, GroupPlan, GroupPlanner, GroupingInputs};
pub use mitigation::{BlockageMitigator, MitigationAction, MitigationMode};
pub use multi_ap::EpochCoordinator;
pub use player::{max_sustainable_fps, PlayerKind};
pub use qoe::{QoeReport, UserQoe};
pub use rate_adapt::{
    AbrPolicy, DeliveryDecision, Distress, FecRung, GroupState, RateAction, RateAdapter,
};
pub use server::{ClientOutcome, ServerOutcome, ServerParams, SessionServer};
pub use session::{DeliveryMode, RadioKind, SessionOutcome, SessionParams, StreamingSession};
