//! Pins the session outcome on branch combinations that no committed
//! capture exercises: Volcast over 802.11ac, the unicast baselines under
//! injected faults, layered delivery with reactive mitigation, and the
//! throughput-only ABR. Each pin is the FNV-1a hash of the serialized
//! `SessionOutcome` (as in `results/faults.txt`), and each run must hit
//! it at 1 and at 4 workers.
//!
//! The thread-count knob is process-global, so every run goes through
//! `par::with_thread_count`, which serializes overrides and restores the
//! original count when done.

use volcast_core::session::quick_session_with_device;
use volcast_core::{
    AbrPolicy, DeliveryMode, MitigationMode, PlayerKind, RadioKind, SessionOutcome,
    StreamingSession,
};
use volcast_net::FaultConfig;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::DeviceClass;

/// The fault matrix's all-faults-combined scenario.
const COMBINED: &str =
    "seed=17,outage=0.02:4,blockage=0.05:3,stall=0.02:2,loss=0.04,decode=0.03,blackout=30:6";

fn session(player: PlayerKind, users: usize, device: DeviceClass) -> StreamingSession {
    let mut s = quick_session_with_device(player, users, 40, 42, device);
    s.params.analysis_points = 4_000;
    s
}

/// Runs the session built by `build` at 1 and 4 workers, asserts both
/// outcomes hash to `pin`, and returns the outcome for sanity checks.
fn assert_pinned(pin: u64, build: impl Fn() -> StreamingSession) -> SessionOutcome {
    let mut outcome = None;
    for threads in [1, 4] {
        let out = par::with_thread_count(threads, || build().run().unwrap());
        let hash = fnv1a(out.to_json().to_json_string().as_bytes());
        assert_eq!(
            hash, pin,
            "outcome hash 0x{hash:016x} != pinned 0x{pin:016x} at {threads} worker(s)"
        );
        outcome = Some(out);
    }
    outcome.unwrap()
}

#[test]
fn volcast_over_wifi5_is_pinned() {
    let out = assert_pinned(0x31697547fca40b9e, || {
        let mut s = session(PlayerKind::Volcast, 4, DeviceClass::Phone);
        s.params.radio = RadioKind::Wifi5;
        s
    });
    assert_eq!(out.qoe.users.len(), 4);
}

#[test]
fn vanilla_under_combined_faults_is_pinned() {
    let out = assert_pinned(0x04cbc36ea7639195, || {
        let mut s = session(PlayerKind::Vanilla, 4, DeviceClass::Phone);
        s.params.faults = Some(FaultConfig::from_spec(COMBINED).unwrap());
        s
    });
    assert!(out.fault_user_frames > 0);
}

#[test]
fn vivo_under_combined_faults_is_pinned() {
    let out = assert_pinned(0xbb6bca6aa23b7952, || {
        let mut s = session(PlayerKind::Vivo, 4, DeviceClass::Phone);
        s.params.faults = Some(FaultConfig::from_spec(COMBINED).unwrap());
        s
    });
    assert!(out.fault_user_frames > 0);
}

#[test]
fn layered_with_reactive_mitigation_is_pinned() {
    let out = assert_pinned(0x1a5306a893fe6ede, || {
        let mut s = session(PlayerKind::Volcast, 4, DeviceClass::Phone);
        s.params.delivery = DeliveryMode::Layered;
        s.params.mitigation = MitigationMode::Reactive;
        s.params.faults = Some(FaultConfig::from_spec("seed=12,blockage=0.10:4").unwrap());
        s
    });
    assert!(out.blocked_user_frames > 0);
}

#[test]
fn throughput_only_abr_is_pinned() {
    let out = assert_pinned(0x23af3a03837c95d9, || {
        let mut s = session(PlayerKind::Volcast, 4, DeviceClass::Headset);
        s.params.abr = AbrPolicy::ThroughputOnly;
        s
    });
    assert_eq!(out.qoe.users.len(), 4);
}
