//! Campus sharding and roaming, end to end: the sharded multi-room
//! simulation and a roaming-trace streaming session must both be
//! byte-identical across worker budgets, and their outcomes are *pinned*
//! by FNV-1a hash so any behavioral drift — a reordered merge, a
//! re-seeded fault domain, an accidental `HashMap` iteration — fails
//! loudly instead of silently changing committed figures.
//!
//! The thread-count knob is process-global, so every run goes through
//! `par::with_thread_count`, which serializes overrides and restores the
//! original count when done.

use volcast_core::campus::{Campus, CampusParams};
use volcast_core::{SessionParams, StreamingSession};
use volcast_net::FaultConfig;
use volcast_util::hash::fnv1a;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::RoamingTraceGenerator;

/// Runs `work` at 1 worker and at 8 and asserts byte-identical output;
/// returns the (shared) serialized form for hash pinning.
fn thread_invariant_json<F: Fn() -> String>(work: F) -> String {
    let serial = par::with_thread_count(1, &work);
    let parallel = par::with_thread_count(8, &work);
    assert_eq!(serial, parallel, "output depends on VOLCAST_THREADS");
    serial
}

fn campus_params() -> CampusParams {
    CampusParams {
        grid_w: 3,
        grid_h: 1,
        users: 24,
        frames: 40,
        epoch_frames: 8,
        seed: 11,
        group_cap: 6,
        faults: Some(FaultConfig::from_spec("seed=5,outage=0.02:4,loss=0.03").unwrap()),
    }
}

/// The campus outcome is identical at 1 and 8 workers and pinned: rooms
/// advance in parallel but merge positionally, fault domains are seeded
/// per `(room, epoch, ap)`, and the epoch barrier hands off users in
/// deterministic order.
#[test]
fn campus_outcome_is_thread_invariant_and_pinned() {
    let json = thread_invariant_json(|| {
        Campus::new(campus_params())
            .unwrap()
            .run()
            .unwrap()
            .to_json()
            .to_json_string()
    });
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x0cce_86d4_41bd_6226,
        "campus outcome drifted; if the change is intentional re-pin this hash\n{json}"
    );
}

/// An *odd* worker budget (3) over a *non-square* grid (4x2) is pinned
/// too: odd counts make uneven room-to-worker splits, and `grid_w !=
/// grid_h` catches any accidental width/height transposition in room
/// binning — both invisible to the square, even-budget pin above.
#[test]
fn campus_is_invariant_at_odd_thread_counts_and_rect_grids() {
    let params = CampusParams {
        grid_w: 4,
        grid_h: 2,
        users: 40,
        frames: 32,
        seed: 13,
        group_cap: 5,
        ..campus_params()
    };
    let run = || {
        Campus::new(params.clone())
            .unwrap()
            .run()
            .unwrap()
            .to_json()
            .to_json_string()
    };
    let json = {
        let serial = par::with_thread_count(1, run);
        let three = par::with_thread_count(3, run);
        assert_eq!(serial, three, "output depends on VOLCAST_THREADS=3");
        serial
    };
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x3edd_6eb7_6053_0bee,
        "rect-grid campus outcome drifted; if intentional re-pin this hash\n{json}"
    );
}

/// Long roaming runs must actually cross room boundaries — a campus where
/// nobody hands off is not exercising the barrier at all.
#[test]
fn roaming_users_hand_off_between_rooms() {
    let params = CampusParams {
        frames: 900,
        epoch_frames: 30,
        ..campus_params()
    };
    let out = Campus::new(params).unwrap().run().unwrap();
    assert!(out.handoffs > 0, "no handoffs in 30 s of roaming: {out:?}");
    assert!(
        out.reassociations > 0,
        "nobody switched AP within a room in 30 s: {out:?}"
    );
}

/// A full streaming session fed by roaming traces (confined to one
/// room-sized extent, as `Campus` does per room) is thread-invariant and
/// pinned end to end: visibility, grouping, rate adaptation and the MAC
/// all consume the random-waypoint poses.
#[test]
fn roaming_session_outcome_is_thread_invariant_and_pinned() {
    let json = thread_invariant_json(|| {
        let gen = RoamingTraceGenerator::new(42, 6.0, 6.0);
        let traces: Vec<_> = (0..4).map(|u| gen.generate(u, 12)).collect();
        let params = SessionParams {
            frames: 12,
            analysis_points: 4_000,
            ..SessionParams::default()
        };
        StreamingSession::new(params, traces)
            .run()
            .unwrap()
            .to_json()
            .to_json_string()
    });
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x12ac_efb5_9066_f68e,
        "roaming session outcome drifted; if intentional re-pin this hash\n{json}"
    );
}
