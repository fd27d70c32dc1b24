//! GOP-batched session contract: batching analysis-frame generation (and,
//! opted in, encoding) a GOP at a time must not move a single byte of the
//! session outcome — at any worker count. The batch sweep only changes
//! *when* and *on which thread* a frame's points are produced, never their
//! values, and `encode_gop` is measurement-only.
//!
//! The thread-count knob is process-global, so every run goes through
//! `par::with_thread_count`, which serializes overrides and restores the
//! original count when done.

use volcast_core::session::quick_session_with_device;
use volcast_core::PlayerKind;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::DeviceClass;

fn session_json(encode_gop: bool, threads: usize) -> String {
    par::with_thread_count(threads, || {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 40, 11, DeviceClass::Headset);
        s.params.analysis_points = 3_000;
        s.params.encode_gop = encode_gop;
        s.run().unwrap().to_json().to_json_string()
    })
}

/// 40 frames spans one full 30-frame GOP plus a 10-frame tail group, so
/// both the full-width and truncated batch shapes are covered.
#[test]
fn encode_gop_does_not_change_the_outcome() {
    let base = session_json(false, 1);
    assert_eq!(session_json(true, 1), base, "encode_gop changed outcome");
    assert_eq!(
        session_json(true, 8),
        base,
        "encode_gop outcome depends on VOLCAST_THREADS"
    );
}

#[test]
fn gop_batched_session_is_thread_count_invariant() {
    assert_eq!(
        session_json(false, 1),
        session_json(false, 8),
        "outcome depends on VOLCAST_THREADS"
    );
}
