//! GOP-batched session contract: counting analysis-frame cells a GOP at a
//! time must not move a single byte of the session outcome — at any
//! worker count. The batch sweep only changes *when* and *on which
//! thread* a frame's cells are counted, never their values.
//!
//! The thread-count knob is process-global, so every run goes through
//! `par::with_thread_count`, which serializes overrides and restores the
//! original count when done.

use volcast_core::session::quick_session_with_device;
use volcast_core::PlayerKind;
use volcast_util::json::ToJson;
use volcast_util::par;
use volcast_viewport::DeviceClass;

fn session_json(threads: usize) -> String {
    par::with_thread_count(threads, || {
        let mut s = quick_session_with_device(PlayerKind::Volcast, 3, 40, 11, DeviceClass::Headset);
        s.params.analysis_points = 3_000;
        s.run().unwrap().to_json().to_json_string()
    })
}

/// 40 frames spans one full 30-frame GOP plus a 10-frame tail group, so
/// both the full-width and truncated batch shapes are covered.
#[test]
fn gop_batched_session_is_thread_count_invariant() {
    assert_eq!(
        session_json(1),
        session_json(8),
        "outcome depends on VOLCAST_THREADS"
    );
}
