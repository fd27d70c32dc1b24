//! Multicast accounting identity across the fault matrix: the session's
//! multicast byte counter must equal the bytes the executed plans carried
//! on multicast items (`net.plan.multicast_bytes`), and the outcome's
//! multicast byte fraction must stay a fraction. An AP stall empties the
//! frame's plan after planning, so a counter taken from the plan as
//! planned instead of as executed breaks the identity on stall frames.
//!
//! Own test binary: the obs registry is process-global, so no other test
//! may emit metrics while this one reads them.

use volcast_core::session::quick_session_with_device;
use volcast_core::{DeliveryMode, PlayerKind};
use volcast_net::FaultConfig;
use volcast_util::{obs, par};
use volcast_viewport::DeviceClass;

/// The fault matrix of `volcast-bench --bin faults`.
const SCENARIOS: &[(&str, &str)] = &[
    ("baseline", ""),
    ("outage_burst", "seed=11,outage=0.04:6"),
    ("blockage_storm", "seed=12,blockage=0.10:4"),
    ("ap_stall", "seed=13,stall=0.10:3"),
    ("loss", "seed=14,loss=0.08"),
    ("decode", "seed=15,decode=0.06"),
    ("blackout", "seed=16,blackout=16:8"),
    (
        "combined",
        "seed=17,outage=0.02:4,blockage=0.05:3,stall=0.02:2,loss=0.04,decode=0.03,blackout=30:6",
    ),
];

fn counter(snap: &obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

#[test]
fn multicast_bytes_count_the_executed_plan() {
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    par::with_thread_count(1, || {
        for delivery in [DeliveryMode::Single, DeliveryMode::Layered] {
            for &(name, spec) in SCENARIOS {
                obs::reset();
                let mut s =
                    quick_session_with_device(PlayerKind::Volcast, 4, 48, 42, DeviceClass::Phone);
                s.params.analysis_points = 8_000;
                s.params.delivery = delivery;
                let cfg = FaultConfig::from_spec(spec).unwrap();
                if !cfg.is_quiet() {
                    s.params.faults = Some(cfg);
                }
                let out = s.run().unwrap();
                let snap = obs::snapshot();
                let planned = counter(&snap, "session.multicast_bytes");
                let executed = counter(&snap, "net.plan.multicast_bytes");
                assert!(executed > 0, "{name} ({delivery:?}): no multicast at all");
                assert_eq!(
                    planned, executed,
                    "{name} ({delivery:?}): session multicast bytes != executed"
                );
                let frac = out.multicast_byte_fraction;
                assert!(
                    (0.0..=1.0).contains(&frac),
                    "{name} ({delivery:?}): multicast byte fraction {frac}"
                );
            }
        }
    });
    obs::set_enabled(was_enabled);
}
