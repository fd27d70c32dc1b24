//! Property tests for the mmWave substrate.

use volcast_geom::{Spherical, Vec3};
use volcast_mmwave::{
    combine_weights_multi, Channel, Codebook, McsTable, PlanarArray, SweepEngine,
};
use volcast_util::prop::prelude::*;

fn arb_dir() -> impl Strategy<Value = Spherical> {
    (-1.2f64..1.2, -0.8f64..0.8).prop_map(|(az, el)| Spherical::new(az, el))
}

fn arb_room_pos() -> impl Strategy<Value = Vec3> {
    (-3.5f64..3.5, 0.8f64..2.0, -3.5f64..3.5).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn steered_beams_have_unit_power(dir in arb_dir()) {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let b = array.beam_toward(dir);
        prop_assert!((b.power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gain_peaks_at_steering_direction(dir in arb_dir(), probe in arb_dir()) {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let b = array.beam_toward(dir);
        // No probe direction may exceed the steered direction's gain
        // divided by its element pattern (the array factor peaks there).
        let g_target = array.gain(&b, dir);
        let g_probe = array.gain(&b, probe);
        let elem = |d: Spherical| (d.azimuth.cos() * d.elevation.cos()).max(0.01);
        prop_assert!(
            g_probe / elem(probe) <= g_target / elem(dir) * (1.0 + 1e-9),
            "array factor exceeded its steering peak"
        );
    }

    #[test]
    fn combined_weights_unit_power(dirs in prop::collection::vec(arb_dir(), 1..5),
                                   rss in prop::collection::vec(1e-9f64..1e-3, 1..5)) {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let k = dirs.len().min(rss.len());
        let beams: Vec<_> = (0..k)
            .map(|i| (array.beam_toward(dirs[i]), rss[i]))
            .collect();
        let c = combine_weights_multi(&beams);
        prop_assert!((c.power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rss_finite_inside_room(pos in arb_room_pos()) {
        let ch = Channel::default_setup();
        let rss = ch.rss_dedicated_beam(pos, &[]);
        prop_assert!(rss.is_finite());
        // Plausible indoor range for a 32-element array.
        prop_assert!((-95.0..=-30.0).contains(&rss), "rss {}", rss);
    }

    #[test]
    fn best_beam_at_least_dedicated(pos in arb_room_pos()) {
        let ch = Channel::default_setup();
        let ded = ch.rss_dedicated_beam(pos, &[]);
        let best = ch.rss_best_beam(pos, &[]);
        prop_assert!(best >= ded - 1e-9);
    }

    #[test]
    fn blockers_never_increase_rss(pos in arb_room_pos(),
                                   bx in -3.5f64..3.5, bz in -3.5f64..3.5) {
        let ch = Channel::default_setup();
        let blocker = volcast_mmwave::Blocker::person(Vec3::new(bx, 0.0, bz));
        let clear = ch.rss_dedicated_beam(pos, &[]);
        let blocked = ch.rss_dedicated_beam(pos, &[blocker]);
        prop_assert!(blocked <= clear + 1e-9);
    }

    #[test]
    fn designed_beam_never_below_best_sector(a in arb_room_pos(), b in arb_room_pos()) {
        let ch = Channel::default_setup();
        let cb = Codebook::default_for(&ch.array);
        let beam = SweepEngine::new(&ch, &cb).design(&[a, b], &[]);
        prop_assert!(beam.common_rss_dbm() >= beam.sector_common_rss_dbm());
    }

    #[test]
    fn mcs_rate_monotone_in_rss(r1 in -90.0f64..-40.0, r2 in -90.0f64..-40.0) {
        let t = McsTable::dmg();
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(t.phy_rate_mbps(lo) <= t.phy_rate_mbps(hi));
    }

    #[test]
    fn multicast_rate_never_exceeds_any_member(rss in prop::collection::vec(-90.0f64..-40.0, 1..6)) {
        let t = McsTable::dmg();
        let group = t.multicast_rate_mbps(&rss);
        for &r in &rss {
            prop_assert!(group <= t.phy_rate_mbps(r) + 1e-9);
        }
    }
}
