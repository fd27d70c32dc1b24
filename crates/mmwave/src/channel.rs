//! Geometric 60 GHz indoor channel: LoS + image-method reflections +
//! human blockage.
//!
//! This is the Remcom Wireless InSite substitute (`DESIGN.md` §1): for a
//! rectangular room we enumerate the line-of-sight path and the first-order
//! specular reflections off the four walls and the ceiling (floor
//! reflections at 60 GHz are usually carpet-absorbed; included optionally).
//! Every path carries free-space loss, oxygen absorption, a per-reflection
//! loss, and a body-blockage penalty if any blocker cylinder intersects it.
//! RSS for a beam is the non-coherent power sum over paths weighted by the
//! beam's gain toward each path's departure direction.

use crate::array::{AntennaWeights, PlanarArray, SteeringSample};
use crate::calib;
use volcast_geom::{Ray, Vec3};

/// A rectangular room: `x in [-w/2, w/2]`, `y in [0, h]`, `z in [-d/2, d/2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Room {
    /// Width (x extent) in meters.
    pub width: f64,
    /// Height (y extent) in meters.
    pub height: f64,
    /// Depth (z extent) in meters.
    pub depth: f64,
    /// Include the floor reflection (off by default: carpet absorbs).
    pub floor_reflection: bool,
}

impl Default for Room {
    /// An 8 x 3 x 8 m lab/classroom.
    fn default() -> Self {
        Room {
            width: 8.0,
            height: 3.0,
            depth: 8.0,
            floor_reflection: false,
        }
    }
}

/// A standing human blocker: vertical cylinder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocker {
    /// Cylinder center (x, z); y ignored.
    pub center: Vec3,
    /// Radius in meters.
    pub radius: f64,
    /// Height in meters (from the floor).
    pub height: f64,
}

impl Blocker {
    /// A typical standing person at `center` (head position or body center).
    pub fn person(center: Vec3) -> Self {
        Blocker {
            center,
            radius: 0.25,
            height: 1.8,
        }
    }
}

/// One propagation path from the AP to a receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// First hop target from the TX: the receiver itself (LoS) or the
    /// specular reflection point on a surface.
    pub via: Vec3,
    /// Total path length in meters.
    pub length: f64,
    /// Fixed extra loss (reflection), dB.
    pub extra_loss_db: f64,
    /// `true` for the direct path.
    pub is_los: bool,
}

/// A receiver prepared for repeated beam evaluations: paths enumerated,
/// blockage resolved, and the steering vector toward each path sampled —
/// all hoisted out of the per-beam loop. [`PreparedRx::rss_dbm`] then costs
/// one complex dot product per path.
///
/// Built by [`Channel::prepare_rx`] for a fixed `(receiver, blockers)`
/// pair; it reproduces [`Channel::rss_dbm`] bit-for-bit for that pair. A
/// codebook sweep (48 sectors × 6 paths) goes from 48 path enumerations and
/// blockage tests to one of each.
#[derive(Debug, Clone)]
pub struct PreparedRx {
    /// Per usable path: steering toward its departure point and the total
    /// loss in dB (propagation + reflection + blockage).
    paths: Vec<(SteeringSample, f64)>,
}

impl PreparedRx {
    /// RSS (dBm) for transmit beam `weights` — identical to
    /// [`Channel::rss_dbm`] at the prepared receiver and blocker set.
    pub fn rss_dbm(&self, weights: &AntennaWeights) -> f64 {
        let mut total_mw = 0.0f64;
        for (sample, loss_db) in &self.paths {
            let gain = sample.gain(weights);
            if gain <= 0.0 {
                continue;
            }
            let rx_dbm = calib::TX_POWER_DBM + 10.0 * gain.log10() + calib::RX_GAIN_DBI - loss_db;
            total_mw += calib::dbm_to_mw(rx_dbm);
        }
        calib::mw_to_dbm(total_mw)
    }
}

/// The channel: a room plus the AP's planar array.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Room geometry.
    pub room: Room,
    /// AP antenna array (position + orientation included).
    pub array: PlanarArray,
}

impl Channel {
    /// Creates a channel with the array mounted in the room.
    pub fn new(room: Room, array: PlanarArray) -> Self {
        Channel { room, array }
    }

    /// The default experimental setup: 8 x 3 x 8 m room, 8x4 array mounted
    /// high on the +z wall, tilted slightly down toward the room center.
    pub fn default_setup() -> Self {
        let room = Room::default();
        let pos = Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1);
        let facing = Vec3::new(0.0, 1.3, 0.0) - pos; // toward room center
        Channel::new(room, PlanarArray::airfide(pos, facing))
    }

    /// Enumerates propagation paths from the AP to `rx`: LoS plus
    /// first-order reflections via the image method.
    pub fn paths(&self, rx: Vec3) -> Vec<Path> {
        let mut out = Vec::with_capacity(6);
        self.paths_into(rx, &mut out);
        out
    }

    /// [`Channel::paths`] into a caller-owned buffer (cleared first) — the
    /// single enumeration program, shared with the allocation-free sweep
    /// engine so path lists are bit-identical however they are produced.
    pub fn paths_into(&self, rx: Vec3, out: &mut Vec<Path>) {
        out.clear();
        let tx = self.array.position;
        out.push(Path {
            via: rx,
            length: tx.distance(rx),
            extra_loss_db: 0.0,
            is_los: true,
        });

        let (hw, hd) = (self.room.width / 2.0, self.room.depth / 2.0);
        // (axis, plane coordinate) for each reflecting surface.
        let surfaces = [
            (0usize, -hw),
            (0, hw),
            (2, -hd),
            (2, hd),
            (1, self.room.height),
        ];
        let floor = self.room.floor_reflection.then_some((1usize, 0.0));
        for (axis, plane) in surfaces.into_iter().chain(floor) {
            if let Some(p) = self.reflection_path(tx, rx, axis, plane) {
                out.push(p);
            }
        }
    }

    /// Image-method reflection off the plane `coord[axis] = plane`.
    fn reflection_path(&self, tx: Vec3, rx: Vec3, axis: usize, plane: f64) -> Option<Path> {
        // Mirror the receiver across the plane.
        let mut img = rx;
        match axis {
            0 => img.x = 2.0 * plane - rx.x,
            1 => img.y = 2.0 * plane - rx.y,
            _ => img.z = 2.0 * plane - rx.z,
        }
        let total = tx.distance(img);
        if total < 1e-9 {
            return None;
        }
        // Reflection point: where TX->image crosses the plane.
        let dir = (img - tx) / total;
        let denom = dir[axis];
        if denom.abs() < 1e-9 {
            return None;
        }
        let t = (plane - tx[axis]) / denom;
        if t <= 0.0 || t >= total {
            return None; // reflection point not between TX and image
        }
        let via = tx + dir * t;
        // The bounce point must lie on the actual wall area.
        if !self.contains_on_surface(via) {
            return None;
        }
        Some(Path {
            via,
            length: total,
            extra_loss_db: calib::REFLECTION_LOSS_DB,
            is_los: false,
        })
    }

    fn contains_on_surface(&self, p: Vec3) -> bool {
        let (hw, hd) = (self.room.width / 2.0, self.room.depth / 2.0);
        let eps = 1e-6;
        p.x >= -hw - eps
            && p.x <= hw + eps
            && p.y >= -eps
            && p.y <= self.room.height + eps
            && p.z >= -hd - eps
            && p.z <= hd + eps
    }

    /// `true` when any blocker cylinder interrupts the segment `a -> b`.
    ///
    /// A blocker whose cylinder axis stands (horizontally) on the segment's
    /// receiving endpoint `b` is treated as the receiver's own body and
    /// ignored — their device is above their shoulders, not behind their
    /// torso. This lets callers pass the full room population without
    /// manually excluding each receiver.
    fn segment_blocked(&self, a: Vec3, b: Vec3, blockers: &[Blocker]) -> bool {
        let Some(ray) = Ray::between(a, b) else {
            return false;
        };
        let dist = a.distance(b);
        blockers.iter().any(|bl| {
            // Own-body exclusion: axis within the cylinder radius of the
            // receiving endpoint.
            let horiz = ((bl.center.x - b.x).powi(2) + (bl.center.z - b.z).powi(2)).sqrt();
            if horiz <= bl.radius + 1e-6 {
                return false;
            }
            match ray.intersect_vertical_cylinder(
                bl.center.x,
                bl.center.z,
                bl.radius,
                0.0,
                bl.height,
            ) {
                Some(t) => t > 1e-6 && t < dist - bl.radius.min(dist * 0.5),
                None => false,
            }
        })
    }

    /// Received signal strength (dBm) at `rx` for transmit beam `weights`,
    /// with the given blockers. Non-coherent power sum over paths.
    pub fn rss_dbm(&self, weights: &AntennaWeights, rx: Vec3, blockers: &[Blocker]) -> f64 {
        self.prepare_rx(rx, blockers).rss_dbm(weights)
    }

    /// Prepares `rx` for repeated beam evaluations (see [`PreparedRx`]).
    pub fn prepare_rx(&self, rx: Vec3, blockers: &[Blocker]) -> PreparedRx {
        self.prepare_rx_paths(&self.paths(rx), rx, blockers)
    }

    /// [`Channel::prepare_rx`] over an already-enumerated path list, for
    /// callers that memoize [`Channel::paths`] per receiver position (path
    /// geometry is independent of the blocker population).
    pub fn prepare_rx_paths(&self, paths: &[Path], rx: Vec3, blockers: &[Blocker]) -> PreparedRx {
        let paths = paths
            .iter()
            .filter_map(|path| {
                // A path whose departure direction is degenerate contributes
                // zero gain in rss_dbm; dropping it here is equivalent.
                let dir = self.array.local_direction(path.via - self.array.position)?;
                let loss_db = self.path_loss_db(path, rx, blockers);
                Some((self.array.steering_sample(dir), loss_db))
            })
            .collect();
        PreparedRx { paths }
    }

    /// Total loss in dB of one enumerated path toward `rx` — propagation,
    /// reflection, implementation, and (if any blocker cylinder interrupts
    /// a leg) body blockage. The single loss program behind
    /// [`Channel::prepare_rx_paths`], shared with the allocation-free
    /// sweep engine.
    pub fn path_loss_db(&self, path: &Path, rx: Vec3, blockers: &[Blocker]) -> f64 {
        let mut loss_db = calib::fspl_db(path.length)
            + calib::O2_ABSORPTION_DB_PER_M * path.length
            + path.extra_loss_db
            + calib::IMPLEMENTATION_LOSS_DB;
        // Blockage: check both legs of the path.
        let blocked = if path.is_los {
            self.segment_blocked(self.array.position, rx, blockers)
        } else {
            self.segment_blocked(self.array.position, path.via, blockers)
                || self.segment_blocked(path.via, rx, blockers)
        };
        if blocked {
            loss_db += calib::BODY_BLOCKAGE_DB;
        }
        loss_db
    }

    /// RSS using the best dedicated (conjugate) beam toward `rx` — the
    /// upper bound a perfect beam search achieves *on the LoS direction*.
    pub fn rss_dedicated_beam(&self, rx: Vec3, blockers: &[Blocker]) -> f64 {
        match self.array.local_direction(rx - self.array.position) {
            Some(dir) => self.rss_dbm(&self.array.beam_toward(dir), rx, blockers),
            None => f64::NEG_INFINITY,
        }
    }

    /// RSS with the best beam over *all* propagation paths: the AP tries a
    /// dedicated beam toward the receiver and toward every reflection
    /// point, and keeps the strongest. This is what a beam search that is
    /// allowed to use NLoS paths converges to — the escape hatch from a
    /// body blockage (paper §4.1: "adapt its beam to the user with a
    /// reflection path").
    pub fn rss_best_beam(&self, rx: Vec3, blockers: &[Blocker]) -> f64 {
        // One path enumeration + blockage resolution shared by every
        // candidate beam, instead of re-deriving them per candidate.
        // Stays serial: after preparation the sweep is a handful of dot
        // products (one per path), far below thread-spawn cost. Codebook
        // sweeps live in `SweepEngine`.
        let paths = self.paths(rx);
        let prepared = self.prepare_rx_paths(&paths, rx, blockers);
        paths
            .iter()
            .filter_map(|p| {
                self.array
                    .local_direction(p.via - self.array.position)
                    .map(|dir| prepared.rss_dbm(&self.array.beam_toward(dir)))
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(Room {
    width,
    height,
    depth,
    floor_reflection
});
volcast_util::impl_json_struct!(Blocker {
    center,
    radius,
    height
});
volcast_util::impl_json_struct!(Path {
    via,
    length,
    extra_loss_db,
    is_los
});
volcast_util::impl_json_struct!(Channel { room, array });

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Channel {
        Channel::default_setup()
    }

    #[test]
    fn paths_include_los_and_reflections() {
        let ch = setup();
        let paths = ch.paths(Vec3::new(1.0, 1.5, 0.0));
        assert!(paths[0].is_los);
        // 4 walls + ceiling = up to 5 reflections; at least 3 must be
        // geometrically valid from this interior point.
        assert!(paths.len() >= 4, "only {} paths", paths.len());
        for p in &paths[1..] {
            assert!(!p.is_los);
            assert!(p.length > paths[0].length, "reflection shorter than LoS");
            assert_eq!(p.extra_loss_db, calib::REFLECTION_LOSS_DB);
        }
    }

    #[test]
    fn aligned_user_has_strong_rss() {
        let ch = setup();
        let user = Vec3::new(0.0, 1.6, 0.0); // room center, ~4 m
        let rss = ch.rss_dedicated_beam(user, &[]);
        assert!(
            (-68.0..=-45.0).contains(&rss),
            "calibration anchor violated: {rss} dBm at room center"
        );
    }

    #[test]
    fn rss_decreases_with_distance() {
        let ch = setup();
        let near = ch.rss_dedicated_beam(Vec3::new(0.0, 1.6, 2.0), &[]);
        let far = ch.rss_dedicated_beam(Vec3::new(0.0, 1.6, -3.0), &[]);
        assert!(near > far, "near {near} <= far {far}");
    }

    #[test]
    fn misaligned_beam_much_weaker() {
        let ch = setup();
        let user_a = Vec3::new(-2.5, 1.6, 0.0);
        let user_b = Vec3::new(2.5, 1.6, 0.0);
        let beam_a = ch.array.beam_toward(
            ch.array
                .local_direction(user_a - ch.array.position)
                .unwrap(),
        );
        let rss_at_a = ch.rss_dbm(&beam_a, user_a, &[]);
        let rss_at_b = ch.rss_dbm(&beam_a, user_b, &[]);
        assert!(
            rss_at_a > rss_at_b + 8.0,
            "beam at A: {rss_at_a} dBm at A vs {rss_at_b} dBm at B"
        );
    }

    #[test]
    fn blockage_attenuates_but_does_not_kill() {
        let ch = setup();
        let user = Vec3::new(0.0, 1.2, -2.0);
        // Blocker standing on the LoS close to the user: the ray from the
        // AP (y=2.6, z=3.9) descends below 1.8 m only near the user.
        let blocker = Blocker::person(Vec3::new(0.0, 0.0, -1.0));
        let clear = ch.rss_dedicated_beam(user, &[]);
        let blocked = ch.rss_dedicated_beam(user, &[blocker]);
        assert!(blocked < clear - 5.0, "clear {clear} blocked {blocked}");
        // Reflections keep the link alive (paper §5).
        assert!(blocked > clear - calib::BODY_BLOCKAGE_DB - 10.0);
        assert!(blocked.is_finite());
    }

    #[test]
    fn off_los_blocker_is_harmless() {
        let ch = setup();
        let user = Vec3::new(0.0, 1.2, -2.0);
        let bystander = Blocker::person(Vec3::new(3.0, 0.0, -1.0));
        let clear = ch.rss_dedicated_beam(user, &[]);
        let with = ch.rss_dedicated_beam(user, &[bystander]);
        assert!((clear - with).abs() < 1.0);
    }

    #[test]
    fn reflection_points_lie_on_walls() {
        let ch = setup();
        let paths = ch.paths(Vec3::new(2.0, 1.0, -1.0));
        let (hw, hd) = (ch.room.width / 2.0, ch.room.depth / 2.0);
        for p in paths.iter().filter(|p| !p.is_los) {
            let on_wall = (p.via.x.abs() - hw).abs() < 1e-6
                || (p.via.z.abs() - hd).abs() < 1e-6
                || (p.via.y - ch.room.height).abs() < 1e-6
                || p.via.y.abs() < 1e-6;
            assert!(on_wall, "bounce point {} not on a surface", p.via);
        }
    }

    #[test]
    fn floor_reflection_toggle() {
        let mut ch = setup();
        let rx = Vec3::new(1.0, 1.5, 0.0);
        let without = ch.paths(rx).len();
        ch.room.floor_reflection = true;
        let with = ch.paths(rx).len();
        assert_eq!(with, without + 1);
    }

    #[test]
    fn prepared_rx_matches_direct_rss_exactly() {
        let ch = setup();
        let rx = Vec3::new(-1.7, 1.4, -2.2);
        let blockers = [
            Blocker::person(Vec3::new(-1.0, 0.0, -0.5)),
            Blocker::person(Vec3::new(2.0, 0.0, 1.0)),
        ];
        let prepared = ch.prepare_rx(rx, &blockers);
        for dir in [
            Vec3::new(0.1, -0.4, -1.0),
            rx - ch.array.position,
            Vec3::new(-1.0, 0.0, -0.2),
        ] {
            let beam = ch.array.beam_toward(ch.array.local_direction(dir).unwrap());
            // Bit-for-bit: prepared evaluation is the same float program.
            assert_eq!(prepared.rss_dbm(&beam), ch.rss_dbm(&beam, rx, &blockers));
        }
    }

    #[test]
    fn rss_is_deterministic() {
        let ch = setup();
        let u = Vec3::new(1.3, 1.5, -0.7);
        assert_eq!(ch.rss_dedicated_beam(u, &[]), ch.rss_dedicated_beam(u, &[]));
    }
}

#[cfg(test)]
mod reflected_beam_tests {
    use super::*;

    #[test]
    fn reflected_beam_rescues_blocked_link() {
        let ch = Channel::default_setup();
        // A user near a side wall: the short side-wall bounce departs the
        // AP at a very different angle from the (blocked) LoS, so
        // re-steering buys real dB. (For users on the room axis the LoS
        // beam already covers the back-wall bounce and the gain is small.)
        let user = Vec3::new(-3.0, 1.5, 0.5);
        let ap = ch.array.position;
        let dir = (user - ap).normalized_or(Vec3::FORWARD);
        let bp = user - dir * 0.8;
        let blocker = Blocker::person(Vec3::new(bp.x, 0.0, bp.z));
        let los_blocked = ch.rss_dedicated_beam(user, &[blocker]);
        let best_blocked = ch.rss_best_beam(user, &[blocker]);
        assert!(
            best_blocked > los_blocked + 3.0,
            "best {best_blocked} vs los {los_blocked}"
        );
    }

    #[test]
    fn best_beam_equals_los_beam_when_clear() {
        let ch = Channel::default_setup();
        let user = Vec3::new(0.5, 1.5, 0.0);
        let los = ch.rss_dedicated_beam(user, &[]);
        let best = ch.rss_best_beam(user, &[]);
        assert!(best >= los - 1e-9);
        assert!(
            best < los + 3.0,
            "clear link should prefer LoS: {best} vs {los}"
        );
    }
}
