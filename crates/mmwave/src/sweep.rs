//! The group-beam engine (§4.2): allocation-free, bound-pruned codebook
//! sweeps and the multi-lobe design built on them.
//!
//! A full sector sweep evaluates every codebook sector against every usable
//! propagation path — 48 complex dot products of 32 elements per receiver.
//! For the DFT codebook those dot products have a closed form: the sector
//! weights are the conjugated steering vector toward the sector direction
//! (normalized), so the response magnitude toward a path factors into two
//! Dirichlet kernels, one per array axis:
//!
//! ```text
//! |w_s^T a_p| = s * |sin(nx·ψx)/sin(ψx)| * |sin(ny·ψy)/sin(ψy)|
//!   ψx = (k·d/2)·(u_p - u_s),  ψy = (k·d/2)·(v_p - v_s)
//! ```
//!
//! [`SweepEngine`] precomputes per-sector trig tables once per codebook and
//! per-path trig tables once per receiver ([`SweepRx::prepare`]), then turns
//! each (sector, path) amplitude bound into ~20 flops with no
//! transcendentals. The bounds carry explicit floating-point safety margins
//! so a pruned sector is *guaranteed* (not just likely) to lose against the
//! best exact value seen so far — the pruned sweep returns **bit-identical**
//! winners and RSS values to an exhaustive scan of every sector. The
//! exhaustive scan survives only as the test oracle in `multilobe.rs`; the
//! tests below, the session and campus outcome hashes pin the identity.
//!
//! [`SweepEngine::design_into`] is the paper's group-beam design on top of
//! the sweep: the best common sector, or the RSS-weighted multi-lobe
//! combination of the members' individual best sectors
//! ([`crate::combine_weights_multi`]) if that gives a strictly higher
//! common RSS. The session's grouping probes, the campus coordinator and
//! the figure binaries all design through it.
//!
//! Everything here reuses caller-owned buffers: after warm-up, sweeps and
//! designs allocate nothing, which the campus epoch loop's
//! counting-allocator gate relies on.

use crate::array::element_pattern;
use crate::calib;
use crate::channel::{Blocker, Channel, Path};
use crate::codebook::Codebook;
use volcast_geom::{Complex, Vec3};

/// Per-sector trig table: sin/cos of `ψ`-halves at the sector direction,
/// plus the sector's maximum per-element weight magnitude (the `s` in the
/// Dirichlet product, rounded up).
#[derive(Debug, Clone, Copy)]
struct SectorTrig {
    /// `max_i |w_i|`, scaled up by a relative margin.
    s_rt: f64,
    sin_bx: f64,
    cos_bx: f64,
    sin_bxn: f64,
    cos_bxn: f64,
    sin_by: f64,
    cos_by: f64,
    sin_byn: f64,
    cos_byn: f64,
}

/// A pruned-sweep evaluator for one `(channel, codebook)` pair.
///
/// Immutable and `Sync` once built: all per-receiver mutable state lives in
/// [`SweepRx`], so one engine can serve many parallel room workers.
///
/// If the codebook's sectors are *not* the conjugate-beamforming weights of
/// its listed directions (a custom codebook), the engine falls back to
/// exact-only mode: every sector bound is `+∞`, nothing is pruned, and the
/// sweep degenerates to the plain exhaustive scan — still bit-identical,
/// just not faster.
#[derive(Debug)]
pub struct SweepEngine<'a> {
    channel: &'a Channel,
    codebook: &'a Codebook,
    /// `k·d/2`: half the per-element phase advance per unit direction
    /// cosine.
    half_kd: f64,
    nxf: f64,
    nyf: f64,
    elements: usize,
    /// Per-sector trig tables; empty in exact-only fallback mode.
    sectors: Vec<SectorTrig>,
}

impl<'a> SweepEngine<'a> {
    /// Builds the engine, verifying that each codebook sector equals
    /// `beam_toward(direction)` bit-for-bit (the DFT structure the Dirichlet
    /// bound depends on). On mismatch the engine still works, exact-only.
    pub fn new(channel: &'a Channel, codebook: &'a Codebook) -> Self {
        let array = &channel.array;
        let elements = array.elements();
        let half_kd = 0.5
            * (2.0 * std::f64::consts::PI / calib::WAVELENGTH_M)
            * (array.spacing_wl * calib::WAVELENGTH_M);
        let structured = codebook.sectors.len() == codebook.directions.len()
            && codebook
                .sectors
                .iter()
                .zip(&codebook.directions)
                .all(|(s, &d)| s.len() == elements && *s == array.beam_toward(d));
        let sectors = if structured {
            codebook
                .sectors
                .iter()
                .zip(&codebook.directions)
                .map(|(sec, dir)| {
                    let s2_max = sec.w.iter().map(|c| c.norm_sq()).fold(0.0f64, f64::max);
                    let u = dir.azimuth.sin() * dir.elevation.cos();
                    let v = dir.elevation.sin();
                    let (sin_bx, cos_bx) = (half_kd * u).sin_cos();
                    let (sin_bxn, cos_bxn) = (array.nx as f64 * half_kd * u).sin_cos();
                    let (sin_by, cos_by) = (half_kd * v).sin_cos();
                    let (sin_byn, cos_byn) = (array.ny as f64 * half_kd * v).sin_cos();
                    SectorTrig {
                        s_rt: s2_max.sqrt() * (1.0 + 1e-9),
                        sin_bx,
                        cos_bx,
                        sin_bxn,
                        cos_bxn,
                        sin_by,
                        cos_by,
                        sin_byn,
                        cos_byn,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        SweepEngine {
            channel,
            codebook,
            half_kd,
            nxf: array.nx as f64,
            nyf: array.ny as f64,
            elements,
            sectors,
        }
    }

    /// The channel this engine sweeps.
    pub fn channel(&self) -> &'a Channel {
        self.channel
    }

    /// The codebook this engine sweeps.
    pub fn codebook(&self) -> &'a Codebook {
        self.codebook
    }

    /// Best single-receiver sector: `(sector index, RSS dBm)`, bit-identical
    /// to the exhaustive argmax with first-winner tie-breaking. Results are
    /// cached on the receiver, so repeat calls (and the custom-beam
    /// combination, which needs every member's individual best) are free.
    pub fn best_sector(&self, rx: &mut SweepRx) -> (usize, f64) {
        if let Some(best) = rx.best {
            return best;
        }
        // Seed: exactly evaluate the sector with the largest bound, which
        // is usually the true winner; its value prunes most of the rest.
        let mut j = 0usize;
        let mut jb = f64::NEG_INFINITY;
        for (s, &b) in rx.bounds.iter().enumerate() {
            if b > jb {
                jb = b;
                j = s;
            }
        }
        let seed = rx.eval_sector(self, j);
        let mut thr = calib::dbm_to_mw(seed) * (1.0 - 1e-9);
        let mut best_idx = 0usize;
        let mut best = f64::NEG_INFINITY;
        for s in 0..rx.bounds.len() {
            if rx.bounds[s] <= thr {
                continue;
            }
            let v = rx.eval_sector(self, s);
            if v > best {
                best = v;
                best_idx = s;
                let t = calib::dbm_to_mw(best) * (1.0 - 1e-9);
                if t > thr {
                    thr = t;
                }
            }
        }
        rx.best = Some((best_idx, best));
        (best_idx, best)
    }

    /// Best common sector for a member set: maximizes the minimum member
    /// RSS with first-winner tie-breaking, bit-identical to the exhaustive
    /// scan. On return `rss_out` holds the winning sector's per-member RSS
    /// in member order (all `-∞` if nothing is reachable), matching the
    /// exhaustive sweep's vector. `tmp` is scratch of the same shape.
    pub fn best_joint(
        &self,
        rxs: &mut [SweepRx],
        members: &[usize],
        tmp: &mut Vec<f64>,
        rss_out: &mut Vec<f64>,
    ) -> usize {
        let m = members.len();
        rss_out.clear();
        rss_out.resize(m, f64::NEG_INFINITY);
        let nsec = self.codebook.sectors.len();
        // Seed: the sector with the largest min-over-members bound.
        let mut j = 0usize;
        let mut jb = f64::NEG_INFINITY;
        for s in 0..nsec {
            let mut mn = f64::INFINITY;
            for &mi in members {
                mn = mn.min(rxs[mi].bounds[s]);
            }
            if mn > jb {
                jb = mn;
                j = s;
            }
        }
        let mut seed_min = f64::INFINITY;
        for &mi in members {
            seed_min = seed_min.min(rxs[mi].eval_sector(self, j));
        }
        let mut thr = calib::dbm_to_mw(seed_min) * (1.0 - 1e-9);
        let mut best_idx = 0usize;
        let mut best_min = f64::NEG_INFINITY;
        'sectors: for s in 0..nsec {
            // Prune: the sector loses if any single member's bound already
            // cannot beat the best min seen so far.
            for &mi in members {
                if rxs[mi].bounds[s] <= thr {
                    continue 'sectors;
                }
            }
            tmp.clear();
            let mut mn = f64::INFINITY;
            for &mi in members {
                let v = rxs[mi].eval_sector(self, s);
                if v <= best_min {
                    // min-over-members ≤ v ≤ best_min: cannot strictly
                    // improve, and the exhaustive scan would not update on
                    // ties either. Abort the member loop early.
                    continue 'sectors;
                }
                tmp.push(v);
                mn = mn.min(v);
            }
            if mn > best_min {
                best_min = mn;
                best_idx = s;
                std::mem::swap(tmp, rss_out);
                let t = calib::dbm_to_mw(best_min) * (1.0 - 1e-9);
                if t > thr {
                    thr = t;
                }
            }
        }
        best_idx
    }

    /// The custom multi-lobe combination for a member set, written into
    /// `acc` — bit-identical to [`crate::combine_weights_multi`] over each
    /// member's individually-best sector weighted by its linear RSS. Member
    /// bests come from the [`SweepEngine::best_sector`] cache, so after an
    /// assign-phase sweep this costs only the accumulation itself.
    pub fn combine_into(&self, rxs: &mut [SweepRx], members: &[usize], acc: &mut Vec<Complex>) {
        acc.clear();
        acc.resize(self.elements, Complex::ZERO);
        for &mi in members {
            let (idx, dbm) = self.best_sector(&mut rxs[mi]);
            let coeff = 1.0 / calib::dbm_to_mw(dbm).max(1e-15);
            for (a, b) in acc.iter_mut().zip(&self.codebook.sectors[idx].w) {
                *a += b.scale(coeff);
            }
        }
        // `AntennaWeights::normalized`, in place.
        let p: f64 = acc.iter().map(|c| c.norm_sq()).sum();
        if p > 0.0 {
            let s = 1.0 / p.sqrt();
            for c in acc.iter_mut() {
                *c = c.scale(s);
            }
        }
    }

    /// Designs the group beam for `members` (indices into `rxs`, each
    /// prepared against this engine) into `beam`: the best common sector
    /// and, when `custom` is set and the group has two or more members,
    /// the multi-lobe combination — kept only if its common RSS is
    /// strictly higher. Reuses `beam`'s buffers; repeat designs over the
    /// same prepared receivers hit their per-sector caches.
    pub fn design_into(
        &self,
        rxs: &mut [SweepRx],
        members: &[usize],
        custom: bool,
        beam: &mut GroupBeam,
    ) {
        assert!(!members.is_empty(), "cannot design a beam for no members");
        beam.sector = self.best_joint(rxs, members, &mut beam.tmp, &mut beam.sector_rss_dbm);
        beam.customized = false;
        if !custom || members.len() == 1 {
            return;
        }
        self.combine_into(rxs, members, &mut beam.custom_weights);
        beam.custom_rss_dbm.clear();
        for &u in members {
            beam.custom_rss_dbm
                .push(rxs[u].eval_weights(&beam.custom_weights));
        }
        beam.customized = min_dbm(&beam.custom_rss_dbm) > min_dbm(&beam.sector_rss_dbm);
    }

    /// One-shot [`SweepEngine::design_into`] with the multi-lobe option:
    /// prepares a receiver per position against `blockers` and designs
    /// the beam for all of them. Allocates; hot loops should keep their
    /// [`SweepRx`]s and [`GroupBeam`] and call `design_into`.
    ///
    /// ```
    /// use volcast_mmwave::{Channel, Codebook, SweepEngine};
    /// use volcast_geom::Vec3;
    ///
    /// let channel = Channel::default_setup();
    /// let codebook = Codebook::default_for(&channel.array);
    /// let engine = SweepEngine::new(&channel, &codebook);
    /// // Users on opposite sides of the room: no single sector covers both.
    /// let beam = engine.design(
    ///     &[Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)], &[]);
    /// assert!(beam.customized);
    /// assert!(beam.common_rss_dbm() > -68.0); // multicast-capable
    /// ```
    pub fn design(&self, positions: &[Vec3], blockers: &[Blocker]) -> GroupBeam {
        let mut rxs: Vec<SweepRx> = positions
            .iter()
            .map(|&p| {
                let mut rx = SweepRx::new();
                rx.prepare(self, p, blockers);
                rx
            })
            .collect();
        let members: Vec<usize> = (0..positions.len()).collect();
        let mut beam = GroupBeam::default();
        self.design_into(&mut rxs, &members, true, &mut beam);
        beam
    }
}

/// Minimum of a member-RSS vector (`+∞` when empty).
fn min_dbm(rss: &[f64]) -> f64 {
    rss.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A group beam designed by [`SweepEngine::design_into`], in buffers that
/// are reused across designs.
#[derive(Debug, Clone, Default)]
pub struct GroupBeam {
    /// Best common codebook sector: maximizes the minimum member RSS.
    pub sector: usize,
    /// Per-member RSS (dBm) under `sector`, in member order.
    pub sector_rss_dbm: Vec<f64>,
    /// Whether the multi-lobe combination beat `sector`; the beam to
    /// transmit is `custom_weights` if set, else the codebook sector.
    pub customized: bool,
    /// The multi-lobe weights. Valid when `customized`.
    pub custom_weights: Vec<Complex>,
    /// Per-member RSS (dBm) under `custom_weights`, in member order.
    /// Valid when `customized`.
    pub custom_rss_dbm: Vec<f64>,
    /// Joint-sweep scratch.
    tmp: Vec<f64>,
}

impl GroupBeam {
    /// Per-member RSS (dBm) under the chosen beam.
    pub fn member_rss_dbm(&self) -> &[f64] {
        if self.customized {
            &self.custom_rss_dbm
        } else {
            &self.sector_rss_dbm
        }
    }

    /// The group's common RSS under the chosen beam: the minimum across
    /// members.
    pub fn common_rss_dbm(&self) -> f64 {
        min_dbm(self.member_rss_dbm())
    }

    /// The common RSS the best default codebook sector alone achieves.
    pub fn sector_common_rss_dbm(&self) -> f64 {
        min_dbm(&self.sector_rss_dbm)
    }
}

/// Per-receiver sweep state: flattened prepared paths, per-sector upper
/// bounds, and a lazily-filled exact-RSS cache. One instance per
/// `(AP, user)` pair, reused across epochs — `prepare` only rewrites
/// contents, so steady-state reuse allocates nothing.
#[derive(Debug, Default)]
pub struct SweepRx {
    n_paths: usize,
    /// Path steering vectors, row-major `n_paths × elements`.
    steer: Vec<Complex>,
    /// Per-path total loss (dB).
    loss_db: Vec<f64>,
    /// Per-path element-pattern factor.
    element: Vec<f64>,
    /// Per-path `dbm_to_mw(TX + RX - loss)`, scaled up by a margin: the
    /// linear power the path would deliver at unit gain.
    c_mw: Vec<f64>,
    /// Per-path sin/cos of `ψ`-halves:
    /// `[sin ax, cos ax, sin axn, cos axn, sin ay, cos ay, sin ayn, cos ayn]`.
    ptrig: Vec<[f64; 8]>,
    /// Scratch for path enumeration.
    paths_tmp: Vec<Path>,
    /// Per-sector RSS upper bound in linear mW, margins folded in.
    bounds: Vec<f64>,
    /// Per-sector exact RSS cache (dBm); `NaN` = not yet evaluated. Real
    /// RSS values are never `NaN` (they can be `-∞`), so `NaN` is a safe
    /// sentinel.
    cache: Vec<f64>,
    /// Cached [`SweepEngine::best_sector`] result.
    best: Option<(usize, f64)>,
}

impl SweepRx {
    /// A fresh, empty receiver slot.
    pub fn new() -> Self {
        SweepRx::default()
    }

    /// (Re)prepares the receiver at `pos` with the given blockers:
    /// enumerates paths, caches their steering rows and trig tables, and
    /// computes every sector's RSS upper bound. Clears the exact cache.
    pub fn prepare(&mut self, engine: &SweepEngine, pos: Vec3, blockers: &[Blocker]) {
        let channel = engine.channel;
        let array = &channel.array;
        channel.paths_into(pos, &mut self.paths_tmp);
        self.n_paths = 0;
        self.steer.clear();
        self.loss_db.clear();
        self.element.clear();
        self.c_mw.clear();
        self.ptrig.clear();
        let paths = std::mem::take(&mut self.paths_tmp);
        for path in &paths {
            // Same filter and order as `Channel::prepare_rx_paths`.
            let Some(dir) = array.local_direction(path.via - array.position) else {
                continue;
            };
            let loss_db = channel.path_loss_db(path, pos, blockers);
            array.steering_into(dir, &mut self.steer);
            self.loss_db.push(loss_db);
            self.element.push(element_pattern(dir));
            self.c_mw.push(
                calib::dbm_to_mw(calib::TX_POWER_DBM + calib::RX_GAIN_DBI - loss_db) * (1.0 + 1e-9),
            );
            let u = dir.azimuth.sin() * dir.elevation.cos();
            let v = dir.elevation.sin();
            let (sin_ax, cos_ax) = (engine.half_kd * u).sin_cos();
            let (sin_axn, cos_axn) = (engine.nxf * engine.half_kd * u).sin_cos();
            let (sin_ay, cos_ay) = (engine.half_kd * v).sin_cos();
            let (sin_ayn, cos_ayn) = (engine.nyf * engine.half_kd * v).sin_cos();
            self.ptrig.push([
                sin_ax, cos_ax, sin_axn, cos_axn, sin_ay, cos_ay, sin_ayn, cos_ayn,
            ]);
            self.n_paths += 1;
        }
        self.paths_tmp = paths;

        let nsec = engine.codebook.sectors.len();
        self.cache.clear();
        self.cache.resize(nsec, f64::NAN);
        self.best = None;
        self.bounds.clear();
        if engine.sectors.is_empty() {
            // Exact-only fallback: nothing prunes.
            self.bounds.resize(nsec, f64::INFINITY);
            return;
        }
        for st in &engine.sectors {
            let mut sum = 0.0f64;
            for (p, t) in self.ptrig.iter().enumerate() {
                // sin(a - b) = sin a · cos b - cos a · sin b, per axis, for
                // both the denominator (ψ) and numerator (n·ψ) angles.
                let dx_den = (t[0] * st.cos_bx - t[1] * st.sin_bx).abs();
                let dx = if dx_den < 1e-9 {
                    engine.nxf
                } else {
                    let dx_num = (t[2] * st.cos_bxn - t[3] * st.sin_bxn).abs();
                    (dx_num / dx_den).min(engine.nxf)
                };
                let dy_den = (t[4] * st.cos_by - t[5] * st.sin_by).abs();
                let dy = if dy_den < 1e-9 {
                    engine.nyf
                } else {
                    let dy_num = (t[6] * st.cos_byn - t[7] * st.sin_byn).abs();
                    (dy_num / dy_den).min(engine.nyf)
                };
                // Amplitude bound with a relative margin for the Dirichlet
                // identity's own rounding and an absolute margin for the
                // catastrophic-cancellation regime near ψ ≈ 0 (den cut off
                // at 1e-9, so absolute trig error can reach ~1e-7 on the
                // quotient — 1e-5 dominates it with room to spare).
                let amp = st.s_rt * dx * dy * (1.0 + 1e-6) + 1e-5;
                sum += self.c_mw[p] * amp * amp * self.element[p] * (1.0 + 1e-6);
            }
            self.bounds.push(sum * (1.0 + 1e-9));
        }
    }

    /// Exact RSS (dBm) of an arbitrary weight vector against the prepared
    /// paths — the same float program as [`PreparedRx::rss_dbm`], operation
    /// for operation.
    ///
    /// [`PreparedRx::rss_dbm`]: crate::PreparedRx::rss_dbm
    pub fn eval_weights(&self, weights: &[Complex]) -> f64 {
        let ne = weights.len();
        let mut total_mw = 0.0f64;
        for p in 0..self.n_paths {
            let row = &self.steer[p * ne..(p + 1) * ne];
            let mut acc = Complex::ZERO;
            for (wi, ai) in weights.iter().zip(row) {
                acc += *wi * *ai;
            }
            let gain = acc.norm_sq() * self.element[p];
            if gain <= 0.0 {
                continue;
            }
            let rx_dbm =
                calib::TX_POWER_DBM + 10.0 * gain.log10() + calib::RX_GAIN_DBI - self.loss_db[p];
            total_mw += calib::dbm_to_mw(rx_dbm);
        }
        calib::mw_to_dbm(total_mw)
    }

    /// Exact RSS of codebook sector `s`, memoized per prepare.
    pub fn eval_sector(&mut self, engine: &SweepEngine, s: usize) -> f64 {
        let v = self.cache[s];
        if !v.is_nan() {
            return v;
        }
        let v = self.eval_weights(&engine.codebook.sectors[s].w);
        self.cache[s] = v;
        v
    }

    /// The cached [`SweepEngine::best_sector`] result, if one was computed
    /// since the last `prepare`.
    pub fn cached_best(&self) -> Option<(usize, f64)> {
        self.best
    }

    /// Number of usable paths found by the last `prepare`.
    pub fn n_paths(&self) -> usize {
        self.n_paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::AntennaWeights;
    use crate::channel::Room;
    use crate::multilobe::oracle::MultiLobeDesigner;
    use crate::PlanarArray;
    use volcast_util::rng::Rng;

    fn setups() -> Vec<Channel> {
        let mut reflective = Channel::default_setup();
        reflective.room.floor_reflection = true;
        let campus_like = Channel {
            room: Room {
                width: 12.0,
                depth: 9.0,
                height: 3.2,
                floor_reflection: false,
            },
            array: PlanarArray::airfide(
                volcast_geom::Vec3::new(-3.0, 2.9, 4.3),
                volcast_geom::Vec3::new(0.3, -0.45, -1.0),
            ),
        };
        vec![Channel::default_setup(), reflective, campus_like]
    }

    fn random_positions(channel: &Channel, rng: &mut Rng, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    (rng.gen_range(0.0..1.0) - 0.5) * channel.room.width * 0.95,
                    0.4 + rng.gen_range(0.0..1.0) * (channel.room.height - 0.6),
                    (rng.gen_range(0.0..1.0) - 0.5) * channel.room.depth * 0.95,
                )
            })
            .collect()
    }

    #[test]
    fn singleton_sweep_is_bit_identical() {
        for (ci, channel) in setups().into_iter().enumerate() {
            let codebook = Codebook::default_for(&channel.array);
            let designer = MultiLobeDesigner::new(&channel, &codebook);
            let engine = SweepEngine::new(&channel, &codebook);
            assert!(
                !engine.sectors.is_empty(),
                "setup {ci} should be structured"
            );
            let mut rng = Rng::seed_from_u64(0xC0FFEE + ci as u64);
            let mut rx = SweepRx::new();
            let mut pruned = 0usize;
            for pos in random_positions(&channel, &mut rng, 80) {
                let (want_idx, want_rss) = designer.best_common_sector(&[pos], &[]);
                rx.prepare(&engine, pos, &[]);
                let (got_idx, got_dbm) = engine.best_sector(&mut rx);
                assert_eq!(got_idx, want_idx, "sector index diverged at {pos:?}");
                assert_eq!(
                    got_dbm.to_bits(),
                    want_rss[0].to_bits(),
                    "RSS diverged at {pos:?}: {got_dbm} vs {}",
                    want_rss[0]
                );
                pruned += rx.cache.iter().filter(|v| v.is_nan()).count();
            }
            // The bound must actually prune (wildly so) or the engine is
            // pointless; ~80 sweeps x 48 sectors gives plenty of room.
            assert!(pruned > 80 * 24, "only {pruned} sector evals pruned");
        }
    }

    #[test]
    fn singleton_sweep_matches_with_blockers() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let designer = MultiLobeDesigner::new(&channel, &codebook);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(7);
        let mut rx = SweepRx::new();
        for pos in random_positions(&channel, &mut rng, 40) {
            let blockers = vec![
                Blocker {
                    center: Vec3::new(
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                        0.0,
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                    ),
                    radius: 0.25,
                    height: 1.8,
                },
                Blocker {
                    center: Vec3::new(
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                        0.0,
                        (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                    ),
                    radius: 0.3,
                    height: 1.7,
                },
            ];
            let (want_idx, want_rss) = designer.best_common_sector(&[pos], &blockers);
            rx.prepare(&engine, pos, &blockers);
            let (got_idx, got_dbm) = engine.best_sector(&mut rx);
            assert_eq!(got_idx, want_idx);
            assert_eq!(got_dbm.to_bits(), want_rss[0].to_bits());
        }
    }

    fn prepared(engine: &SweepEngine, positions: &[Vec3], blockers: &[Blocker]) -> Vec<SweepRx> {
        positions
            .iter()
            .map(|&p| {
                let mut rx = SweepRx::new();
                rx.prepare(engine, p, blockers);
                rx
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: {g} vs {w}");
        }
    }

    /// Person blockers the way the session builds them: every member's
    /// own body plus two walkers. A receiver's own cylinder is skipped by
    /// the channel's endpoint guard, so only the others block.
    fn person_blockers(rng: &mut Rng, members: &[Vec3]) -> Vec<Blocker> {
        let mut blockers: Vec<Blocker> = members.iter().map(|&p| Blocker::person(p)).collect();
        for _ in 0..2 {
            blockers.push(Blocker::person(Vec3::new(
                (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
                1.5,
                (rng.gen_range(0.0..1.0) - 0.5) * 6.0,
            )));
        }
        blockers
    }

    /// Member sets in the session's regime: random groups plus groups
    /// lined up away from the AP, so nearer members shadow farther ones.
    fn session_like_groups(channel: &Channel, rng: &mut Rng) -> Vec<Vec<Vec3>> {
        let mut groups = Vec::new();
        for size in [1usize, 2, 3, 5, 8] {
            groups.push(random_positions(channel, rng, size));
        }
        for x in [-1.5, 0.0, 1.0] {
            groups.push(vec![
                Vec3::new(x, 1.6, 0.5),
                Vec3::new(x + 0.1, 1.2, -0.5),
                Vec3::new(x - 0.1, 1.0, -2.5),
            ]);
        }
        groups
    }

    #[test]
    fn joint_sweep_is_bit_identical() {
        for (ci, channel) in setups().into_iter().enumerate() {
            let codebook = Codebook::default_for(&channel.array);
            let designer = MultiLobeDesigner::new(&channel, &codebook);
            let engine = SweepEngine::new(&channel, &codebook);
            let mut rng = Rng::seed_from_u64(0xBEEF + ci as u64);
            let mut tmp = Vec::new();
            let mut rss = Vec::new();
            for group_size in [1usize, 2, 3, 5, 8] {
                let positions = random_positions(&channel, &mut rng, group_size);
                let (want_idx, want_rss) = designer.best_common_sector(&positions, &[]);
                let mut rxs = prepared(&engine, &positions, &[]);
                let members: Vec<usize> = (0..group_size).collect();
                let got_idx = engine.best_joint(&mut rxs, &members, &mut tmp, &mut rss);
                assert_eq!(got_idx, want_idx, "group {group_size} in setup {ci}");
                assert_bits_eq(&rss, &want_rss, "joint RSS");
            }
        }
    }

    #[test]
    fn joint_sweep_matches_with_person_blockers() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let designer = MultiLobeDesigner::new(&channel, &codebook);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(0x5E55);
        let (mut tmp, mut rss) = (Vec::new(), Vec::new());
        let mut shadowed = 0usize;
        for positions in session_like_groups(&channel, &mut rng) {
            let blockers = person_blockers(&mut rng, &positions);
            let (want_idx, want_rss) = designer.best_common_sector(&positions, &blockers);
            let mut rxs = prepared(&engine, &positions, &blockers);
            let members: Vec<usize> = (0..positions.len()).collect();
            let got_idx = engine.best_joint(&mut rxs, &members, &mut tmp, &mut rss);
            assert_eq!(got_idx, want_idx, "group {positions:?}");
            assert_bits_eq(&rss, &want_rss, "joint RSS with blockers");
            let (_, clear) = designer.best_common_sector(&positions, &[]);
            shadowed += usize::from(clear != want_rss);
        }
        assert!(
            shadowed > 0,
            "no group was shadowed; the blockers test nothing"
        );
    }

    #[test]
    fn design_matches_oracle_with_person_blockers() {
        for (ci, channel) in setups().into_iter().enumerate() {
            let codebook = Codebook::default_for(&channel.array);
            let designer = MultiLobeDesigner::new(&channel, &codebook);
            let engine = SweepEngine::new(&channel, &codebook);
            let mut rng = Rng::seed_from_u64(0xD351 + ci as u64);
            // One beam reused across every design, as the session does.
            let mut beam = GroupBeam::default();
            let mut customized = 0usize;
            for positions in session_like_groups(&channel, &mut rng) {
                for blockers in [Vec::new(), person_blockers(&mut rng, &positions)] {
                    let want = designer.design(&positions, &blockers);
                    let (want_sector, want_sector_rss) =
                        designer.best_common_sector(&positions, &blockers);
                    let mut rxs = prepared(&engine, &positions, &blockers);
                    let members: Vec<usize> = (0..positions.len()).collect();
                    engine.design_into(&mut rxs, &members, true, &mut beam);
                    assert_eq!(beam.customized, want.customized, "{positions:?}");
                    assert_eq!(beam.sector, want_sector);
                    assert_bits_eq(&beam.sector_rss_dbm, &want_sector_rss, "sector RSS");
                    assert_bits_eq(beam.member_rss_dbm(), &want.member_rss_dbm, "member RSS");
                    assert_eq!(
                        beam.common_rss_dbm().to_bits(),
                        want.common_rss_dbm().to_bits()
                    );
                    let weights = if beam.customized {
                        &beam.custom_weights[..]
                    } else {
                        &codebook.sectors[beam.sector].w[..]
                    };
                    assert_eq!(weights, &want.weights.w[..]);
                    customized += usize::from(beam.customized);

                    // Default-only designs stop at the common sector.
                    engine.design_into(&mut rxs, &members, false, &mut beam);
                    assert!(!beam.customized);
                    assert_bits_eq(beam.member_rss_dbm(), &want_sector_rss, "default-only");
                }
            }
            assert!(
                customized > 0,
                "setup {ci}: no design chose the custom beam"
            );
        }
    }

    #[test]
    fn two_lobes_beat_single_sector_for_spread_users() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        // Users on opposite sides of the room: far apart in azimuth.
        let beam = engine.design(&[Vec3::new(-2.5, 1.5, 0.0), Vec3::new(2.5, 1.5, 0.0)], &[]);
        assert!(
            beam.customized,
            "spread users should trigger the custom beam"
        );
        assert_eq!(beam.member_rss_dbm().len(), 2);
        assert!(
            beam.common_rss_dbm() > beam.sector_common_rss_dbm() + 3.0,
            "custom {} dBm vs default {} dBm",
            beam.common_rss_dbm(),
            beam.sector_common_rss_dbm()
        );
    }

    #[test]
    fn colocated_users_share_a_strong_sector() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        // Two users standing shoulder to shoulder: one sector covers both.
        let beam = engine.design(&[Vec3::new(0.0, 1.5, 0.0), Vec3::new(0.25, 1.5, 0.0)], &[]);
        assert!(beam.common_rss_dbm() > -60.0);
    }

    #[test]
    fn single_user_design_uses_codebook() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let beam = engine.design(&[Vec3::new(1.0, 1.5, 0.0)], &[]);
        assert!(!beam.customized);
        assert_eq!(beam.member_rss_dbm().len(), 1);
    }

    #[test]
    fn design_never_worse_than_default() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        for users in [
            vec![Vec3::new(-1.0, 1.5, 1.0), Vec3::new(2.0, 1.3, -2.0)],
            vec![
                Vec3::new(-2.0, 1.5, 0.0),
                Vec3::new(0.0, 1.5, -2.0),
                Vec3::new(2.0, 1.5, 0.0),
            ],
        ] {
            let beam = engine.design(&users, &[]);
            assert!(beam.common_rss_dbm() >= beam.sector_common_rss_dbm());
        }
    }

    #[test]
    #[should_panic]
    fn empty_group_panics() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let _ = SweepEngine::new(&channel, &codebook).design(&[], &[]);
    }

    #[test]
    fn combine_matches_custom_beam() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let designer = MultiLobeDesigner::new(&channel, &codebook);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rng = Rng::seed_from_u64(99);
        let mut acc = Vec::new();
        for group_size in [2usize, 3, 4] {
            let positions = random_positions(&channel, &mut rng, group_size);
            let want = designer.custom_beam(&positions, &[]);
            let mut rxs = prepared(&engine, &positions, &[]);
            let members: Vec<usize> = (0..group_size).collect();
            engine.combine_into(&mut rxs, &members, &mut acc);
            assert_eq!(acc.len(), want.w.len());
            for (g, w) in acc.iter().zip(&want.w) {
                assert_eq!(g.re.to_bits(), w.re.to_bits());
                assert_eq!(g.im.to_bits(), w.im.to_bits());
            }
            // The custom beam evaluated through the sweep state matches the
            // prepared-receiver evaluation bit for bit.
            for (i, &p) in positions.iter().enumerate() {
                let direct = channel.prepare_rx(p, &[]).rss_dbm(&want);
                let via_sweep = rxs[i].eval_weights(&acc);
                assert_eq!(via_sweep.to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn unstructured_codebook_falls_back_to_exact() {
        let channel = Channel::default_setup();
        let mut codebook = Codebook::default_for(&channel.array);
        // Break the DFT structure: zero out one sector.
        let n = codebook.sectors[5].w.len();
        codebook.sectors[5] = AntennaWeights {
            w: vec![Complex::ZERO; n],
        };
        let designer = MultiLobeDesigner::new(&channel, &codebook);
        let engine = SweepEngine::new(&channel, &codebook);
        assert!(engine.sectors.is_empty(), "should detect the mismatch");
        let mut rng = Rng::seed_from_u64(3);
        let mut rx = SweepRx::new();
        for pos in random_positions(&channel, &mut rng, 20) {
            let (want_idx, want_rss) = designer.best_common_sector(&[pos], &[]);
            rx.prepare(&engine, pos, &[]);
            let (got_idx, got_dbm) = engine.best_sector(&mut rx);
            assert_eq!(got_idx, want_idx);
            assert_eq!(got_dbm.to_bits(), want_rss[0].to_bits());
        }
    }

    #[test]
    fn prepare_reuses_buffers() {
        let channel = Channel::default_setup();
        let codebook = Codebook::default_for(&channel.array);
        let engine = SweepEngine::new(&channel, &codebook);
        let mut rx = SweepRx::new();
        rx.prepare(&engine, Vec3::new(1.0, 1.5, -1.0), &[]);
        let _ = engine.best_sector(&mut rx);
        let caps = (
            rx.steer.capacity(),
            rx.bounds.capacity(),
            rx.cache.capacity(),
            rx.ptrig.capacity(),
            rx.paths_tmp.capacity(),
        );
        for i in 0..10 {
            let pos = Vec3::new(-2.0 + 0.4 * i as f64, 1.2, 2.0 - 0.3 * i as f64);
            rx.prepare(&engine, pos, &[]);
            let _ = engine.best_sector(&mut rx);
        }
        assert_eq!(
            caps,
            (
                rx.steer.capacity(),
                rx.bounds.capacity(),
                rx.cache.capacity(),
                rx.ptrig.capacity(),
                rx.paths_tmp.capacity(),
            ),
            "steady-state prepare must not reallocate"
        );
    }
}
