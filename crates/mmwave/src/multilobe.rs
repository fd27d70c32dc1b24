//! Customized multi-lobe beam synthesis (§4.2 of the paper).
//!
//! Default single-lobe sectors cannot give high RSS to two spread-out
//! multicast members at once. The paper's design: combine the antenna
//! weight vectors of the individual users' beams, weighting each by the
//! *other* user's RSS so the weaker user gets the larger share of transmit
//! power, under a total-power constraint:
//!
//! ```text
//! w = (Δ2·w1 + Δ1·w2) / (Δ1 + Δ2)        (then power-normalized)
//! ```
//!
//! Only RSS values are needed — not full CSI — because the users have
//! independent receive chains (paper §4.2). The k-user generalization
//! weights each user's beam by the inverse of their RSS share.
//!
//! These functions are the reference form of the formula. The group-beam
//! design itself lives in [`crate::sweep`]: [`crate::SweepEngine`] runs
//! the same arithmetic in place over pruned sweeps. This module also holds
//! the exhaustive designer that the sweep is checked against, compiled
//! for tests only.

use crate::array::AntennaWeights;

/// The paper's two-user combination: `w = (Δ2·w1 + Δ1·w2)/(Δ1+Δ2)`,
/// normalized to unit transmit power. `rss1`/`rss2` are linear powers
/// (milliwatts), not dB.
pub fn combine_weights(
    w1: &AntennaWeights,
    rss1_mw: f64,
    w2: &AntennaWeights,
    rss2_mw: f64,
) -> AntennaWeights {
    combine_weights_multi(&[(w1.clone(), rss1_mw), (w2.clone(), rss2_mw)])
}

/// k-user generalization: coefficient of user i's beam is proportional to
/// `1/Δ_i` (weaker users get more power), normalized to unit total power.
///
/// For k = 2 this reduces exactly to the paper's formula up to the common
/// scale removed by normalization:
/// `c1 : c2 = 1/Δ1 : 1/Δ2 = Δ2 : Δ1`.
pub fn combine_weights_multi(beams: &[(AntennaWeights, f64)]) -> AntennaWeights {
    assert!(!beams.is_empty(), "need at least one beam");
    let n = beams[0].0.len();
    let mut acc = AntennaWeights {
        w: vec![volcast_geom::Complex::ZERO; n],
    };
    for (w, rss_mw) in beams {
        assert_eq!(w.len(), n, "mismatched element counts");
        let coeff = 1.0 / rss_mw.max(1e-15);
        for (a, b) in acc.w.iter_mut().zip(&w.w) {
            *a += b.scale(coeff);
        }
    }
    acc.normalized()
}

/// The exhaustive §4.2 designer, the oracle the pruned [`crate::sweep`]
/// engine must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::combine_weights_multi;
    use crate::calib::dbm_to_mw;
    use crate::{AntennaWeights, Blocker, Channel, Codebook, PreparedRx};
    use volcast_geom::Vec3;

    /// The exhaustive designer: every sector against every member, no pruning
    /// and no caching.
    pub(crate) struct MultiLobeDesigner<'a> {
        channel: &'a Channel,
        codebook: &'a Codebook,
    }

    /// The oracle's design: whichever of the best common sector and the
    /// multi-lobe combination gives the higher common RSS.
    pub(crate) struct OracleBeam {
        pub weights: AntennaWeights,
        pub member_rss_dbm: Vec<f64>,
        pub customized: bool,
    }

    impl OracleBeam {
        pub fn common_rss_dbm(&self) -> f64 {
            self.member_rss_dbm
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        }
    }

    impl<'a> MultiLobeDesigner<'a> {
        pub fn new(channel: &'a Channel, codebook: &'a Codebook) -> Self {
            MultiLobeDesigner { channel, codebook }
        }

        fn prepare(&self, members: &[Vec3], blockers: &[Blocker]) -> Vec<PreparedRx> {
            members
                .iter()
                .map(|&m| self.channel.prepare_rx(m, blockers))
                .collect()
        }

        /// Maximizes the minimum member RSS; the first-best sector wins ties.
        fn best_sector_prepared(&self, prepared: &[PreparedRx]) -> (usize, Vec<f64>) {
            let mut best_idx = 0usize;
            let mut best_min = f64::NEG_INFINITY;
            let mut best_rss = vec![f64::NEG_INFINITY; prepared.len()];
            for (i, sector) in self.codebook.sectors.iter().enumerate() {
                let rss: Vec<f64> = prepared.iter().map(|p| p.rss_dbm(sector)).collect();
                let min = rss.iter().copied().fold(f64::INFINITY, f64::min);
                if min > best_min {
                    best_min = min;
                    best_idx = i;
                    best_rss = rss;
                }
            }
            (best_idx, best_rss)
        }

        fn custom_beam_prepared(&self, prepared: &[PreparedRx]) -> AntennaWeights {
            let per_user: Vec<(AntennaWeights, f64)> = prepared
                .iter()
                .map(|p| {
                    let (idx, rss) = self.best_sector_prepared(std::slice::from_ref(p));
                    (self.codebook.sectors[idx].clone(), dbm_to_mw(rss[0]))
                })
                .collect();
            combine_weights_multi(&per_user)
        }

        /// Best default-codebook sector for the group and its per-member RSS.
        pub fn best_common_sector(
            &self,
            members: &[Vec3],
            blockers: &[Blocker],
        ) -> (usize, Vec<f64>) {
            self.best_sector_prepared(&self.prepare(members, blockers))
        }

        /// The multi-lobe combination of each member's individually-best sector.
        pub fn custom_beam(&self, members: &[Vec3], blockers: &[Blocker]) -> AntennaWeights {
            self.custom_beam_prepared(&self.prepare(members, blockers))
        }

        /// Full group beam design.
        pub fn design(&self, members: &[Vec3], blockers: &[Blocker]) -> OracleBeam {
            assert!(!members.is_empty());
            let prepared = self.prepare(members, blockers);
            let (idx, default_rss) = self.best_sector_prepared(&prepared);
            let default_min = default_rss.iter().copied().fold(f64::INFINITY, f64::min);
            let default = OracleBeam {
                weights: self.codebook.sectors[idx].clone(),
                member_rss_dbm: default_rss,
                customized: false,
            };
            if members.len() == 1 {
                return default;
            }
            let custom = self.custom_beam_prepared(&prepared);
            let custom_rss: Vec<f64> = prepared.iter().map(|p| p.rss_dbm(&custom)).collect();
            let custom_min = custom_rss.iter().copied().fold(f64::INFINITY, f64::min);
            if custom_min > default_min {
                OracleBeam {
                    weights: custom,
                    member_rss_dbm: custom_rss,
                    customized: true,
                }
            } else {
                default
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::PlanarArray;
    use volcast_geom::{Complex, Spherical, Vec3};

    #[test]
    fn combined_weights_have_unit_power() {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let w1 = array.beam_toward(Spherical::new(-0.5, 0.0));
        let w2 = array.beam_toward(Spherical::new(0.5, 0.0));
        let c = combine_weights(&w1, 1e-6, &w2, 2e-6);
        assert!((c.power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_user_formula_matches_paper() {
        // Manual check: with Δ1 = 1, Δ2 = 3 the coefficients must be in
        // ratio Δ2 : Δ1 = 3 : 1 before normalization.
        let w1 = AntennaWeights {
            w: vec![Complex::ONE, Complex::ZERO],
        };
        let w2 = AntennaWeights {
            w: vec![Complex::ZERO, Complex::ONE],
        };
        let c = combine_weights(&w1, 1.0, &w2, 3.0);
        let ratio = c.w[0].abs() / c.w[1].abs();
        assert!((ratio - 3.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn weaker_user_gets_more_power() {
        let array = PlanarArray::airfide(Vec3::ZERO, Vec3::FORWARD);
        let dir1 = Spherical::new(-0.6, 0.0);
        let dir2 = Spherical::new(0.6, 0.0);
        let w1 = array.beam_toward(dir1);
        let w2 = array.beam_toward(dir2);
        // User 1 is much weaker (RSS 10x lower).
        let c = combine_weights(&w1, 0.1e-6, &w2, 1e-6);
        let g1 = array.gain(&c, dir1);
        let g2 = array.gain(&c, dir2);
        assert!(
            g1 > g2,
            "weak user's lobe {g1} should exceed strong user's {g2}"
        );
    }
}
