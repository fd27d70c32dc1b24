//! Multi-AP coordination (§5 open challenge, realized).
//!
//! With multiple mmWave APs in the room, directionality allows concurrent
//! transmissions: each AP serves a different multicast group with spatial
//! reuse. The coordinator assigns users to APs balancing (a) link quality
//! (each user goes to an AP that can reach them well) and (b) viewport
//! similarity (keeping similar viewers on the same AP preserves multicast
//! gain), then checks inter-AP interference for the chosen beams.

use volcast_geom::Vec3;
use volcast_mmwave::{GroupBeam, SweepEngine, SweepRx};
use volcast_viewport::{iou, VisibilityMap};

/// Scratch-backed multi-AP coordinator: user-to-AP association, per-AP
/// group-beam design through the pruned [`SweepEngine`], and the inter-AP
/// interference margin. Every buffer is reused across calls, so
/// steady-state calls allocate nothing (the campus epoch loop relies on
/// this).
#[derive(Debug, Default)]
pub struct EpochCoordinator {
    /// `user_ap[user]` = the index of the AP serving that user.
    pub user_ap: Vec<usize>,
    /// Best-sector RSS (dBm) of each user at its assigned AP — the link
    /// budget the per-user unicast leg sees before group-beam design.
    pub user_rss_dbm: Vec<f64>,
    /// Worst-case inter-AP interference margin in dB: desired RSS minus
    /// the strongest cross-AP leakage at any victim user. Positive and
    /// large = clean spatial reuse; `+∞` with fewer than two active APs.
    pub min_interference_margin_db: f64,
    /// Prepared receivers, AP-major: `rxs[a * n_users + u]`.
    rxs: Vec<SweepRx>,
    /// Best-sector RSS matrix, AP-major flattened.
    rss: Vec<f64>,
    /// Per-AP member lists: attach order during association, ascending
    /// user index afterwards.
    ap_users: Vec<Vec<usize>>,
    /// Seeded users, one per AP in AP order (similarity term only).
    seeds: Vec<usize>,
    /// Per-AP designed group beams; valid where `ap_users` is non-empty.
    beams: Vec<GroupBeam>,
}

impl EpochCoordinator {
    /// Creates an empty coordinator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-derives the full assignment for one epoch: per-(AP, user)
    /// best-sector RSS, greedy association, per-AP group-beam design, and
    /// the inter-AP interference margin. `engines[a]` sweeps AP `a`.
    ///
    /// Association is greedy: seed each AP with its best-scoring
    /// unassigned user, then attach every remaining user to the AP
    /// maximizing `(1-w)·rss_norm + w·sim`, where `w` is
    /// `similarity_weight` and `sim` is the mean viewport IoU with the
    /// AP's users so far (`1 - IoU` with the earlier seeds while seeding,
    /// so seeds are dissimilar viewers). `maps` holds one visibility map
    /// per user; with `w = 0.0` (pure link quality, as campus runs) it may
    /// be empty and no IoU is computed.
    pub fn assign(
        &mut self,
        engines: &[SweepEngine<'_>],
        positions: &[Vec3],
        maps: &[VisibilityMap],
        similarity_weight: f64,
    ) {
        let n_aps = engines.len();
        let n_users = positions.len();
        let w = similarity_weight;
        assert!(
            w == 0.0 || maps.len() == n_users,
            "the similarity term needs one visibility map per user"
        );
        if self.ap_users.len() < n_aps {
            self.ap_users.resize_with(n_aps, Vec::new);
            self.beams.resize_with(n_aps, GroupBeam::default);
        }
        let need = n_aps * n_users;
        if self.rxs.len() < need {
            self.rxs.resize_with(need, SweepRx::default);
        }
        self.rss.clear();
        self.user_ap.clear();
        self.user_ap.resize(n_users, usize::MAX);
        self.user_rss_dbm.clear();
        self.seeds.clear();
        for list in &mut self.ap_users {
            list.clear();
        }
        self.min_interference_margin_db = f64::INFINITY;
        if n_users == 0 {
            return;
        }

        // Per (ap, user) best-sector RSS via the pruned sweep, AP-major.
        for (a, engine) in engines.iter().enumerate() {
            for (u, &pos) in positions.iter().enumerate() {
                let rx = &mut self.rxs[a * n_users + u];
                rx.prepare(engine, pos, &[]);
                let (_, r) = engine.best_sector(rx);
                self.rss.push(r);
            }
        }
        let (lo, hi) = self
            .rss
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        let span = (hi - lo).max(1e-9);
        // With w = 0 the similarity term is skipped and passed as 0.0:
        // `w·0.0` adds a signed zero that never flips a comparison, so the
        // score orders users exactly as normalized RSS does.
        let score = |rss: &[f64], a: usize, u: usize, sim: f64| {
            (1.0 - w) * ((rss[a * n_users + u] - lo) / span) + w * sim
        };
        let mean_iou = |u: usize, others: &[usize]| {
            others.iter().map(|&v| iou(&maps[u], &maps[v])).sum::<f64>() / others.len() as f64
        };
        // Both argmaxes keep the LAST maximal candidate on ties (the
        // `Iterator::max_by` rule): replace unless the candidate compares
        // Less. A NaN score panics rather than ordering arbitrarily.
        let beats =
            |score: f64, best: f64| score.partial_cmp(&best).unwrap() != std::cmp::Ordering::Less;
        for a in 0..n_aps {
            let mut best: Option<(usize, f64)> = None;
            for u in 0..n_users {
                if self.user_ap[u] != usize::MAX {
                    continue;
                }
                let dissim = match (w == 0.0, self.seeds.is_empty()) {
                    (true, _) => 0.0,
                    (false, true) => 0.5,
                    (false, false) => 1.0 - mean_iou(u, &self.seeds),
                };
                let s = score(&self.rss, a, u, dissim);
                if best.is_none_or(|(_, bs)| beats(s, bs)) {
                    best = Some((u, s));
                }
            }
            if let Some((u, _)) = best {
                self.user_ap[u] = a;
                self.ap_users[a].push(u);
                self.seeds.push(u);
            }
        }
        for u in 0..n_users {
            if self.user_ap[u] != usize::MAX {
                continue;
            }
            let mut best = (0usize, f64::NAN);
            for a in 0..n_aps {
                let members = &self.ap_users[a];
                let sim = match (w == 0.0, members.is_empty()) {
                    (true, _) => 0.0,
                    (false, true) => 0.5,
                    (false, false) => mean_iou(u, members),
                };
                let s = score(&self.rss, a, u, sim);
                if a == 0 || beats(s, best.1) {
                    best = (a, s);
                }
            }
            self.user_ap[u] = best.0;
            self.ap_users[best.0].push(u);
        }
        for u in 0..n_users {
            self.user_rss_dbm
                .push(self.rss[self.user_ap[u] * n_users + u]);
        }

        // --- Per-AP group beams over ascending member lists. ---
        for list in &mut self.ap_users {
            list.clear();
        }
        for (u, &a) in self.user_ap.iter().enumerate() {
            self.ap_users[a].push(u);
        }
        for (a, engine) in engines.iter().enumerate() {
            let members = &self.ap_users[a];
            if !members.is_empty() {
                let row = &mut self.rxs[a * n_users..(a + 1) * n_users];
                engine.design_into(row, members, true, &mut self.beams[a]);
            }
        }

        // Interference margin: victim APs ascending, members ascending,
        // aggressor APs ascending. Leakage re-uses the already-prepared
        // receivers — a memoized sector eval for default beams, a direct
        // weight eval for custom ones.
        let mut min_margin = f64::INFINITY;
        for a in 0..n_aps {
            for (idx, &victim) in self.ap_users[a].iter().enumerate() {
                let desired = self.beams[a].member_rss_dbm()[idx];
                for (b, engine) in engines.iter().enumerate() {
                    if a == b || self.ap_users[b].is_empty() {
                        continue;
                    }
                    let rx = &mut self.rxs[b * n_users + victim];
                    let beam = &self.beams[b];
                    let leak = if beam.customized {
                        rx.eval_weights(&beam.custom_weights)
                    } else {
                        rx.eval_sector(engine, beam.sector)
                    };
                    min_margin = min_margin.min(desired - leak);
                }
            }
        }
        if !min_margin.is_finite() {
            min_margin = f64::INFINITY;
        }
        self.min_interference_margin_db = min_margin;
    }

    /// Common RSS (dBm) of AP `ap`'s designed group beam after the last
    /// [`EpochCoordinator::assign`]; `None` if the AP serves nobody.
    pub fn ap_common_rss_dbm(&self, ap: usize) -> Option<f64> {
        let members = self.ap_users.get(ap)?;
        (!members.is_empty()).then(|| self.beams[ap].common_rss_dbm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcast_mmwave::{Channel, Codebook, PlanarArray, Room};
    use volcast_pointcloud::CellId;
    use volcast_util::rng::Rng;

    fn two_ap_setup() -> (Channel, Channel) {
        let room = Room::default();
        // APs on opposite walls.
        let ap1 = PlanarArray::airfide(
            Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1),
            Vec3::new(0.0, 1.3, 0.0) - Vec3::new(0.0, 2.6, room.depth / 2.0 - 0.1),
        );
        let ap2 = PlanarArray::airfide(
            Vec3::new(0.0, 2.6, -room.depth / 2.0 + 0.1),
            Vec3::new(0.0, 1.3, 0.0) - Vec3::new(0.0, 2.6, -room.depth / 2.0 + 0.1),
        );
        (Channel::new(room, ap1), Channel::new(room, ap2))
    }

    fn map_of(ids: &[i32]) -> VisibilityMap {
        let mut m = VisibilityMap::new();
        for &x in ids {
            m.cells.insert(CellId::new(x, 0, 0), 1.0);
        }
        m
    }

    /// The original allocating greedy coordinator, kept as the oracle for
    /// [`EpochCoordinator`]: the association written with
    /// `Iterator::max_by`, per-AP beams from fresh one-shot designs, and
    /// leakage from full channel evaluations. (The design itself is
    /// checked against the exhaustive designer in `volcast-mmwave`.)
    struct Oracle {
        user_ap: Vec<usize>,
        user_rss_dbm: Vec<f64>,
        ap_common_rss_dbm: Vec<Option<f64>>,
        min_interference_margin_db: f64,
    }

    // Kept in the original's index-loop form.
    #[allow(clippy::needless_range_loop)]
    fn oracle_assign(
        channels: &[&Channel],
        codebooks: &[&Codebook],
        w: f64,
        positions: &[Vec3],
        maps: &[VisibilityMap],
    ) -> Oracle {
        let n_users = positions.len();
        let n_aps = channels.len();
        // Per (ap, user) best-sector RSS by exhaustive scan.
        let rss: Vec<Vec<f64>> = (0..n_aps)
            .map(|a| {
                positions
                    .iter()
                    .map(|&p| {
                        codebooks[a]
                            .sectors
                            .iter()
                            .map(|s| channels[a].rss_dbm(s, p, &[]))
                            .fold(f64::NEG_INFINITY, f64::max)
                    })
                    .collect()
            })
            .collect();
        let (lo, hi) = rss
            .iter()
            .flatten()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
                (lo.min(r), hi.max(r))
            });
        let span = (hi - lo).max(1e-9);
        let rss_norm = |a: usize, u: usize| (rss[a][u] - lo) / span;

        let mut user_ap = vec![usize::MAX; n_users];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_aps];
        let mut seeds: Vec<usize> = Vec::new();
        for a in 0..n_aps {
            let candidate = (0..n_users)
                .filter(|&u| user_ap[u] == usize::MAX)
                .max_by(|&x, &y| {
                    let score = |u: usize| {
                        let dissim = if seeds.is_empty() {
                            0.5
                        } else {
                            1.0 - seeds.iter().map(|&s| iou(&maps[u], &maps[s])).sum::<f64>()
                                / seeds.len() as f64
                        };
                        (1.0 - w) * rss_norm(a, u) + w * dissim
                    };
                    score(x).partial_cmp(&score(y)).unwrap()
                });
            if let Some(u) = candidate {
                user_ap[u] = a;
                members[a].push(u);
                seeds.push(u);
            }
        }
        for u in 0..n_users {
            if user_ap[u] != usize::MAX {
                continue;
            }
            let best_ap = (0..n_aps)
                .max_by(|&x, &y| {
                    let score = |a: usize| {
                        let sim = if members[a].is_empty() {
                            0.5
                        } else {
                            members[a]
                                .iter()
                                .map(|&m| iou(&maps[u], &maps[m]))
                                .sum::<f64>()
                                / members[a].len() as f64
                        };
                        (1.0 - w) * rss_norm(a, u) + w * sim
                    };
                    score(x).partial_cmp(&score(y)).unwrap()
                })
                .unwrap();
            user_ap[u] = best_ap;
            members[best_ap].push(u);
        }
        let user_rss_dbm = (0..n_users).map(|u| rss[user_ap[u]][u]).collect();

        let beams: Vec<Option<(GroupBeam, Vec<Vec3>)>> = (0..n_aps)
            .map(|a| {
                let users: Vec<Vec3> = (0..n_users)
                    .filter(|&u| user_ap[u] == a)
                    .map(|u| positions[u])
                    .collect();
                (!users.is_empty()).then(|| {
                    let engine = SweepEngine::new(channels[a], codebooks[a]);
                    (engine.design(&users, &[]), users)
                })
            })
            .collect();
        let mut min_margin = f64::INFINITY;
        for a in 0..n_aps {
            let Some((beam_a, users_a)) = &beams[a] else {
                continue;
            };
            for (idx, &victim) in users_a.iter().enumerate() {
                let desired = beam_a.member_rss_dbm()[idx];
                for b in 0..n_aps {
                    let Some((beam_b, _)) = &beams[b] else {
                        continue;
                    };
                    if a == b {
                        continue;
                    }
                    let weights = if beam_b.customized {
                        volcast_mmwave::AntennaWeights {
                            w: beam_b.custom_weights.clone(),
                        }
                    } else {
                        codebooks[b].sectors[beam_b.sector].clone()
                    };
                    let leak = channels[b].rss_dbm(&weights, victim, &[]);
                    min_margin = min_margin.min(desired - leak);
                }
            }
        }
        Oracle {
            user_ap,
            user_rss_dbm,
            ap_common_rss_dbm: beams
                .iter()
                .map(|b| b.as_ref().map(|(beam, _)| beam.common_rss_dbm()))
                .collect(),
            min_interference_margin_db: if min_margin.is_finite() {
                min_margin
            } else {
                f64::INFINITY
            },
        }
    }

    #[test]
    fn users_go_to_nearer_ap() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        // Two users near the +z wall (AP1), two near -z (AP2).
        let positions = vec![
            Vec3::new(-1.0, 1.5, 2.5),
            Vec3::new(1.0, 1.5, 2.5),
            Vec3::new(-1.0, 1.5, -2.5),
            Vec3::new(1.0, 1.5, -2.5),
        ];
        let mut a = EpochCoordinator::new();
        a.assign(&engines, &positions, &[], 0.0); // pure link quality
        assert_eq!(a.user_ap[0], a.user_ap[1]);
        assert_eq!(a.user_ap[2], a.user_ap[3]);
        assert_ne!(a.user_ap[0], a.user_ap[2]);
        assert_eq!(a.user_rss_dbm.len(), 4);
        assert!(a.user_rss_dbm.iter().all(|r| r.is_finite() && *r < 0.0));
    }

    #[test]
    fn similarity_pulls_matching_viewports_together() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        // All users equidistant-ish from both APs (midline), pairs by map.
        let positions = vec![
            Vec3::new(-2.0, 1.5, 0.0),
            Vec3::new(2.0, 1.5, 0.0),
            Vec3::new(-2.0, 1.5, 0.2),
            Vec3::new(2.0, 1.5, 0.2),
        ];
        let maps = vec![
            map_of(&[0, 1]),
            map_of(&[5, 6]),
            map_of(&[0, 1]),
            map_of(&[5, 6]),
        ];
        let mut a = EpochCoordinator::new();
        a.assign(&engines, &positions, &maps, 0.95);
        // Users 0 and 2 (identical maps) must share an AP, likewise 1 & 3.
        assert_eq!(a.user_ap[0], a.user_ap[2]);
        assert_eq!(a.user_ap[1], a.user_ap[3]);
    }

    #[test]
    fn opposite_wall_aps_have_positive_margin() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        let positions = vec![Vec3::new(0.0, 1.5, 2.0), Vec3::new(0.0, 1.5, -2.0)];
        let maps = vec![map_of(&[0]), map_of(&[9])];
        let mut a = EpochCoordinator::new();
        a.assign(&engines, &positions, &maps, 0.4);
        assert!(
            a.min_interference_margin_db > 0.0,
            "margin {} dB",
            a.min_interference_margin_db
        );
        assert!((0..2).all(|ap| a.ap_common_rss_dbm(ap).is_some()));
        assert_eq!(a.ap_common_rss_dbm(2), None);
    }

    #[test]
    fn empty_user_list() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        let mut a = EpochCoordinator::new();
        a.assign(&engines, &[Vec3::new(0.0, 1.5, 2.0)], &[], 0.0);
        a.assign(&engines, &[], &[], 0.4);
        assert!(a.user_ap.is_empty());
        assert_eq!(a.min_interference_margin_db, f64::INFINITY);
        assert_eq!(a.ap_common_rss_dbm(0), None);
    }

    #[test]
    fn epoch_coordinator_matches_pure_rss_assign() {
        let (c1, c2) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let cb2 = Codebook::default_for(&c2.array);
        let engines = [SweepEngine::new(&c1, &cb1), SweepEngine::new(&c2, &cb2)];
        let mut epoch = EpochCoordinator::new();
        let room = Room::default();
        let mut rng = Rng::seed_from_u64(0xE90C);
        // Reuse one EpochCoordinator across all cases — also exercises
        // the buffer-reuse path (shrinking and growing populations) —
        // for pure link quality (campus: w = 0, no maps) and for the
        // similarity-weighted score (ext_multiap: w = 0.4, real maps).
        for &w in &[0.0, 0.4] {
            for &n in &[1usize, 2, 5, 16, 3, 40, 0, 7] {
                let positions: Vec<Vec3> = (0..n)
                    .map(|_| {
                        Vec3::new(
                            (rng.gen_range(0.0..1.0) - 0.5) * (room.width - 0.4),
                            0.8 + rng.gen_range(0.0..1.0) * 1.2,
                            (rng.gen_range(0.0..1.0) - 0.5) * (room.depth - 0.4),
                        )
                    })
                    .collect();
                let maps: Vec<VisibilityMap> = (0..n)
                    .map(|_| {
                        let base: i32 = rng.gen_range(0..6);
                        let width: i32 = 1 + rng.gen_range(0..4);
                        map_of(&(base..base + width).collect::<Vec<_>>())
                    })
                    .collect();
                let want = oracle_assign(&[&c1, &c2], &[&cb1, &cb2], w, &positions, &maps);
                let given: &[VisibilityMap] = if w == 0.0 { &[] } else { &maps };
                epoch.assign(&engines, &positions, given, w);
                assert_eq!(epoch.user_ap, want.user_ap, "w={w} n={n}");
                assert_eq!(epoch.user_rss_dbm.len(), want.user_rss_dbm.len());
                for (got, exp) in epoch.user_rss_dbm.iter().zip(&want.user_rss_dbm) {
                    assert_eq!(got.to_bits(), exp.to_bits(), "w={w} n={n}");
                }
                for (ap, exp) in want.ap_common_rss_dbm.iter().enumerate() {
                    assert_eq!(
                        epoch.ap_common_rss_dbm(ap).map(f64::to_bits),
                        exp.map(f64::to_bits),
                        "w={w} n={n} ap={ap}"
                    );
                }
                assert_eq!(
                    epoch.min_interference_margin_db.to_bits(),
                    want.min_interference_margin_db.to_bits(),
                    "w={w} n={n}"
                );
            }
        }
    }

    #[test]
    fn single_ap_has_no_interference() {
        let (c1, _) = two_ap_setup();
        let cb1 = Codebook::default_for(&c1.array);
        let engines = [SweepEngine::new(&c1, &cb1)];
        let positions = vec![Vec3::new(0.0, 1.5, 0.0), Vec3::new(1.0, 1.5, 0.0)];
        let maps = vec![map_of(&[0]), map_of(&[0])];
        let mut a = EpochCoordinator::new();
        a.assign(&engines, &positions, &maps, 0.4);
        assert!(a.user_ap.iter().all(|&ap| ap == 0));
        assert_eq!(a.min_interference_margin_db, f64::INFINITY);
    }
}
