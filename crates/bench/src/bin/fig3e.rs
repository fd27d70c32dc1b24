//! Fig. 3e: normalized throughput of unicast, multicast with default
//! beams, and multicast with customized beams, for two users.
//!
//! Workload per sample: a random frame and user pair from the traces.
//! Each user needs their visibility-culled cells (`S_1`, `S_2`); the
//! overlapped cells `S_m` can be multicast. Serving time:
//!
//! - unicast:               `S_1/r_1 + S_2/r_2`
//! - multicast (either):    `S_m/r_m + (S_1-S_m)/r_1 + (S_2-S_m)/r_2`
//!
//! where `r_m` is the min-member MCS rate under the default common sector
//! or the customized multi-lobe beam. Throughput = total delivered bytes /
//! serving time, normalized to unicast.
//!
//! Run: `cargo run --release -p volcast-bench --bin fig3e`

use volcast_bench::{mean, quantile, Context};
use volcast_mmwave::{McsTable, SweepEngine};
use volcast_pointcloud::{CellGrid, QualityLevel, SyntheticBody, VideoSequence};
use volcast_util::rng::Rng;
use volcast_viewport::{overlap_bytes, VisibilityComputer, VisibilityOptions};

fn main() {
    let frames = 300usize;
    let ctx = Context::standard(42, frames);
    let engine = SweepEngine::new(&ctx.channel, &ctx.codebook);
    let mcs = McsTable::dmg();
    let body = SyntheticBody::default();
    let grid = CellGrid::new(0.5);
    let video = VideoSequence::default();
    let quality = video.quality(QualityLevel::High);
    let analysis_points = 20_000usize;
    let byte_scale =
        quality.points_per_frame as f64 / analysis_points as f64 * quality.bytes_per_point();
    let mut rng = Rng::seed_from_u64(1005);

    let trials = 200usize;
    let mut norm_default = Vec::new();
    let mut norm_custom = Vec::new();
    for _ in 0..trials {
        let f = rng.gen_range(0..frames);
        let a = rng.gen_range(0..ctx.study.len());
        let b = loop {
            let b = rng.gen_range(0..ctx.study.len());
            if b != a {
                break b;
            }
        };
        let cloud = body.frame(f as u64, analysis_points);
        let partition = grid.partition(&cloud);
        let sizes: Vec<f64> = partition
            .iter()
            .map(|c| c.point_count as f64 * byte_scale)
            .collect();
        let maps: Vec<_> = [a, b]
            .iter()
            .map(|&u| {
                let trace = &ctx.study.traces[u];
                let vc = VisibilityComputer::new(VisibilityOptions {
                    intrinsics: trace.device.intrinsics(),
                    ..VisibilityOptions::vivo()
                });
                vc.compute(&trace.pose(f), &grid, &partition)
            })
            .collect();
        let s: Vec<f64> = maps
            .iter()
            .map(|m| m.required_bytes(&partition, &sizes))
            .collect();
        let s_m = overlap_bytes(&[&maps[0], &maps[1]], &partition, &sizes);
        let positions = [
            ctx.study.traces[a].pose(f).position,
            ctx.study.traces[b].pose(f).position,
        ];

        // Unicast rates: each user's individually-best sector.
        let r: Vec<f64> = positions
            .iter()
            .map(|&p| mcs.phy_rate_mbps(engine.design(&[p], &[]).common_rss_dbm()))
            .collect();
        if r.iter().any(|&x| x <= 0.0) {
            continue; // outage sample: skip (unicast undefined)
        }
        let t_unicast = s[0] / r[0] + s[1] / r[1];

        let serve = |r_m: f64| -> Option<f64> {
            if r_m <= 0.0 {
                return None;
            }
            Some(s_m / r_m + (s[0] - s_m).max(0.0) / r[0] + (s[1] - s_m).max(0.0) / r[1])
        };

        let beam = engine.design(&positions, &[]);
        let r_default = mcs.multicast_rate_mbps(&beam.sector_rss_dbm);
        let r_custom = mcs.multicast_rate_mbps(beam.member_rss_dbm());

        let total = s[0] + s[1];
        let tput_uni = total / t_unicast;
        norm_default.push(match serve(r_default) {
            Some(t) => (total / t) / tput_uni,
            None => 0.0, // multicast infeasible at this geometry
        });
        norm_custom.push(match serve(r_custom) {
            Some(t) => (total / t) / tput_uni,
            None => 0.0,
        });
    }

    println!("Fig. 3e: normalized throughput for two users (unicast = 1.0)\n");
    println!("{:<28} {:>8} {:>8} {:>8}", "scheme", "p10", "mean", "p90");
    println!("{:<28} {:>8.2} {:>8.2} {:>8.2}", "unicast", 1.0, 1.0, 1.0);
    for (label, v) in [
        ("multicast (default beam)", &norm_default),
        ("multicast (custom beams)", &norm_custom),
    ] {
        println!(
            "{:<28} {:>8.2} {:>8.2} {:>8.2}",
            label,
            quantile(v, 0.1),
            mean(v),
            quantile(v, 0.9)
        );
    }
    let worse = norm_default.iter().filter(|&&x| x < 1.0).count();
    println!(
        "\nmulticast w/ default beams is WORSE than unicast in {:.0}% of samples",
        worse as f64 / norm_default.len() as f64 * 100.0
    );
    let custom_better = norm_custom
        .iter()
        .zip(&norm_default)
        .filter(|(c, d)| c > d)
        .count();
    println!(
        "custom beams beat default beams in {:.0}% of samples",
        custom_better as f64 / norm_custom.len() as f64 * 100.0
    );
    println!("\npaper shape: default-beam multicast sometimes underperforms unicast");
    println!("(unbalanced RSS drags the common MCS down); customized beams restore");
    println!("and extend the multicast gain.");
    volcast_bench::dump_obs("fig3e");
}
