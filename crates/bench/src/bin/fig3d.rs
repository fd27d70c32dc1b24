//! Fig. 3d: CDF of the common RSS for 2-user multicast with the default
//! codebook beams vs the customized multi-lobe beams.
//!
//! The paper's observation: combining the two users' individual beam
//! weights (scaled by the opposite user's RSS, total power constrained)
//! raises the *common* (minimum) RSS substantially — the "Max. Common RSS
//! improvement" circle in the figure — while pairs that already share a
//! strong default sector keep the default beam.
//!
//! Run: `cargo run --release -p volcast-bench --bin fig3d`

use volcast_bench::{mean, print_cdf, quantile, Context};
use volcast_mmwave::SweepEngine;
use volcast_util::rng::Rng;

fn main() {
    let frames = 300usize;
    let ctx = Context::standard(42, frames);
    let engine = SweepEngine::new(&ctx.channel, &ctx.codebook);
    let mut rng = Rng::seed_from_u64(1004);

    let trials = 300usize;
    // Draw every trial's pair sequentially (same RNG stream as the serial
    // version), then run the pure beam designs in parallel; results come
    // back in trial order.
    let trial_positions: Vec<[volcast_geom::Vec3; 2]> = (0..trials)
        .map(|_| {
            let f = rng.gen_range(0..frames);
            let a = rng.gen_range(0..ctx.study.len());
            let b = loop {
                let b = rng.gen_range(0..ctx.study.len());
                if b != a {
                    break b;
                }
            };
            [
                ctx.study.traces[a].pose(f).position,
                ctx.study.traces[b].pose(f).position,
            ]
        })
        .collect();
    let evaluated: Vec<(f64, f64, bool)> =
        volcast_util::par::par_map(&trial_positions, |positions| {
            let beam = engine.design(positions, &[]);
            (
                beam.sector_common_rss_dbm(),
                beam.common_rss_dbm(),
                beam.customized,
            )
        });
    let mut default_rss = Vec::with_capacity(trials);
    let mut custom_rss = Vec::with_capacity(trials);
    let mut improvements = Vec::with_capacity(trials);
    let mut customized = 0usize;
    for (d_min, c_min, was_custom) in evaluated {
        if was_custom {
            customized += 1;
        }
        default_rss.push(d_min);
        custom_rss.push(c_min);
        improvements.push(c_min - d_min);
    }

    println!("Fig. 3d: common RSS for 2-user multicast (dBm)\n");
    print_cdf("default beam", &default_rss);
    print_cdf("customized beams", &custom_rss);
    println!();
    println!(
        "max common-RSS improvement: mean {:.1} dB, p90 {:.1} dB, max {:.1} dB",
        mean(&improvements),
        quantile(&improvements, 0.9),
        improvements
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max),
    );
    println!(
        "custom beam chosen for {:.0}% of pairs (default kept when both users already strong)",
        customized as f64 / trials as f64 * 100.0
    );
    println!("\npaper shape: customized curve shifted right of the default curve,");
    println!("with the largest gains in the weak-common-RSS regime.");
    volcast_bench::dump_obs("fig3d");
}
