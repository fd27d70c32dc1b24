//! Fig. 3b: CDF of the maximum common RSS the *default* sector codebook
//! can provide to multicast groups of 1, 2 and 3 users, over user
//! positions drawn from the viewport traces.
//!
//! The paper's anchor: -68 dBm (≈385 Mbps, enough for 550K-point quality)
//! is achievable at 96.5% of positions for one user but only ~79% / ~60%
//! for 2- / 3-user multicast groups — the default beams were never
//! designed for multicast.
//!
//! Run: `cargo run --release -p volcast-bench --bin fig3b`

use volcast_bench::{cdf_at, print_cdf, Context};
use volcast_mmwave::SweepEngine;
use volcast_util::rng::Rng;

fn main() {
    let frames = 300usize;
    let ctx = Context::standard(42, frames);
    let engine = SweepEngine::new(&ctx.channel, &ctx.codebook);
    let mut rng = Rng::seed_from_u64(1003);

    let trials = 400usize;
    println!("Fig. 3b: CDF of max common RSS under the default codebook\n");
    let mut results = Vec::new();
    for k in 1..=3usize {
        // Draw every trial's frame and user set sequentially (same RNG
        // stream as the serial version), then evaluate the pure codebook
        // sweeps in parallel; results come back in trial order.
        let trial_positions: Vec<Vec<_>> = (0..trials)
            .map(|_| {
                // Draw k distinct users at a random trace frame.
                let f = rng.gen_range(0..frames);
                let mut users = Vec::with_capacity(k);
                while users.len() < k {
                    let u = rng.gen_range(0..ctx.study.len());
                    if !users.contains(&u) {
                        users.push(u);
                    }
                }
                users
                    .iter()
                    .map(|&u| ctx.study.traces[u].pose(f).position)
                    .collect()
            })
            .collect();
        let samples: Vec<f64> = volcast_util::par::par_map(&trial_positions, |positions| {
            engine.design(positions, &[]).sector_common_rss_dbm()
        });
        print_cdf(&format!("{k} user(s)"), &samples);
        results.push((k, samples));
    }

    println!("\nFraction of positions with common RSS >= -68 dBm (385 Mbps):");
    for (k, samples) in &results {
        println!(
            "  {k} user(s): {:.1}%",
            (1.0 - cdf_at(samples, -68.0 - 1e-9)) * 100.0
        );
    }
    println!("\npaper anchors: 96.5% (1 user), 79% (2 users), 60% (3 users).");
    volcast_bench::dump_obs("fig3b");
}
