//! Beam designer: inspect the customized multi-lobe beams directly.
//!
//! Places two users in the default room, prints the RSS each would get
//! from (a) their own dedicated beams, (b) the best common default sector
//! and (c) the paper's combined multi-lobe beam, then sweeps user 2 across
//! the room to show where the custom beam pays off.
//!
//! Run: `cargo run --release --example beam_designer`

use volcast::geom::Vec3;
use volcast::mmwave::{Channel, Codebook, McsTable, SweepEngine};

fn main() {
    let channel = Channel::default_setup();
    let codebook = Codebook::default_for(&channel.array);
    let engine = SweepEngine::new(&channel, &codebook);
    let mcs = McsTable::dmg();

    let u1 = Vec3::new(-2.0, 1.5, 0.5);
    let u2 = Vec3::new(2.0, 1.5, -0.5);
    println!("AP at {}, users at {u1} and {u2}\n", channel.array.position);

    // Dedicated beams (what each user gets alone).
    for (i, &u) in [u1, u2].iter().enumerate() {
        let rss = channel.rss_dedicated_beam(u, &[]);
        println!(
            "user {} dedicated beam: {:>6.1} dBm -> {:>6.0} Mbps",
            i + 1,
            rss,
            mcs.phy_rate_mbps(rss)
        );
    }

    // Best common default sector.
    let beam = engine.design(&[u1, u2], &[]);
    let rss = &beam.sector_rss_dbm;
    let common_default = beam.sector_common_rss_dbm();
    println!(
        "\nbest common default sector #{}: per-user RSS {:.1} / {:.1} dBm",
        beam.sector, rss[0], rss[1]
    );
    println!(
        "  -> common (min) RSS {:>6.1} dBm -> multicast {:>6.0} Mbps",
        common_default,
        mcs.phy_rate_mbps(common_default)
    );

    // Customized multi-lobe beam.
    println!(
        "\ncustomized beam ({}): per-user RSS {:.1} / {:.1} dBm",
        if beam.customized {
            "multi-lobe"
        } else {
            "default kept"
        },
        beam.member_rss_dbm()[0],
        beam.member_rss_dbm()[1]
    );
    println!(
        "  -> common RSS {:>6.1} dBm -> multicast {:>6.0} Mbps",
        beam.common_rss_dbm(),
        mcs.phy_rate_mbps(beam.common_rss_dbm())
    );

    // Sweep user 2 across the room.
    println!("\nsweep: user 2 moves along x (z=-0.5); multicast rate (Mbps):");
    println!(
        "{:>6} {:>16} {:>16} {:>12}",
        "x", "default sector", "custom beam", "customized?"
    );
    let mut x = -3.0;
    while x <= 3.01 {
        let v2 = Vec3::new(x, 1.5, -0.5);
        let b = engine.design(&[u1, v2], &[]);
        let d_min = b.sector_common_rss_dbm();
        println!(
            "{:>6.1} {:>16.0} {:>16.0} {:>12}",
            x,
            mcs.phy_rate_mbps(d_min),
            mcs.phy_rate_mbps(b.common_rss_dbm()),
            if b.customized { "yes" } else { "no" }
        );
        x += 0.5;
    }
    println!("\nShape: near user 1 the default sector suffices; as the users");
    println!("spread, the default's common MCS collapses while the two-lobe");
    println!("beam holds a usable rate.");
}
