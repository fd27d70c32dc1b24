//! The latency model of sector-level beam search.
//!
//! 802.11ad finds beams with a sector-level sweep (SLS): the initiator
//! transmits a short SSW frame on every sector and the responder reports
//! the best. After a blockage breaks the current beam, re-initiating this
//! search costs 5-20 ms (paper §4.1) — long enough to stall 30 FPS video,
//! which is exactly why the paper wants prediction-driven *proactive* beam
//! adaptation instead.

/// The sector-sweep timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamSearch {
    /// Time per SSW frame (per sector probed), seconds. ~15 us airtime plus
    /// turnaround; commercial sweeps land in the hundreds of microseconds
    /// per sector once MAC overhead is included.
    pub per_sector_s: f64,
    /// Fixed setup/feedback overhead per sweep, seconds.
    pub overhead_s: f64,
}

impl Default for BeamSearch {
    /// Calibrated so a full 48-sector sweep costs ~12 ms and a focused
    /// partial sweep a few ms — inside the paper's 5-20 ms window.
    fn default() -> Self {
        BeamSearch {
            per_sector_s: 230e-6,
            overhead_s: 1.2e-3,
        }
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(BeamSearch {
    per_sector_s,
    overhead_s
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_duration_in_paper_window() {
        let bs = BeamSearch::default();
        let sectors = crate::Codebook::default_for(&crate::Channel::default_setup().array).len();
        let duration_s = bs.overhead_s + bs.per_sector_s * sectors as f64;
        assert!(
            (0.005..=0.020).contains(&duration_s),
            "full sweep {duration_s} s outside 5-20 ms"
        );
    }
}
