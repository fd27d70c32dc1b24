//! Volumetric video sequences: frames + quality ladder + cell sizes.

use crate::cells::{CellCensus, CellGrid, CellInfo};
use crate::codec::{encode, CodecConfig, CodecStats, EncodedCloud, Encoder};
use crate::point::{PointCloud, SoAPoints};
use crate::quality::{Quality, QualityLadder, QualityLevel};
use crate::synthetic::SyntheticBody;

/// A volumetric video: a synthetic body animated over `num_frames` frames,
/// generable at any of the ladder's quality levels.
///
/// Frames are generated on demand and deterministically, so experiments can
/// sweep hundreds of frames without holding them in memory.
#[derive(Debug, Clone)]
pub struct VideoSequence {
    /// The animated subject.
    pub body: SyntheticBody,
    /// Quality ladder.
    pub ladder: QualityLadder,
    /// Total number of frames (the paper's IoU plots span ~300 frames).
    pub num_frames: u64,
    /// Frames per second.
    pub fps: f64,
}

impl Default for VideoSequence {
    fn default() -> Self {
        VideoSequence {
            body: SyntheticBody::default(),
            ladder: QualityLadder::default(),
            num_frames: 300,
            fps: 30.0,
        }
    }
}

impl VideoSequence {
    /// Creates a sequence with the given seed and length.
    pub fn new(seed: u64, num_frames: u64) -> Self {
        VideoSequence {
            body: SyntheticBody {
                seed,
                ..Default::default()
            },
            num_frames,
            ..Default::default()
        }
    }

    /// Generates frame `idx` at `level` quality.
    pub fn frame(&self, idx: u64, level: QualityLevel) -> PointCloud {
        let q = self.ladder.get(level);
        self.body
            .frame(idx % self.num_frames.max(1), q.points_per_frame)
    }

    /// Generates frame `idx` at `level` quality into `out` (cleared first),
    /// reusing its allocation across frames.
    pub fn frame_into(&self, idx: u64, level: QualityLevel, out: &mut PointCloud) {
        let q = self.ladder.get(level);
        self.body
            .frame_into(idx % self.num_frames.max(1), q.points_per_frame, out);
    }

    /// Generates a reduced-density frame for fast analytical experiments
    /// (e.g. visibility statistics, where cell occupancy — not raw density —
    /// matters). `points` is the target count.
    pub fn frame_with_density(&self, idx: u64, points: usize) -> PointCloud {
        self.body.frame(idx % self.num_frames.max(1), points)
    }

    /// Reusable-buffer variant of [`VideoSequence::frame_with_density`].
    pub fn frame_with_density_into(&self, idx: u64, points: usize, out: &mut PointCloud) {
        self.body
            .frame_into(idx % self.num_frames.max(1), points, out);
    }

    /// SoA variant of [`VideoSequence::frame_with_density_into`]:
    /// point-for-point identical frames, generated straight into SoA lanes
    /// for the codec's vectorized encode path.
    pub fn frame_with_density_soa_into(&self, idx: u64, points: usize, out: &mut SoAPoints) {
        self.body
            .frame_into_soa(idx % self.num_frames.max(1), points, out);
    }

    /// Census variant of [`VideoSequence::frame_with_density_into`]:
    /// counts the frame's points per cell of `grid` without storing them
    /// (see [`SyntheticBody::frame_census`]).
    pub fn frame_with_density_census(
        &self,
        idx: u64,
        points: usize,
        grid: &CellGrid,
        census: &mut CellCensus,
    ) {
        self.body
            .frame_census(idx % self.num_frames.max(1), points, grid, census);
    }

    /// Encodes a frame, returning the bitstream and codec statistics.
    pub fn encode_frame(
        &self,
        idx: u64,
        level: QualityLevel,
        cfg: &CodecConfig,
    ) -> (EncodedCloud, CodecStats) {
        encode(&self.frame(idx, level), cfg)
    }

    /// Reusable variant of [`VideoSequence::encode_frame`]: generates the
    /// frame into `scratch` and encodes it into `out` through the
    /// caller-owned `enc`. With warmed buffers the whole generate+encode
    /// step is allocation-free; the bitstream is byte-identical to
    /// [`VideoSequence::encode_frame`].
    pub fn encode_frame_into(
        &self,
        idx: u64,
        level: QualityLevel,
        cfg: &CodecConfig,
        enc: &mut Encoder,
        scratch: &mut PointCloud,
        out: &mut Vec<u8>,
    ) -> CodecStats {
        self.frame_into(idx, level, scratch);
        enc.encode_into(scratch, cfg, out)
    }

    /// Partitions a frame into cells, returning both the cells and the
    /// per-cell compressed-size estimate in bytes (proportional share of the
    /// calibrated frame size — cells are coded independently, and their cost
    /// is dominated by point count).
    pub fn partition_frame(
        &self,
        idx: u64,
        level: QualityLevel,
        grid: &CellGrid,
    ) -> (Vec<CellInfo>, Vec<f64>) {
        let quality = self.ladder.get(level);
        let cloud = self.frame(idx, level);
        let cells = grid.partition(&cloud);
        let sizes = cells
            .iter()
            .map(|c| c.point_count as f64 * quality.bytes_per_point())
            .collect();
        (cells, sizes)
    }

    /// The calibrated quality parameters at a level.
    pub fn quality(&self, level: QualityLevel) -> Quality {
        self.ladder.get(level)
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(VideoSequence {
    body,
    ladder,
    num_frames,
    fps
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_density_follows_quality() {
        let v = VideoSequence::new(1, 30);
        // Generating full 330K-550K frames is slow for a unit test; use the
        // density passthrough and the ladder's declared counts instead.
        assert_eq!(v.quality(QualityLevel::Low).points_per_frame, 330_000);
        let small = v.frame_with_density(0, 5_000);
        assert_eq!(small.len(), 5_000);
    }

    #[test]
    fn frames_wrap_at_sequence_length() {
        let v = VideoSequence::new(1, 10);
        let a = v.frame_with_density(0, 1_000);
        let b = v.frame_with_density(10, 1_000);
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn partition_sizes_sum_to_frame_size() {
        let mut v = VideoSequence::new(2, 30);
        // Shrink the ladder for test speed: pretend Low is 5K points.
        v.ladder.levels[0].points_per_frame = 5_000;
        let grid = CellGrid::new(0.5);
        let (cells, sizes) = v.partition_frame(0, QualityLevel::Low, &grid);
        assert_eq!(cells.len(), sizes.len());
        let total_points: usize = cells.iter().map(|c| c.point_count).sum();
        assert_eq!(total_points, 5_000);
        let total_bytes: f64 = sizes.iter().sum();
        let expect = 5_000.0 * v.quality(QualityLevel::Low).bytes_per_point();
        assert!((total_bytes - expect).abs() < 1e-6);
    }

    #[test]
    fn encode_frame_produces_stats() {
        let mut v = VideoSequence::new(3, 30);
        v.ladder.levels[0].points_per_frame = 3_000;
        let (enc, stats) = v.encode_frame(0, QualityLevel::Low, &CodecConfig::default());
        assert_eq!(stats.input_points, 3_000);
        assert!(enc.size_bytes() > 0);
    }

    #[test]
    fn encode_frame_into_matches_encode_frame() {
        let mut v = VideoSequence::new(3, 30);
        v.ladder.levels[0].points_per_frame = 2_000;
        let cfg = CodecConfig::default();
        let mut enc = Encoder::new();
        let mut scratch = PointCloud::new();
        let mut out = Vec::new();
        for idx in [0u64, 5, 2] {
            let stats = v.encode_frame_into(
                idx,
                QualityLevel::Low,
                &cfg,
                &mut enc,
                &mut scratch,
                &mut out,
            );
            let (expect, expect_stats) = v.encode_frame(idx, QualityLevel::Low, &cfg);
            assert_eq!(out, expect.data, "frame {idx}");
            assert_eq!(stats, expect_stats);
        }
    }
}
