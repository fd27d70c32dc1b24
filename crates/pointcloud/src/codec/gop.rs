//! GOP-batched encoding: one deterministic parallel sweep per group of
//! pictures.
//!
//! Frame pipelines that encode a whole GOP (the ladder streams 30-frame
//! groups at 30 FPS) waste the frame loop's serial structure: every frame
//! is independent once its points exist, so generation + encode can sweep
//! the group across `volcast_util::par` workers. [`GopEncoder`] owns one
//! encoder arena per GOP slot; slots persist across GOPs at their
//! high-watermark sizes, so the steady-state batched path is allocation-
//! free (gated by `tests/codec_alloc.rs`), and each frame's bitstream is
//! byte-identical to a serial per-frame [`Encoder::encode_into`] — the
//! sweep only reorders *which thread* runs a slot, never what the slot
//! computes, so results are independent of `VOLCAST_THREADS`.
//!
//! Each slot also owns a [`CellCensus`]: pipelines that need only the
//! frames' per-cell point counts run a census-only batch
//! ([`GopEncoder::census_gop`]).

use super::{CodecConfig, CodecStats, Encoder};
use crate::cells::{CellCensus, CellGrid, CellInfo};
use crate::point::{PointCloud, SoAPoints};
use crate::video::VideoSequence;
use volcast_util::par;
use volcast_util::scratch::Pool;

/// One GOP slot: a private encoder arena, frame staging and cell census,
/// reused across groups.
struct Slot {
    enc: Encoder,
    soa: SoAPoints,
    census: CellCensus,
    data: Vec<u8>,
    stats: CodecStats,
}

impl Slot {
    fn new() -> Self {
        Slot {
            enc: Encoder::new(),
            soa: SoAPoints::new(),
            census: CellCensus::new(),
            data: Vec::new(),
            stats: CodecStats {
                input_points: 0,
                voxels: 0,
                bytes: 0,
                bits_per_point: 0.0,
            },
        }
    }
}

/// Batched encoder for groups of independent frames.
///
/// Holds `gop_len` slots (grown on demand), each with its own [`Encoder`]
/// so a parallel sweep never shares codec scratch between threads. Output
/// buffers cycle through a [`Pool`] so varying GOP lengths stay bounded.
pub struct GopEncoder {
    slots: Vec<Slot>,
    out_pool: Pool<u8>,
    used: usize,
    /// Whether the current batch's output buffers came from the pool
    /// (encode batches). Generate-only batches skip the pool entirely so
    /// they leave no trace — not even an obs gauge.
    pooled: bool,
}

impl Default for GopEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GopEncoder {
    /// Creates an encoder with no warmed slots.
    pub fn new() -> Self {
        GopEncoder {
            slots: Vec::new(),
            out_pool: Pool::new("codec.gop.out_pool"),
            used: 0,
            pooled: false,
        }
    }

    /// Prepares `n` slots for a new batch. Encode batches
    /// (`with_output`) recycle the previous batch's output buffers through
    /// the pool and hand each active slot a (warm) buffer back;
    /// generate-only batches never touch the pool, so a pipeline that only
    /// stages points reports no output-pool gauge.
    fn begin_batch(&mut self, n: usize, with_output: bool) {
        if self.pooled {
            for slot in &mut self.slots[..self.used] {
                self.out_pool.put(std::mem::take(&mut slot.data));
            }
        }
        while self.slots.len() < n {
            self.slots.push(Slot::new());
        }
        if with_output {
            for slot in &mut self.slots[..n] {
                slot.data = self.out_pool.take();
                slot.data.clear();
            }
        }
        self.pooled = with_output;
        self.used = n;
    }

    /// Encodes every cloud of a GOP in one parallel sweep.
    ///
    /// Frame `i`'s bitstream ([`GopEncoder::frame_data`]) and stats
    /// ([`GopEncoder::frame_stats`]) are byte-identical to
    /// `Encoder::encode_into(&clouds[i], cfg, ..)` regardless of the
    /// worker count.
    pub fn encode_gop_into(&mut self, clouds: &[PointCloud], cfg: &CodecConfig) {
        self.begin_batch(clouds.len(), true);
        par::par_for_each_mut(&mut self.slots[..clouds.len()], |i, slot| {
            slot.stats = slot.enc.encode_into(&clouds[i], cfg, &mut slot.data);
        });
    }

    /// Counts the cells of a GOP of analysis frames on `grid` without
    /// storing their points (for pipelines that need only per-cell counts).
    /// Frame `i`'s cells are available via [`GopEncoder::cells_into`] and
    /// equal those of a [`CellGrid::partition`] of the frame.
    pub fn census_gop(
        &mut self,
        video: &VideoSequence,
        start: u64,
        len: usize,
        points: usize,
        grid: &CellGrid,
    ) {
        self.begin_batch(len, false);
        par::par_for_each_mut(&mut self.slots[..len], |i, slot| {
            video.frame_with_density_census(start + i as u64, points, grid, &mut slot.census);
        });
    }

    /// Generates a GOP of analysis frames into the slots' SoA lanes
    /// without encoding (for pipelines that only need the points). Frame
    /// `i` is available via [`GopEncoder::frame_points`].
    pub fn generate_gop(&mut self, video: &VideoSequence, start: u64, len: usize, points: usize) {
        self.begin_batch(len, false);
        par::par_for_each_mut(&mut self.slots[..len], |i, slot| {
            video.frame_with_density_soa_into(start + i as u64, points, &mut slot.soa);
        });
    }

    /// Number of frames in the current batch.
    pub fn len(&self) -> usize {
        self.used
    }

    /// `true` when no batch has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Frame `i`'s bitstream from the current batch.
    pub fn frame_data(&self, i: usize) -> &[u8] {
        &self.slots[i].data
    }

    /// Frame `i`'s codec statistics from the current batch.
    pub fn frame_stats(&self, i: usize) -> CodecStats {
        self.slots[i].stats
    }

    /// Frame `i`'s staged points (filled by [`GopEncoder::generate_gop`]).
    pub fn frame_points(&self, i: usize) -> &SoAPoints {
        &self.slots[i].soa
    }

    /// Writes frame `i`'s non-empty cells into `out` (see
    /// [`CellCensus::cells_into`]); filled by [`GopEncoder::census_gop`].
    pub fn cells_into(&self, i: usize, out: &mut Vec<CellInfo>) {
        self.slots[i].census.cells_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticBody;

    fn gop_clouds(n: usize, points: usize) -> Vec<PointCloud> {
        let body = SyntheticBody::default();
        (0..n as u64).map(|f| body.frame(f, points)).collect()
    }

    fn assert_matches_serial(threads: usize) {
        par::with_thread_count(threads, || {
            let clouds = gop_clouds(8, 2_000);
            let cfg = CodecConfig::default();
            let mut gop = GopEncoder::new();
            gop.encode_gop_into(&clouds, &cfg);
            assert_eq!(gop.len(), clouds.len());
            let mut enc = Encoder::new();
            let mut expect = Vec::new();
            for (i, cloud) in clouds.iter().enumerate() {
                let stats = enc.encode_into(cloud, &cfg, &mut expect);
                assert_eq!(gop.frame_data(i), &expect[..], "frame {i}");
                assert_eq!(gop.frame_stats(i), stats, "frame {i}");
            }
        });
    }

    #[test]
    fn batched_encode_matches_serial_single_thread() {
        assert_matches_serial(1);
    }

    #[test]
    fn batched_encode_matches_serial_eight_threads() {
        assert_matches_serial(8);
    }

    #[test]
    fn generate_gop_stages_identical_points() {
        let video = VideoSequence::new(4, 30);
        let mut gop = GopEncoder::new();
        gop.generate_gop(&video, 3, 5, 1_000);
        let mut cloud = PointCloud::new();
        for i in 0..5 {
            video.frame_with_density_into(3 + i as u64, 1_000, &mut cloud);
            let soa = gop.frame_points(i);
            assert_eq!(soa.len(), cloud.len());
            for (j, p) in cloud.points.iter().enumerate() {
                assert_eq!(soa.point(j), *p);
            }
        }
    }

    /// Census batches match the partition of the serially generated
    /// frame, at any worker count.
    fn assert_census_matches_partition(threads: usize) {
        par::with_thread_count(threads, || {
            let video = VideoSequence::new(6, 30);
            let mut gop = GopEncoder::new();
            let mut cells = Vec::new();
            let mut cloud = PointCloud::new();
            for (start, size) in [(26u64, 0.5), (3, 0.25), (11, 0.3)] {
                let grid = CellGrid::new(size);
                gop.census_gop(&video, start, 8, 1_200, &grid);
                for i in 0..8 {
                    video.frame_with_density_into(start + i as u64, 1_200, &mut cloud);
                    let expect = grid.partition(&cloud);
                    gop.cells_into(i, &mut cells);
                    assert_eq!(cells.len(), expect.len(), "frame {i}");
                    for (c, e) in cells.iter().zip(&expect) {
                        assert_eq!((c.id, c.point_count), (e.id, e.point_count));
                        assert!(c.point_indices.is_empty());
                    }
                }
            }
        });
    }

    #[test]
    fn census_gop_matches_partition_single_thread() {
        assert_census_matches_partition(1);
    }

    #[test]
    fn census_gop_matches_partition_eight_threads() {
        assert_census_matches_partition(8);
    }

    #[test]
    fn repeated_batches_recycle_output_buffers() {
        let clouds = gop_clouds(4, 800);
        let cfg = CodecConfig::default();
        let mut gop = GopEncoder::new();
        gop.encode_gop_into(&clouds, &cfg);
        let first: Vec<Vec<u8>> = (0..4).map(|i| gop.frame_data(i).to_vec()).collect();
        gop.encode_gop_into(&clouds, &cfg);
        for (i, d) in first.iter().enumerate() {
            assert_eq!(gop.frame_data(i), &d[..]);
        }
        // Second batch of the same shape takes every buffer from the pool.
        assert_eq!(gop.out_pool.misses(), 4);
    }
}
