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

use super::{CodecConfig, CodecStats, Encoder};
use crate::point::{PointCloud, SoAPoints};
use crate::video::VideoSequence;
use volcast_util::par;
use volcast_util::scratch::Pool;

/// One GOP slot: a private encoder arena plus frame staging, reused across
/// groups.
struct Slot {
    enc: Encoder,
    soa: SoAPoints,
    data: Vec<u8>,
    stats: CodecStats,
}

impl Slot {
    fn new() -> Self {
        Slot {
            enc: Encoder::new(),
            soa: SoAPoints::new(),
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

    /// Generates and encodes a whole GOP of reduced-density analysis
    /// frames (`video` frames `start..start + len` at `points` density) in
    /// one sweep, staging each frame in its slot's SoA lanes.
    ///
    /// Equivalent to `frame_with_density_into` + `encode_into` per frame;
    /// generation and encode both run inside the parallel region.
    pub fn encode_video_gop_into(
        &mut self,
        video: &VideoSequence,
        start: u64,
        len: usize,
        points: usize,
        cfg: &CodecConfig,
    ) {
        self.begin_batch(len, true);
        par::par_for_each_mut(&mut self.slots[..len], |i, slot| {
            video.frame_with_density_soa_into(start + i as u64, points, &mut slot.soa);
            slot.stats = slot.enc.encode_soa_into(&slot.soa, cfg, &mut slot.data);
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

    /// Frame `i`'s staged points (filled by the video-GOP entry points).
    pub fn frame_points(&self, i: usize) -> &SoAPoints {
        &self.slots[i].soa
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
    fn video_gop_matches_per_frame_pipeline() {
        let video = VideoSequence::new(9, 30);
        let cfg = CodecConfig::default();
        let mut gop = GopEncoder::new();
        // Start mid-sequence so the wrap-around indexing is exercised too.
        gop.encode_video_gop_into(&video, 27, 6, 1_500, &cfg);
        let mut enc = Encoder::new();
        let mut cloud = PointCloud::new();
        let mut expect = Vec::new();
        for i in 0..6 {
            video.frame_with_density_into(27 + i as u64, 1_500, &mut cloud);
            let stats = enc.encode_into(&cloud, &cfg, &mut expect);
            assert_eq!(gop.frame_data(i), &expect[..], "frame {i}");
            assert_eq!(gop.frame_stats(i), stats, "frame {i}");
        }
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

    #[test]
    fn repeated_batches_recycle_output_buffers() {
        let video = VideoSequence::new(4, 30);
        let cfg = CodecConfig::default();
        let mut gop = GopEncoder::new();
        gop.encode_video_gop_into(&video, 0, 4, 800, &cfg);
        let first: Vec<Vec<u8>> = (0..4).map(|i| gop.frame_data(i).to_vec()).collect();
        gop.encode_video_gop_into(&video, 0, 4, 800, &cfg);
        for (i, d) in first.iter().enumerate() {
            assert_eq!(gop.frame_data(i), &d[..]);
        }
        // Second batch of the same shape takes every buffer from the pool.
        assert_eq!(gop.out_pool.misses(), 4);
    }
}
