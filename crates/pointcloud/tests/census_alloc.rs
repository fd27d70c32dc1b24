//! Pins the allocation-free steady state of the census GOP path: the
//! session's per-frame cell counts.
//!
//! This is its own integration binary because the counting allocator is
//! process-global: any sibling test allocating concurrently would make the
//! counters move. Keep exactly one `#[test]` in this file.

use volcast_pointcloud::codec::GopEncoder;
use volcast_pointcloud::{CellGrid, VideoSequence};
use volcast_util::scratch::counting;
use volcast_util::{obs, par};

#[global_allocator]
static ALLOC: counting::CountingAllocator = counting::CountingAllocator;

/// After a warm-up pass, census-only GOP batches plus `cells_into` into a
/// reused list must not touch the allocator: every slot's census table and
/// the cell list are reused at their high-watermark sizes.
#[test]
fn warm_census_gop_does_not_allocate() {
    // The obs registry interns metric names on first touch; disable it so
    // the assertion holds under VOLCAST_TRACE=1 too.
    obs::set_enabled(false);
    const FRAMES: usize = 30;
    const POINTS: usize = 15_000;
    let video = VideoSequence::new(5, 90);
    // The paper's three cell sizes (all on the reciprocal fast path) and
    // one that divides.
    let grids = [0.25, 0.5, 1.0, 0.3].map(CellGrid::new);
    let mut gop = GopEncoder::new();
    let mut cells = Vec::new();

    // Spawning workers allocates by design; the claim is about the census
    // slots, so the sweep runs on one worker.
    par::with_thread_count(1, || {
        let pass = |gop: &mut GopEncoder, cells: &mut Vec<_>| {
            let mut counted = 0usize;
            for (g, grid) in grids.iter().enumerate() {
                gop.census_gop(&video, (g * FRAMES) as u64, FRAMES, POINTS, grid);
                for i in 0..FRAMES {
                    gop.cells_into(i, cells);
                    counted += cells.iter().map(|c| c.point_count).sum::<usize>();
                }
            }
            counted
        };
        for _ in 0..2 {
            pass(&mut gop, &mut cells);
        }
        let allocs_before = counting::allocations();
        let deallocs_before = counting::deallocations();
        let mut counted = 0usize;
        for _ in 0..2 {
            counted += pass(&mut gop, &mut cells);
        }
        let allocs = counting::allocations() - allocs_before;
        let deallocs = counting::deallocations() - deallocs_before;
        assert_eq!(counted, 2 * grids.len() * FRAMES * POINTS);
        assert_eq!(allocs, 0, "steady-state census GOP allocated");
        assert_eq!(deallocs, 0, "steady-state census GOP deallocated");
    });
}
