//! Spatial cell partitioning.
//!
//! ViVo-style systems split the point cloud into axis-aligned cubic cells
//! (the paper uses 25/50/100 cm cells); each cell is independently
//! prefetchable and decodable, and visibility is decided per cell. The cell
//! grid is also the unit over which inter-user viewport similarity (IoU of
//! visibility maps) is computed.
//!
//! Binning has one program, [`CellCensus`]: the session's per-frame
//! count-only census and [`CellGrid::partition`]'s index lists both run on
//! it.

use crate::point::{PointCloud, SoAPoints};
use volcast_geom::{Aabb, Vec3};

/// Identifier of a cell: integer grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Grid x index.
    pub x: i32,
    /// Grid y index.
    pub y: i32,
    /// Grid z index.
    pub z: i32,
}

impl CellId {
    /// Creates a cell id.
    pub fn new(x: i32, y: i32, z: i32) -> Self {
        CellId { x, y, z }
    }
}

/// Per-cell statistics from a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct CellInfo {
    /// Cell id.
    pub id: CellId,
    /// Number of points that fell in this cell.
    pub point_count: usize,
    /// Indices into the source cloud's point array.
    pub point_indices: Vec<u32>,
}

/// A uniform cubic grid anchored at `origin` with `cell_size`-meter cells.
///
/// The grid is unbounded: cells exist wherever points fall. Cell `(i,j,k)`
/// covers `[origin + i*s, origin + (i+1)*s)` per axis.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid {
    /// Grid anchor (world coordinates of cell (0,0,0)'s min corner).
    pub origin: Vec3,
    /// Cell edge length in meters (the paper: 0.25, 0.5, or 1.0).
    pub cell_size: f64,
}

impl CellGrid {
    /// Creates a grid with the given cell size anchored at the origin.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        CellGrid {
            origin: Vec3::ZERO,
            cell_size,
        }
    }

    /// Creates a grid anchored at `origin`.
    pub fn with_origin(cell_size: f64, origin: Vec3) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        CellGrid { origin, cell_size }
    }

    /// The cell containing a world-space point.
    pub fn cell_of(&self, p: Vec3) -> CellId {
        let rel = (p - self.origin) / self.cell_size;
        CellId::new(
            rel.x.floor() as i32,
            rel.y.floor() as i32,
            rel.z.floor() as i32,
        )
    }

    /// World-space bounds of a cell.
    pub fn cell_bounds(&self, id: CellId) -> Aabb {
        let min = self.origin + Vec3::new(id.x as f64, id.y as f64, id.z as f64) * self.cell_size;
        Aabb::new(min, min + Vec3::splat(self.cell_size))
    }

    /// World-space center of a cell.
    pub fn cell_center(&self, id: CellId) -> Vec3 {
        self.cell_bounds(id).center()
    }

    /// Partitions a cloud: returns the non-empty cells with their point
    /// indices, sorted by cell id for determinism.
    ///
    /// A [`CellCensus`] count pass sizes every cell's index list exactly;
    /// a second pass scatters the indices in point order.
    pub fn partition(&self, cloud: &PointCloud) -> Vec<CellInfo> {
        let mut census = CellCensus::new();
        census.count(self, cloud.points.iter().map(|p| p.pos));
        let mut cells = Vec::with_capacity(census.len());
        census.cells_into(&mut cells);
        for c in &mut cells {
            c.point_indices = Vec::with_capacity(c.point_count);
        }
        // The census is private to this call, so its counts can be
        // overwritten with each cell's 1-based rank in `cells` (non-zero,
        // so the slots still read as occupied) for the scatter.
        for (rank, &slot) in census.occupied.iter().enumerate() {
            census.table[slot].count = rank as u32 + 1;
        }
        for (i, p) in cloud.points.iter().enumerate() {
            let slot = census.probe(census.binner.cell_of(p.pos));
            cells[census.table[slot].count as usize - 1]
                .point_indices
                .push(i as u32);
        }
        cells
    }

    /// Extracts the sub-cloud for one cell from a partition entry.
    pub fn extract(&self, cloud: &PointCloud, info: &CellInfo) -> PointCloud {
        let mut out = PointCloud::new();
        self.extract_into(cloud, info, &mut out);
        out
    }

    /// Extracts one cell's sub-cloud into `out` (cleared first), reusing
    /// its allocation across cells/frames.
    pub fn extract_into(&self, cloud: &PointCloud, info: &CellInfo, out: &mut PointCloud) {
        out.points.clear();
        out.points.reserve(info.point_indices.len());
        out.points
            .extend(info.point_indices.iter().map(|&i| cloud.points[i as usize]));
    }

    /// Extracts one cell's sub-cloud straight into SoA storage (cleared
    /// first). Same points in the same order as
    /// [`CellGrid::extract_into`], so per-cell encodes are byte-identical
    /// whichever layout the pipeline uses.
    pub fn extract_soa_into(&self, cloud: &PointCloud, info: &CellInfo, out: &mut SoAPoints) {
        out.clear();
        out.reserve(info.point_indices.len());
        for &i in &info.point_indices {
            let p = &cloud.points[i as usize];
            out.push(p.pos, p.color);
        }
    }
}

/// `1 / s` when dividing by `s` and multiplying by the result round the
/// same for every `f64`: `s` is a normal power of two whose reciprocal is
/// a normal finite double. Then `x / s` and `x * (1 / s)` are the same
/// correctly rounded real `x * 2^-k`, so the two are bit-identical.
fn exact_reciprocal(s: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    if !s.is_normal() || s.to_bits() & MANTISSA != 0 {
        return None;
    }
    let inv = 1.0 / s;
    inv.is_normal().then_some(inv)
}

/// One census call's binning: [`CellGrid::cell_of`] on a stored `f32`
/// position widened to `f64`, with the division replaced by an exact
/// reciprocal multiply when the cell size allows it.
#[derive(Debug, Clone, Copy)]
struct Binner {
    origin: Vec3,
    cell_size: f64,
    inv: Option<f64>,
}

impl Binner {
    fn new(grid: &CellGrid) -> Self {
        Binner {
            origin: grid.origin,
            cell_size: grid.cell_size,
            inv: exact_reciprocal(grid.cell_size),
        }
    }

    #[inline]
    fn cell_of(&self, pos: [f32; 3]) -> CellId {
        let d = Vec3::new(pos[0] as f64, pos[1] as f64, pos[2] as f64) - self.origin;
        let rel = match self.inv {
            Some(inv) => d * inv,
            None => d / self.cell_size,
        };
        CellId::new(floor_i32(rel.x), floor_i32(rel.y), floor_i32(rel.z))
    }
}

/// `x.floor() as i32` bit for bit (saturating, NaN to 0) without a libm
/// call: truncate toward zero, then step down when that rounded up. For
/// `|x| < 2^31` truncation is exact, and it rounds up exactly when `x` is
/// a negative non-integer; outside that range both forms saturate.
#[inline]
fn floor_i32(x: f64) -> i32 {
    let t = x as i32;
    t.saturating_sub((t as f64 > x) as i32)
}

/// One slot of the census table; `count == 0` marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: CellId,
    count: u32,
}

const EMPTY: Entry = Entry {
    id: CellId { x: 0, y: 0, z: 0 },
    count: 0,
};

/// Smallest table the census allocates (a synthetic body frame occupies
/// tens of cells at the paper's cell sizes).
const MIN_SLOTS: usize = 64;

/// A reusable per-cell point counter: the count-only half of
/// [`CellGrid::partition`].
///
/// Each point's cell is computed exactly as [`CellGrid::cell_of`] computes
/// it, and [`CellCensus::cells_into`] lists the same ids and counts as
/// `partition` without any point indices. Counts live in an
/// open-addressed table kept at most half full, so memory is bounded by
/// the largest number of occupied cells seen, whatever the cloud's extent.
/// Once warm, a census call allocates nothing. Counts are `u32`, like the
/// partition's point indices.
#[derive(Debug, Clone)]
pub struct CellCensus {
    binner: Binner,
    /// Power-of-two length (or empty before the first count).
    table: Vec<Entry>,
    /// Occupied slots; sorted by cell id once a count finishes.
    occupied: Vec<usize>,
}

impl Default for CellCensus {
    fn default() -> Self {
        Self::new()
    }
}

impl CellCensus {
    /// An empty census; its table is allocated on the first count.
    pub fn new() -> Self {
        CellCensus {
            binner: Binner::new(&CellGrid::new(1.0)),
            table: Vec::new(),
            occupied: Vec::new(),
        }
    }

    /// Replaces the census with the per-cell counts of `positions` on
    /// `grid`.
    pub fn count(&mut self, grid: &CellGrid, positions: impl IntoIterator<Item = [f32; 3]>) {
        self.reset(grid);
        for pos in positions {
            self.add(pos);
        }
        self.finish();
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` when no point has been counted.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Writes the non-empty cells into `out` (cleared first) in ascending
    /// id order, with empty `point_indices`: the ids and counts of
    /// [`CellGrid::partition`] on the same points, and no allocation once
    /// `out` is warm.
    pub fn cells_into(&self, out: &mut Vec<CellInfo>) {
        out.clear();
        out.extend(self.occupied.iter().map(|&slot| {
            let e = self.table[slot];
            CellInfo {
                id: e.id,
                point_count: e.count as usize,
                point_indices: Vec::new(),
            }
        }));
    }

    /// Starts a count on `grid`: empties the table and decides the
    /// reciprocal fast path for this call.
    pub(crate) fn reset(&mut self, grid: &CellGrid) {
        self.binner = Binner::new(grid);
        if self.table.is_empty() {
            self.table = vec![EMPTY; MIN_SLOTS];
        }
        for &slot in &self.occupied {
            self.table[slot] = EMPTY;
        }
        self.occupied.clear();
    }

    /// Counts one point.
    #[inline]
    pub(crate) fn add(&mut self, pos: [f32; 3]) {
        let id = self.binner.cell_of(pos);
        let mut slot = self.probe(id);
        if self.table[slot].count == 0 {
            if 2 * (self.occupied.len() + 1) > self.table.len() {
                self.grow();
                slot = self.probe(id);
            }
            self.table[slot].id = id;
            self.occupied.push(slot);
        }
        self.table[slot].count += 1;
    }

    /// Ends a count: orders the occupied cells by id.
    pub(crate) fn finish(&mut self) {
        let table = &self.table;
        self.occupied.sort_unstable_by_key(|&slot| table[slot].id);
    }

    /// The slot holding `id`, or the empty slot where it belongs (linear
    /// probing; the table always has an empty slot).
    #[inline]
    fn probe(&self, id: CellId) -> usize {
        let mask = self.table.len() - 1;
        let packed = (id.x as u32 as u64) << 32 | id.y as u32 as u64;
        let h = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (id.z as u32 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let mut slot = (h >> 32) as usize & mask;
        loop {
            let e = &self.table[slot];
            if e.count == 0 || e.id == id {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts every occupied cell.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.table.len()];
        let old = std::mem::replace(&mut self.table, doubled);
        for i in 0..self.occupied.len() {
            let e = old[self.occupied[i]];
            let fresh = self.probe(e.id);
            self.table[fresh] = e;
            self.occupied[i] = fresh;
        }
    }
}

// JSON serialization (replaces the former serde derives; see volcast-util).
volcast_util::impl_json_struct!(CellId { x, y, z });
volcast_util::impl_json_struct!(CellInfo {
    id,
    point_count,
    point_indices
});
volcast_util::impl_json_struct!(CellGrid { origin, cell_size });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn pt(x: f32, y: f32, z: f32) -> Point {
        Point::new([x, y, z], [0, 0, 0])
    }

    #[test]
    fn cell_of_basics() {
        let g = CellGrid::new(0.5);
        assert_eq!(g.cell_of(Vec3::new(0.1, 0.1, 0.1)), CellId::new(0, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(0.6, 0.1, 0.1)), CellId::new(1, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(-0.1, 0.0, 0.0)), CellId::new(-1, 0, 0));
        // Boundary: exactly 0.5 belongs to cell 1.
        assert_eq!(g.cell_of(Vec3::new(0.5, 0.0, 0.0)), CellId::new(1, 0, 0));
    }

    #[test]
    fn cell_bounds_contain_their_points() {
        let g = CellGrid::new(0.25);
        for p in [
            Vec3::new(0.1, 0.2, 0.3),
            Vec3::new(-1.7, 0.9, 2.2),
            Vec3::new(5.0, -3.0, 0.0),
        ] {
            let id = g.cell_of(p);
            assert!(g.cell_bounds(id).contains(p), "{p} not in cell {id:?}");
        }
    }

    #[test]
    fn grid_origin_shifts_cells() {
        let g = CellGrid::with_origin(1.0, Vec3::new(0.5, 0.0, 0.0));
        assert_eq!(g.cell_of(Vec3::new(0.6, 0.0, 0.0)), CellId::new(0, 0, 0));
        assert_eq!(g.cell_of(Vec3::new(0.4, 0.0, 0.0)), CellId::new(-1, 0, 0));
    }

    #[test]
    fn partition_covers_all_points_once() {
        let cloud = PointCloud::from_points(vec![
            pt(0.1, 0.1, 0.1),
            pt(0.2, 0.1, 0.1),
            pt(0.9, 0.1, 0.1),
            pt(-0.3, 0.0, 0.0),
        ]);
        let g = CellGrid::new(0.5);
        let cells = g.partition(&cloud);
        let total: usize = cells.iter().map(|c| c.point_count).sum();
        assert_eq!(total, cloud.len());
        // 3 distinct cells.
        assert_eq!(cells.len(), 3);
        // Sorted by id.
        for w in cells.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn extract_returns_cell_points() {
        let cloud = PointCloud::from_points(vec![
            pt(0.1, 0.1, 0.1),
            pt(0.9, 0.1, 0.1),
            pt(0.15, 0.1, 0.1),
        ]);
        let g = CellGrid::new(0.5);
        let cells = g.partition(&cloud);
        let first = cells.iter().find(|c| c.id == CellId::new(0, 0, 0)).unwrap();
        let sub = g.extract(&cloud, first);
        assert_eq!(sub.len(), 2);
        for p in &sub.points {
            assert!(g.cell_bounds(first.id).contains(p.position()));
        }
    }

    #[test]
    fn extract_soa_matches_aos_extract() {
        let body = crate::synthetic::SyntheticBody::default();
        let cloud = body.frame(2, 4_000);
        let g = CellGrid::new(0.5);
        let mut soa = SoAPoints::new();
        for info in &g.partition(&cloud) {
            g.extract_soa_into(&cloud, info, &mut soa);
            let aos = g.extract(&cloud, info);
            assert_eq!(soa.len(), aos.len());
            for (i, p) in aos.points.iter().enumerate() {
                assert_eq!(soa.point(i), *p);
            }
        }
    }

    #[test]
    fn coarser_grid_has_fewer_cells() {
        // Statistical sanity on a synthetic body frame: halving resolution
        // reduces cell count.
        let body = crate::synthetic::SyntheticBody::default();
        let cloud = body.frame(0, 10_000);
        let fine = CellGrid::new(0.25).partition(&cloud).len();
        let mid = CellGrid::new(0.5).partition(&cloud).len();
        let coarse = CellGrid::new(1.0).partition(&cloud).len();
        assert!(fine > mid && mid > coarse, "{fine} > {mid} > {coarse}");
    }

    /// The pre-census partition: one `BTreeMap` entry per cell, indices
    /// pushed in point order.
    fn btree_partition(grid: &CellGrid, cloud: &PointCloud) -> Vec<CellInfo> {
        let mut map = std::collections::BTreeMap::<CellId, Vec<u32>>::new();
        for (i, p) in cloud.points.iter().enumerate() {
            map.entry(grid.cell_of(p.position()))
                .or_default()
                .push(i as u32);
        }
        map.into_iter()
            .map(|(id, point_indices)| CellInfo {
                id,
                point_count: point_indices.len(),
                point_indices,
            })
            .collect()
    }

    #[test]
    fn partition_matches_btree_reference() {
        let body = crate::synthetic::SyntheticBody::default();
        let cloud = body.frame(5, 6_000);
        for (size, origin) in [
            (0.5, Vec3::ZERO),
            (0.25, Vec3::new(0.125, -0.5, 0.3)),
            (0.3, Vec3::new(-0.1, 0.05, 0.0)),
        ] {
            let grid = CellGrid::with_origin(size, origin);
            assert_eq!(grid.partition(&cloud), btree_partition(&grid, &cloud));
        }
        let empty = PointCloud::new();
        assert!(CellGrid::new(0.5).partition(&empty).is_empty());
    }

    #[test]
    fn exact_reciprocal_only_for_normal_powers_of_two() {
        for (s, inv) in [
            (0.25, 4.0),
            (0.5, 2.0),
            (1.0, 1.0),
            (2.0, 0.5),
            (-0.5, -2.0),
        ] {
            assert_eq!(exact_reciprocal(s), Some(inv), "{s}");
        }
        // Smallest normal: its reciprocal 2^1022 is normal.
        assert_eq!(exact_reciprocal(f64::MIN_POSITIVE), Some(2f64.powi(1022)));
        // 2^1023's reciprocal 2^-1023 is subnormal.
        assert_eq!(exact_reciprocal(2f64.powi(1023)), None);
        assert_eq!(exact_reciprocal(2f64.powi(1022)), Some(2f64.powi(-1022)));
        // Subnormal powers of two overflow (or leave the normal range)
        // when inverted.
        let tiny = f64::from_bits(1); // 2^-1074
        assert_eq!(exact_reciprocal(tiny), None);
        assert_eq!(exact_reciprocal(f64::MIN_POSITIVE / 2.0), None);
        for s in [
            0.0,
            -0.0,
            0.1,
            0.3,
            3.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            f64::MAX,
        ] {
            assert_eq!(exact_reciprocal(s), None, "{s}");
        }
        // Where it applies, multiplying is bit-identical to dividing.
        let mut rng = volcast_util::rng::Rng::seed_from_u64(7);
        for s in [0.25, 0.5, 1.0, 2.0f64.powi(-40), 2.0f64.powi(900)] {
            let inv = exact_reciprocal(s).unwrap();
            for _ in 0..2_000 {
                let x = f64::from_bits(rng.gen::<u64>());
                let (q, m) = (x / s, x * inv);
                assert!(
                    q.to_bits() == m.to_bits() || (q.is_nan() && m.is_nan()),
                    "{x:e} / {s:e}"
                );
            }
            for x in [
                0.0,
                -0.0,
                1.0,
                -7.5,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::INFINITY,
            ] {
                assert_eq!((x / s).to_bits(), (x * inv).to_bits(), "{x:e} / {s:e}");
            }
        }
    }

    #[test]
    fn floor_i32_matches_floor_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            2147483647.0,
            2147483647.5,
            2147483648.0,
            -2147483647.5,
            -2147483648.0,
            -2147483648.5,
            -2147483649.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let mut rng = volcast_util::rng::Rng::seed_from_u64(3);
        let random = (0..5_000).map(|_| (rng.gen::<f64>() - 0.5) * 1e3);
        for x in edges.into_iter().chain(random) {
            assert_eq!(floor_i32(x), x.floor() as i32, "{x:e}");
        }
    }

    #[test]
    fn census_grows_with_occupied_cells_and_resets() {
        // A wide, sparse cloud: 1,000 points in 1,000 distinct cells spread
        // over kilometres. The table tracks occupied cells, not extent.
        let wide = PointCloud::from_points(
            (0..1_000)
                .map(|i| pt(i as f32 * 37.0 - 18_000.0, (i % 7) as f32 * 500.0, -3.0))
                .collect(),
        );
        let grid = CellGrid::new(0.5);
        let mut census = CellCensus::new();
        census.count(&grid, wide.points.iter().map(|p| p.pos));
        assert_eq!(census.len(), 1_000);
        assert!(census.table.len() <= 4 * 1_000, "{}", census.table.len());
        let mut cells = Vec::new();
        census.cells_into(&mut cells);
        let expect = btree_partition(&grid, &wide);
        assert_eq!(cells.len(), expect.len());
        for (c, e) in cells.iter().zip(&expect) {
            assert_eq!((c.id, c.point_count), (e.id, e.point_count));
        }
        // A later, smaller count on the same census forgets the wide one.
        let small = PointCloud::from_points(vec![pt(0.1, 0.1, 0.1), pt(0.2, 0.1, 0.1)]);
        census.count(&grid, small.points.iter().map(|p| p.pos));
        census.cells_into(&mut cells);
        assert_eq!(cells.len(), 1);
        assert_eq!(
            (cells[0].id, cells[0].point_count),
            (CellId::new(0, 0, 0), 2)
        );
        census.count(&grid, std::iter::empty());
        assert!(census.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_cell_size_panics() {
        let _ = CellGrid::new(0.0);
    }
}
