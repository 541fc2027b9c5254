//! Axis-aligned spatial grid bucketing for sub-quadratic assignment scans.
//!
//! Every solver and the coreset weights round pay a dense `O(n · k)`
//! comparison-space scan per assignment/relax step.  For the
//! constant-dimensional Euclidean case this module buckets flat-store rows
//! into an axis-aligned grid built over the [`crate::bbox`] layer, so the
//! hot scans visit only *candidate* cells instead of every pair — the
//! output-sensitive probing that Coy–Czumaj–Mishra's parallel k-center
//! bounds are built on.  Two accelerators are provided:
//!
//! * [`GridRelaxer`] backs the fused Gonzalez relaxation
//!   ([`VecSpace::relax_max`]): the members are bucketed once and their
//!   rows and relax slots copied into cell order, and each relax pass
//!   sweeps the occupied cells in ascending cell order, skipping any cell
//!   whose bounding-box distance to the new center proves that no slot in
//!   it can change, and relaxing every other cell with one call to the
//!   dense arm's fused kernel ([`Distance::relax_rows_max`]) on its
//!   contiguous rows.  It pays once the selection picks enough centers for
//!   the radius to shrink below the cell spread (the `relax_crossover`
//!   records), as in a stream's re-compression, which selects 1,000 of
//!   ~1,050 representatives.  A grid of one occupied cell could skip
//!   nothing, so the build refuses it and the dense scan runs.
//! * [`SpatialGrid::nearest_member`] and
//!   [`SpatialGrid::wide_nearest_bounded`] back the nearest-candidate
//!   argmin scans (the coreset weights round, per-point assignment) by
//!   expanding Chebyshev rings of cells around the query until the ring
//!   lower bound exceeds the best distance seen.
//!
//! # Cell-width choice
//!
//! The classical analysis buckets at cell width `~r/√d` so that a cell's
//! diagonal is at most the current radius `r`.  `r` changes every Gonzalez
//! round, though, and rebucketing per round would erase the win.  Instead
//! the grid picks a *fixed* resolution from the member count: with `m`
//! members and a target occupancy `OCC`, each dimension of positive extent
//! gets `res = max(1, floor((m / OCC)^(1/d_eff)))` cells, i.e. about
//! `m / OCC` cells total and `OCC` members per cell on uniform data.  The
//! radius-dependence moves into the *pruning* instead of the bucketing:
//! every cell stores the tight bounding box of its members, and a scan
//! skips the cell when the squared box distance (a lower bound on every
//! member's squared distance) proves the scan outcome cannot change.  That
//! is exactly the `r/√d` test, evaluated per cell per query against the
//! current radius rather than baked into the cell width.
//!
//! Dimensions of zero extent (duplicate-heavy data) get a single cell and
//! do not count toward `d_eff`, so a cell width can never be zero; if
//! *every* dimension is degenerate the build returns `None` and callers
//! fall back to the dense scan.
//!
//! # Probe order and determinism
//!
//! Grid results are **bit-identical** to the dense scans, so the
//! determinism tuple extends cleanly to `(seed, precision, kernel,
//! assign)`:
//!
//! * Cells are enumerated in fixed ascending cell order; within a cell,
//!   rows are scanned in ascending member order.  The relax sweep folds
//!   per-cell records with a "greater value, or equal value at a lower
//!   position" rule, which reproduces the dense lowest-index argmax
//!   regardless of which cells were skipped; the ring argmin keeps the
//!   lowest candidate index on ties for the same reason.
//! * Pruning never changes a value: a cell is skipped only when a
//!   conservative rounding-slack margin (`(d + 8) · 4 · u` for storage
//!   unit roundoff `u`) proves every member comparison in it is a no-op.
//!   The ring argmin's comparison-space distances are the per-pair
//!   [`VecSpace::cmp_distance`] values the dense argmin
//!   ([`VecSpace::nearest`]) computes, and the `wide_cmp_*` f64
//!   certification scans stay ground truth.
//! * The relax sweep runs the dense arm's own kernel on each cell's rows,
//!   and under the `scalar` and `portable` backends that kernel computes
//!   every row on its own in one summation order, wherever the row sits:
//!   each slot gets the bits the full scan gives it.  Under `avx2` at
//!   `dim >= LANES` the rows kernel sums a row in a 4-row block or alone
//!   by its place in the slice, so a row can fall in the kernel's tail in
//!   a cell slice but in a 4-row block in the full scan (and the dense
//!   subset scan sums every row alone).  There the arms agree exactly only
//!   on inputs whose squared distances are exactly representable (e.g.
//!   integer lattices) — same caveat as the kernel A/B in
//!   [`crate::kernel::simd`].  Below one vector of coordinates every
//!   backend runs the scalar kernels, so `d = 2, 3` are exact everywhere.
//!
//! # Dispatch
//!
//! Mirroring the kernel table, the active arm is selected once per process
//! from the `--assign` flag / [`ASSIGN_ENV`] (`auto` | `dense` | `grid`)
//! via [`set_choice`] / [`active_choice`].  `auto` applies the measured
//! dense-vs-grid crossover of the scan's [`ScanKind`] — the
//! [`ASSIGN_CROSSOVER`] and [`RELAX_CROSSOVER`] tables copied from
//! `BENCH_flat.json` (see [`auto_mode`]); brute force wins when the
//! candidate count or point count is small.  Call sites report which arm
//! actually ran through the [`note_scan`] / [`scan_counts`] telemetry.

use crate::distance::Distance;
use crate::scalar::Scalar;
use crate::space::VecSpace;
use crate::PointId;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Environment variable naming the assignment arm (`auto` | `dense` |
/// `grid`), mirroring `KCENTER_KERNEL`; the CLI `--assign` flag wins over
/// it.
pub const ASSIGN_ENV: &str = "KCENTER_ASSIGN";

/// Dimensions above this never build a grid (the cells-per-ring blowup
/// makes bucketing useless long before this, and the coordinate scratch
/// buffers are stack-pinned to this length).
pub const MAX_GRID_DIM: usize = 32;

/// Target members per cell for the relax grids (built once over the whole
/// subset, swept many times).
pub const RELAX_OCCUPANCY: usize = 8;

/// Target members per cell for the small candidate grids behind the
/// nearest-member argmin (centers / coreset reps): smaller cells give the
/// ring search tighter bounds.
pub const NEAREST_OCCUPANCY: usize = 2;

/// An assignment-scan implementation the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AssignMode {
    /// The dense SIMD scan over every candidate (the pre-grid behaviour).
    Dense = 0,
    /// Spatial-grid bucketing with box-distance pruning.
    Grid = 1,
}

impl AssignMode {
    /// Every mode, in preference order.
    pub const ALL: [AssignMode; 2] = [AssignMode::Dense, AssignMode::Grid];

    /// The name used by `KCENTER_ASSIGN`, the CLI `--assign` flag, and
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            AssignMode::Dense => "dense",
            AssignMode::Grid => "grid",
        }
    }
}

impl fmt::Display for AssignMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed assignment request: either defer to the measured crossover
/// (`auto`) or pin one arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignChoice {
    /// Pick per scan via [`auto_mode`]'s measured crossover.
    Auto,
    /// Pin this arm everywhere (grid still falls back to dense on spaces
    /// it cannot index — non-Euclidean surrogates, degenerate extents).
    Fixed(AssignMode),
}

impl AssignChoice {
    /// Parses an assignment name (`auto` | `dense` | `grid`,
    /// case-insensitive).  Unknown names are a named
    /// [`AssignSelectError::Unknown`].
    pub fn parse(name: &str) -> Result<AssignChoice, AssignSelectError> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Ok(AssignChoice::Auto),
            "dense" => Ok(AssignChoice::Fixed(AssignMode::Dense)),
            "grid" => Ok(AssignChoice::Fixed(AssignMode::Grid)),
            _ => Err(AssignSelectError::Unknown { value: name.into() }),
        }
    }

    /// Reads the request from [`ASSIGN_ENV`]; unset means `auto`.
    pub fn from_env() -> Result<AssignChoice, AssignSelectError> {
        match std::env::var(ASSIGN_ENV) {
            Ok(value) => AssignChoice::parse(&value),
            Err(_) => Ok(AssignChoice::Auto),
        }
    }

    /// The name this request parses from.
    pub fn name(&self) -> &'static str {
        match self {
            AssignChoice::Auto => "auto",
            AssignChoice::Fixed(m) => m.name(),
        }
    }
}

impl fmt::Display for AssignChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an assignment request could not be honoured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignSelectError {
    /// The name is not one of `auto` / `dense` / `grid`.
    Unknown {
        /// The rejected name.
        value: String,
    },
}

impl fmt::Display for AssignSelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignSelectError::Unknown { value } => write!(
                f,
                "unknown assignment mode {value:?} (expected auto, dense, or grid)"
            ),
        }
    }
}

impl std::error::Error for AssignSelectError {}

const CHOICE_AUTO: u8 = 0;
const CHOICE_DENSE: u8 = 1;
const CHOICE_GRID: u8 = 2;
const CHOICE_UNSET: u8 = u8::MAX;

/// The process-wide assignment choice; `UNSET` until first queried, then
/// latched from [`ASSIGN_ENV`] (or [`set_choice`]).
static ACTIVE: AtomicU8 = AtomicU8::new(CHOICE_UNSET);

fn choice_to_u8(choice: AssignChoice) -> u8 {
    match choice {
        AssignChoice::Auto => CHOICE_AUTO,
        AssignChoice::Fixed(AssignMode::Dense) => CHOICE_DENSE,
        AssignChoice::Fixed(AssignMode::Grid) => CHOICE_GRID,
    }
}

fn choice_from_u8(v: u8) -> AssignChoice {
    match v {
        CHOICE_DENSE => AssignChoice::Fixed(AssignMode::Dense),
        CHOICE_GRID => AssignChoice::Fixed(AssignMode::Grid),
        _ => AssignChoice::Auto,
    }
}

/// The active assignment choice, initialised from [`ASSIGN_ENV`] on first
/// use.
///
/// # Panics
///
/// Panics if [`ASSIGN_ENV`] is set to an unknown name.  The CLI validates
/// the variable up front (surfacing a named `InvalidParameter` error)
/// before any scan runs; library users hitting the panic should call
/// [`AssignChoice::from_env`] themselves and [`set_choice`] the result.
pub fn active_choice() -> AssignChoice {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != CHOICE_UNSET {
        return choice_from_u8(v);
    }
    let choice = AssignChoice::from_env().unwrap_or_else(|e| panic!("{ASSIGN_ENV}: {e}"));
    ACTIVE.store(choice_to_u8(choice), Ordering::Relaxed);
    choice
}

/// Pins the process-wide assignment choice (the CLI `--assign` path).
/// Infallible: both arms always exist — a pinned `grid` still falls back
/// to dense per scan on spaces the grid cannot index.
pub fn set_choice(choice: AssignChoice) {
    ACTIVE.store(choice_to_u8(choice), Ordering::Relaxed);
}

/// The two scans that have a grid arm; each has its own crossover table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// A nearest-candidate assignment scan ([`SpatialGrid::nearest_member`]
    /// vs the dense argmin).
    Assign,
    /// A Gonzalez selection's relax loop ([`GridRelaxer`] vs the dense
    /// fused relax kernels).
    Relax,
}

/// The shape of one assignment scan, for the crossover decision.
#[derive(Debug, Clone, Copy)]
pub struct ScanShape {
    /// Which scan this is.
    pub kind: ScanKind,
    /// How many points get scanned (queries / relax slots).
    pub points: usize,
    /// How many candidates each point is compared against (`k` centers,
    /// coreset reps, or Gonzalez rounds for the relax grid).
    pub candidates: usize,
    /// Coordinate dimension of the scanned rows.
    pub dim: usize,
}

/// The `assign_crossover` records of `BENCH_flat.json` as
/// `(n, dim, crossover_k)`: on the clustered `n`-point workload in `dim`
/// dimensions, the grid assignment scan beat the dense one at `crossover_k`
/// candidates and at every larger probed count (`None`: not at the largest
/// probed count).  Sorted by `n`, then `dim`.  A `kcenter-bench` test fails
/// when this table and the committed records disagree.
pub const ASSIGN_CROSSOVER: [(usize, usize, Option<usize>); 15] = [
    (1 << 12, 2, Some(96)),
    (1 << 12, 3, Some(128)),
    (1 << 12, 4, Some(64)),
    (1 << 12, 8, Some(1024)),
    (1 << 12, 16, None),
    (1 << 15, 2, Some(64)),
    (1 << 15, 3, Some(96)),
    (1 << 15, 4, Some(64)),
    (1 << 15, 8, Some(1024)),
    (1 << 15, 16, None),
    (1 << 18, 2, Some(96)),
    (1 << 18, 3, Some(96)),
    (1 << 18, 4, Some(96)),
    (1 << 18, 8, Some(1024)),
    (1 << 18, 16, None),
];

/// The `relax_crossover` records of `BENCH_flat.json`, in the layout of
/// [`ASSIGN_CROSSOVER`]: a `k`-center Gonzalez selection over the `n`-point
/// workload ran faster on the grid relax arm (bucketing and the cell-order
/// copy charged) than on the sequential dense fused kernel from
/// `crossover_k` centers on, comparing medians of interleaved blocks.  The
/// `n = 2^10` rows probe `k < n` only; they send a stream's re-compression
/// selection (1,000 of ~1,050 rows) to the grid.
pub const RELAX_CROSSOVER: [(usize, usize, Option<usize>); 20] = [
    (1 << 10, 2, Some(64)),
    (1 << 10, 3, Some(48)),
    (1 << 10, 4, Some(96)),
    (1 << 10, 8, None),
    (1 << 10, 16, None),
    (1 << 12, 2, Some(48)),
    (1 << 12, 3, Some(48)),
    (1 << 12, 4, Some(64)),
    (1 << 12, 8, Some(96)),
    (1 << 12, 16, None),
    (1 << 15, 2, Some(48)),
    (1 << 15, 3, Some(48)),
    (1 << 15, 4, Some(64)),
    (1 << 15, 8, Some(64)),
    (1 << 15, 16, None),
    (1 << 18, 2, Some(48)),
    (1 << 18, 3, Some(48)),
    (1 << 18, 4, Some(64)),
    (1 << 18, 8, Some(48)),
    (1 << 18, 16, None),
];

/// What `auto` resolves to for a scan of this shape, read from the
/// crossover table of its [`ScanKind`].
///
/// A scan uses the records of the largest probed `n` at or below its point
/// count and, among those, the record of the next probed dimension at or
/// above its own.  Scans smaller than every probed `n`, or of higher
/// dimension than every probed one, stay dense; so the point floor is the
/// smallest probed `n` at which the grid wins at all.  Beyond the largest
/// probed count a scan keeps the verdict of that count.
pub fn auto_mode(shape: ScanShape) -> AssignMode {
    let table: &[(usize, usize, Option<usize>)] = match shape.kind {
        ScanKind::Assign => &ASSIGN_CROSSOVER,
        ScanKind::Relax => &RELAX_CROSSOVER,
    };
    let Some(&(n, _, _)) = table.iter().rev().find(|&&(n, _, _)| n <= shape.points) else {
        return AssignMode::Dense;
    };
    let record = table
        .iter()
        .find(|&&(rn, dim, _)| rn == n && dim >= shape.dim);
    match record {
        Some(&(_, _, Some(k))) if shape.dim > 0 && shape.candidates >= k => AssignMode::Grid,
        _ => AssignMode::Dense,
    }
}

/// Resolves the arm for one scan: the pinned arm if the active choice is
/// fixed, the measured crossover otherwise.  Callers still fall back to
/// dense when the grid build refuses the space (see
/// [`SpatialGrid::build`]) and report the arm that actually ran via
/// [`note_scan`].
pub fn select_mode(shape: ScanShape) -> AssignMode {
    match active_choice() {
        AssignChoice::Auto => auto_mode(shape),
        AssignChoice::Fixed(m) => m,
    }
}

static GRID_SCANS: AtomicU64 = AtomicU64::new(0);
static DENSE_SCANS: AtomicU64 = AtomicU64::new(0);

/// Records that one assignment scan (a full relax loop, weights round, or
/// per-point assignment pass) ran on `mode`'s arm.  The CLI prints these
/// next to the round accounting so A/B runs show which arm actually
/// executed.
pub fn note_scan(mode: AssignMode) {
    match mode {
        AssignMode::Grid => GRID_SCANS.fetch_add(1, Ordering::Relaxed),
        AssignMode::Dense => DENSE_SCANS.fetch_add(1, Ordering::Relaxed),
    };
}

/// `(grid, dense)` scan counts recorded by [`note_scan`] since process
/// start (or the last [`reset_scan_counts`]).
pub fn scan_counts() -> (u64, u64) {
    (
        GRID_SCANS.load(Ordering::Relaxed),
        DENSE_SCANS.load(Ordering::Relaxed),
    )
}

/// Zeroes the [`scan_counts`] telemetry (tests; per-command accounting).
pub fn reset_scan_counts() {
    GRID_SCANS.store(0, Ordering::Relaxed);
    DENSE_SCANS.store(0, Ordering::Relaxed);
}

/// A uniform axis-aligned grid over a member list of a coordinate-backed
/// space, with per-cell tight bounding boxes for distance lower bounds.
///
/// Members are addressed by their *position* in the member list handed to
/// [`SpatialGrid::build`] (matching the position-based contracts of the
/// relax/argmin scans).  All box geometry is kept in `f64`, widened
/// exactly from the storage rows.
pub struct SpatialGrid {
    dim: usize,
    len: usize,
    origin: Vec<f64>,
    inv_width: Vec<f64>,
    res: Vec<usize>,
    stride: Vec<usize>,
    /// CSR cell starts (`cells + 1` entries).
    starts: Vec<u32>,
    /// Member positions, grouped by cell, ascending within each cell.
    bucket: Vec<u32>,
    /// Per-cell tight member bounding boxes (`cells × dim`, `±inf` for
    /// empty cells).
    cell_lo: Vec<f64>,
    cell_hi: Vec<f64>,
    /// Smallest positive cell width, for the ring lower bound.
    min_cell_width: f64,
    /// Relative slack covering storage-precision comparison rounding: a
    /// cell is pruned only when `lb · (1 - cmp_slack)` already decides it.
    cmp_slack: f64,
    /// Same, for the f64 `wide_cmp_*` scans.
    wide_slack: f64,
}

impl SpatialGrid {
    /// Buckets `members` of `space` into a grid of roughly
    /// `members.len() / occupancy` cells.
    ///
    /// Returns `None` — callers fall back to the dense scan — when the
    /// space's surrogate is not squared Euclidean
    /// ([`Distance::supports_grid`]), when the member list
    /// is empty or larger than `u32` positions, when the dimension is 0 or
    /// above [`MAX_GRID_DIM`], or when every dimension has zero extent
    /// (all members identical — the degenerate case where a cell width
    /// would be zero).
    pub fn build<D: Distance, S: Scalar>(
        space: &VecSpace<D, S>,
        members: &[PointId],
        occupancy: usize,
    ) -> Option<SpatialGrid> {
        if !space.metric().supports_grid()
            || members.is_empty()
            || members.len() > u32::MAX as usize
        {
            return None;
        }
        let dim = space.row(members[0]).len();
        if dim == 0 || dim > MAX_GRID_DIM {
            return None;
        }

        // Member bounding box, widened exactly to f64.
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for &m in members {
            let row = space.row(m);
            for (i, &c) in row.iter().enumerate() {
                let c = c.to_f64();
                if c < lo[i] {
                    lo[i] = c;
                }
                if c > hi[i] {
                    hi[i] = c;
                }
            }
        }
        let d_eff = (0..dim).filter(|&i| hi[i] > lo[i]).count();
        if d_eff == 0 {
            return None;
        }

        // Uniform per-dimension resolution from the target cell count:
        // res^d_eff ≈ members / occupancy, so the product of resolutions
        // can never exceed the member count.
        let target_cells = (members.len() / occupancy.max(1)).max(1);
        let res_eff = ((target_cells as f64).powf(1.0 / d_eff as f64).floor() as usize).max(1);
        let mut res = vec![1usize; dim];
        let mut inv_width = vec![0.0f64; dim];
        let mut stride = vec![0usize; dim];
        let mut min_cell_width = f64::INFINITY;
        for i in 0..dim {
            if hi[i] > lo[i] {
                res[i] = res_eff;
                let extent = hi[i] - lo[i];
                inv_width[i] = res[i] as f64 / extent;
                min_cell_width = min_cell_width.min(extent / res[i] as f64);
            }
        }
        let mut cells = 1usize;
        for i in (0..dim).rev() {
            stride[i] = cells;
            cells = cells.checked_mul(res[i])?;
        }

        let mut grid = SpatialGrid {
            dim,
            len: members.len(),
            origin: lo,
            inv_width,
            res,
            stride,
            starts: vec![0; cells + 1],
            bucket: vec![0; members.len()],
            cell_lo: vec![f64::INFINITY; cells * dim],
            cell_hi: vec![f64::NEG_INFINITY; cells * dim],
            min_cell_width,
            cmp_slack: cmp_slack::<S>(dim),
            wide_slack: cmp_slack::<f64>(dim),
        };

        // Counting sort by cell: positions placed in ascending order land
        // ascending within each cell.
        let mut counts = vec![0u32; cells];
        for &m in members {
            counts[grid.cell_of(space.row(m))] += 1;
        }
        let mut acc = 0u32;
        for (c, &count) in counts.iter().enumerate() {
            grid.starts[c] = acc;
            acc += count;
        }
        grid.starts[cells] = acc;
        let mut cursor: Vec<u32> = grid.starts[..cells].to_vec();
        for (pos, &m) in members.iter().enumerate() {
            let row = space.row(m);
            let cell = grid.cell_of(row);
            grid.bucket[cursor[cell] as usize] = pos as u32;
            cursor[cell] += 1;
            for (i, &c) in row.iter().enumerate() {
                let c = c.to_f64();
                let slot = cell * dim + i;
                if c < grid.cell_lo[slot] {
                    grid.cell_lo[slot] = c;
                }
                if c > grid.cell_hi[slot] {
                    grid.cell_hi[slot] = c;
                }
            }
        }
        Some(grid)
    }

    /// Coordinate dimension of the indexed rows.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of member positions indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid indexes no members (never true for a built grid).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of cells.
    pub fn cells(&self) -> usize {
        self.starts.len() - 1
    }

    /// Per-dimension clamped cell coordinates of a row.
    fn coords_of<S: Scalar>(&self, row: &[S], out: &mut [usize; MAX_GRID_DIM]) {
        for i in 0..self.dim {
            let f = (row[i].to_f64() - self.origin[i]) * self.inv_width[i];
            // `as usize` saturates: negative / NaN → 0.
            out[i] = (f as usize).min(self.res[i] - 1);
        }
    }

    /// Flat cell index of a row (clamped into the grid).
    fn cell_of<S: Scalar>(&self, row: &[S]) -> usize {
        let mut c = [0usize; MAX_GRID_DIM];
        self.coords_of(row, &mut c);
        (0..self.dim).map(|i| c[i] * self.stride[i]).sum()
    }

    /// Squared box distance (f64) from `row` to the tight member bounding
    /// box of `cell` — a lower bound on the exact squared distance from
    /// `row` to every member in the cell.  Meaningful only for non-empty
    /// cells.
    fn lb_dist2<S: Scalar>(&self, cell: usize, row: &[S]) -> f64 {
        let base = cell * self.dim;
        let mut acc = 0.0f64;
        for (i, coord) in row.iter().enumerate().take(self.dim) {
            let x = coord.to_f64();
            let lo = self.cell_lo[base + i];
            let hi = self.cell_hi[base + i];
            let gap = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += gap * gap;
        }
        acc
    }

    /// Lower bound (f64, squared) on the distance from any query to any
    /// member in a cell at Chebyshev ring `rho` from the query's cell: the
    /// offset dimension spans at least `rho - 1` whole cells.
    fn ring_lb(&self, rho: usize) -> f64 {
        if rho <= 1 {
            0.0
        } else {
            let gap = (rho - 1) as f64 * self.min_cell_width;
            gap * gap
        }
    }

    /// Visits every non-empty cell at Chebyshev distance exactly `rho`
    /// from cell coordinates `q`, in ascending flat-index order, until
    /// `visit` returns `false`.  Returns `false` if the visitor stopped.
    fn for_each_ring_cell(
        &self,
        q: &[usize; MAX_GRID_DIM],
        rho: usize,
        mut visit: impl FnMut(usize) -> bool,
    ) -> bool {
        let dim = self.dim;
        let mut lo = [0usize; MAX_GRID_DIM];
        let mut hi = [0usize; MAX_GRID_DIM];
        let mut cur = [0usize; MAX_GRID_DIM];
        for i in 0..dim {
            lo[i] = q[i].saturating_sub(rho);
            hi[i] = (q[i] + rho).min(self.res[i] - 1);
            cur[i] = lo[i];
        }
        loop {
            let cheb = (0..dim).map(|i| cur[i].abs_diff(q[i])).max().unwrap_or(0);
            if cheb == rho {
                let cell: usize = (0..dim).map(|i| cur[i] * self.stride[i]).sum();
                if self.starts[cell] < self.starts[cell + 1] && !visit(cell) {
                    return false;
                }
            }
            // Odometer: last dimension fastest = ascending flat index.
            let mut i = dim;
            loop {
                if i == 0 {
                    return true;
                }
                i -= 1;
                if cur[i] < hi[i] {
                    cur[i] += 1;
                    break;
                }
                cur[i] = lo[i];
            }
        }
    }

    /// Largest ring that still contains cells, from `q`.
    fn max_ring(&self, q: &[usize; MAX_GRID_DIM]) -> usize {
        (0..self.dim)
            .map(|i| q[i].max(self.res[i] - 1 - q[i]))
            .max()
            .unwrap_or(0)
    }

    /// The comparison-space nearest member to `query`: bit-identical to
    /// the dense argmin `min_pos (cmp_distance(query, members[pos]))` with
    /// ties toward the smaller position, returned as
    /// `(position, cmp value)`.
    ///
    /// `members` must be the list the grid was built over.
    pub fn nearest_member<D: Distance, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
        members: &[PointId],
        query: PointId,
    ) -> (usize, S) {
        debug_assert_eq!(members.len(), self.len, "grid/member list mismatch");
        let row = space.row(query);
        let mut q = [0usize; MAX_GRID_DIM];
        self.coords_of(row, &mut q);
        let mut best = (0usize, S::INFINITY);
        let mut found = false;
        for rho in 0..=self.max_ring(&q) {
            // Every member beyond this ring is strictly farther than the
            // best (slack covers comparison-space rounding), and strict
            // inequality protects the lowest-position tie rule.
            if found && self.ring_lb(rho) * (1.0 - self.cmp_slack) > best.1.to_f64() {
                break;
            }
            self.for_each_ring_cell(&q, rho, |cell| {
                if !found || self.lb_dist2(cell, row) * (1.0 - self.cmp_slack) <= best.1.to_f64() {
                    for &pos in
                        &self.bucket[self.starts[cell] as usize..self.starts[cell + 1] as usize]
                    {
                        let d = space.cmp_distance(query, members[pos as usize]);
                        if d < best.1 || (d == best.1 && (pos as usize) < best.0) {
                            best = (pos as usize, d);
                            found = true;
                        }
                    }
                }
                true
            });
        }
        best
    }

    /// Grid variant of [`VecSpace::wide_cmp_distance_to_set_bounded`]
    /// over the grid's members: an upper bound on the true
    /// certification-space minimum, exact whenever it exceeds
    /// `stop_below`.  All distances are the ground-truth f64
    /// [`VecSpace::wide_cmp_distance`] pairs.
    pub fn wide_nearest_bounded<D: Distance, S: Scalar>(
        &self,
        space: &VecSpace<D, S>,
        members: &[PointId],
        query: PointId,
        stop_below: f64,
    ) -> f64 {
        debug_assert_eq!(members.len(), self.len, "grid/member list mismatch");
        let row = space.row(query);
        let mut q = [0usize; MAX_GRID_DIM];
        self.coords_of(row, &mut q);
        let mut best = f64::INFINITY;
        for rho in 0..=self.max_ring(&q) {
            // A ring that cannot *lower* the minimum cannot change the
            // result (non-strict: an equal value is not an improvement).
            if self.ring_lb(rho) * (1.0 - self.wide_slack) >= best {
                break;
            }
            let keep_going = self.for_each_ring_cell(&q, rho, |cell| {
                if self.lb_dist2(cell, row) * (1.0 - self.wide_slack) < best {
                    for &pos in
                        &self.bucket[self.starts[cell] as usize..self.starts[cell + 1] as usize]
                    {
                        let w = space.wide_cmp_distance(query, members[pos as usize]);
                        if w < best {
                            best = w;
                            if best <= stop_below {
                                return false;
                            }
                        }
                    }
                }
                true
            });
            if !keep_going {
                break;
            }
        }
        best
    }
}

/// Conservative relative slack covering the worst-case rounding of a
/// storage-precision squared-distance accumulation plus the f64 box-bound
/// arithmetic: `(d + 8) · 4 · u` for unit roundoff `u`, several times the
/// `~(d + 3) · u` analytic bound.
fn cmp_slack<S: Scalar>(dim: usize) -> f64 {
    (dim as f64 + 8.0) * 4.0 * S::UNIT_ROUNDOFF
}

/// Grid accelerator for the fused Gonzalez relaxation: buckets the subset
/// once, copying each member's row and relax slot into cell order, then
/// serves [`GridRelaxer::relax_max`] passes that run the dense fused kernel
/// ([`Distance::relax_rows_max`]) on each occupied cell's contiguous rows,
/// skipping cells the new center provably cannot touch.
///
/// Each occupied cell caches `(position, value)` of the lowest-position
/// maximum slot among its members; a skipped cell's record stays valid
/// because the skip condition proves no slot in it changed.  Folding the
/// records with a "greater value, or equal value at a lower position" rule
/// reproduces the dense lowest-index argmax bit-for-bit.
pub struct GridRelaxer<S: Scalar> {
    grid: SpatialGrid,
    /// The members' rows in cell order: row `i` is member position
    /// `grid.bucket[i]`, and cell `c` owns rows `grid.starts[c]..grid.starts[c + 1]`.
    rows: Vec<S>,
    /// The relax slots (each member's comparison-space distance to its
    /// nearest center so far), in the cell order of `rows`.
    slots: Vec<S>,
    /// Per occupied cell, ascending: `(cell, best position, best value)`,
    /// the lowest-position argmax of the cell's slots.  Starts at
    /// `(cell, first member, +inf)` — every slot is `+inf` before the first
    /// relax pass.
    cells: Vec<(u32, u32, S)>,
}

impl<S: Scalar> GridRelaxer<S> {
    /// Buckets `members` (the relax subset, positions `0..members.len()`)
    /// of `space` at [`RELAX_OCCUPANCY`] and copies their rows into cell
    /// order.  `None` when [`SpatialGrid::build`] refuses the space, and
    /// when only one cell is occupied: that cell can never be skipped, so
    /// the dense scan does the same work without the copy.
    pub fn build<D: Distance>(
        space: &VecSpace<D, S>,
        members: &[PointId],
    ) -> Option<GridRelaxer<S>> {
        let grid = SpatialGrid::build(space, members, RELAX_OCCUPANCY)?;
        let cells: Vec<(u32, u32, S)> = (0..grid.cells())
            .filter(|&c| grid.starts[c] < grid.starts[c + 1])
            .map(|c| (c as u32, grid.bucket[grid.starts[c] as usize], S::INFINITY))
            .collect();
        if cells.len() < 2 {
            return None;
        }
        let rows = grid
            .bucket
            .iter()
            .flat_map(|&pos| space.row(members[pos as usize]))
            .copied()
            .collect();
        Some(GridRelaxer {
            slots: vec![S::INFINITY; members.len()],
            rows,
            grid,
            cells,
        })
    }

    /// One fused Gonzalez iteration, bit-identical to
    /// [`VecSpace::relax_max`] over the members the relaxer was built on
    /// (lower each member's slot to its distance to `center`, return the
    /// lowest-position maximum slot) whenever the kernel gives each row
    /// the bits the dense scan gives it — see the module docs for the
    /// backend caveat.
    pub fn relax_max<D: Distance>(
        &mut self,
        space: &VecSpace<D, S>,
        center: PointId,
    ) -> (usize, S) {
        let grid = &self.grid;
        let dim = grid.dim;
        let center_row = space.row(center);
        for (cell, best_pos, best) in &mut self.cells {
            let cell = *cell as usize;
            // No member of this cell can get closer than the box bound; if
            // even that (with comparison-rounding slack) cannot undercut
            // the cell's current maximum slot, no slot in the cell changes
            // and the cached record stays exact.
            if grid.lb_dist2(cell, center_row) * (1.0 - grid.cmp_slack) >= best.to_f64() {
                continue;
            }
            let span = grid.starts[cell] as usize..grid.starts[cell + 1] as usize;
            let (i, v) = space.metric().relax_rows_max(
                &self.rows[span.start * dim..span.end * dim],
                dim,
                center_row,
                &mut self.slots[span.clone()],
            );
            (*best_pos, *best) = (grid.bucket[span.start + i], v);
        }
        let mut far = (usize::MAX, S::NEG_INFINITY);
        for &(_, p, v) in &self.cells {
            if v > far.1 || (v == far.1 && (p as usize) < far.0) {
                far = (p as usize, v);
            }
        }
        if far.0 == usize::MAX {
            (0, S::NEG_INFINITY)
        } else {
            far
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Euclidean, Manhattan};
    use crate::flat::FlatPoints;

    /// Deterministic integer-lattice coordinates: squared distances stay
    /// exactly representable at f32, so grid/dense parity is exact under
    /// every kernel backend.
    fn lattice_flat<S: Scalar>(n: usize, dim: usize, seed: u64) -> FlatPoints<S> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coords = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            coords.push(S::from_f64((next() % 1000) as f64));
        }
        FlatPoints::from_coords(coords, dim).unwrap()
    }

    fn dense_nearest<D: Distance, S: Scalar>(
        space: &VecSpace<D, S>,
        members: &[PointId],
        query: PointId,
    ) -> (usize, S) {
        let mut best = (0usize, S::INFINITY);
        for (i, &m) in members.iter().enumerate() {
            let d = space.cmp_distance(query, m);
            if d < best.1 {
                best = (i, d);
            }
        }
        best
    }

    #[test]
    fn choice_parses_and_rejects() {
        assert_eq!(AssignChoice::parse("auto").unwrap(), AssignChoice::Auto);
        assert_eq!(
            AssignChoice::parse("DENSE").unwrap(),
            AssignChoice::Fixed(AssignMode::Dense)
        );
        assert_eq!(
            AssignChoice::parse("grid").unwrap(),
            AssignChoice::Fixed(AssignMode::Grid)
        );
        let err = AssignChoice::parse("quadtree").unwrap_err();
        assert_eq!(
            err,
            AssignSelectError::Unknown {
                value: "quadtree".into()
            }
        );
        assert!(err.to_string().contains("quadtree"));
        assert_eq!(AssignChoice::Fixed(AssignMode::Grid).name(), "grid");
    }

    #[test]
    fn auto_mode_prefers_dense_for_small_shapes() {
        // Tiny scans and zero-dimensional shapes stay dense.
        for kind in [ScanKind::Assign, ScanKind::Relax] {
            for (points, candidates, dim) in [
                (100, 1000, 2),
                (1 << 20, 2, 2),
                (1 << 20, 1000, 0),
                (1 << 20, 1000, 64),
            ] {
                let shape = ScanShape {
                    kind,
                    points,
                    candidates,
                    dim,
                };
                assert_eq!(auto_mode(shape), AssignMode::Dense, "{shape:?}");
            }
            let shape = ScanShape {
                kind,
                points: 1 << 20,
                candidates: 1 << 12,
                dim: 2,
            };
            assert_eq!(auto_mode(shape), AssignMode::Grid, "{shape:?}");
        }
    }

    #[test]
    fn auto_mode_reads_the_next_probed_dimension_up() {
        for (kind, table) in [
            (ScanKind::Assign, &ASSIGN_CROSSOVER[..]),
            (ScanKind::Relax, &RELAX_CROSSOVER[..]),
        ] {
            // Every dimension above the previous probed one reads this
            // record.
            let mut below = 0;
            for &(n, dim, crossover) in table {
                if dim <= below {
                    below = 0; // the rows of the next probed `n` start over
                }
                for d in below + 1..=dim {
                    for candidates in (1..=64).chain([1 << 10, 1 << 14]) {
                        let want = match crossover {
                            Some(k) if candidates >= k => AssignMode::Grid,
                            _ => AssignMode::Dense,
                        };
                        let shape = ScanShape {
                            kind,
                            points: n,
                            candidates,
                            dim: d,
                        };
                        assert_eq!(auto_mode(shape), want, "{shape:?}");
                    }
                }
                below = dim;
            }
        }
    }

    #[test]
    fn scan_telemetry_counts_both_arms() {
        reset_scan_counts();
        note_scan(AssignMode::Grid);
        note_scan(AssignMode::Grid);
        note_scan(AssignMode::Dense);
        assert_eq!(scan_counts(), (2, 1));
        reset_scan_counts();
        assert_eq!(scan_counts(), (0, 0));
    }

    #[test]
    fn build_refuses_degenerate_inputs() {
        // All-duplicate members: every extent is zero.
        let flat = FlatPoints::from_coords(vec![3.0, 4.0, 3.0, 4.0, 3.0, 4.0], 2).unwrap();
        let space = VecSpace::from_flat(flat);
        assert!(SpatialGrid::build(&space, &[0, 1, 2], NEAREST_OCCUPANCY).is_none());
        // Empty member list.
        assert!(SpatialGrid::build(&space, &[], NEAREST_OCCUPANCY).is_none());
        // Non-Euclidean surrogate: box bounds would be invalid.
        let flat = FlatPoints::from_coords(vec![0.0, 0.0, 5.0, 1.0], 2).unwrap();
        let manhattan = VecSpace::from_flat_with_distance(flat, Manhattan);
        assert!(SpatialGrid::build(&manhattan, &[0, 1], NEAREST_OCCUPANCY).is_none());
    }

    #[test]
    fn duplicate_heavy_but_not_degenerate_data_builds_and_matches() {
        // One dimension collapses to a point; the other carries extent.
        let mut coords = Vec::new();
        for i in 0..64 {
            coords.push(7.0);
            coords.push((i % 4) as f64);
        }
        let flat = FlatPoints::from_coords(coords, 2).unwrap();
        let space = VecSpace::from_flat(flat);
        let members: Vec<PointId> = (0..64).collect();
        let grid = SpatialGrid::build(&space, &members, NEAREST_OCCUPANCY).unwrap();
        for q in 0..64 {
            assert_eq!(
                grid.nearest_member(&space, &members, q),
                dense_nearest(&space, &members, q),
                "query {q}"
            );
        }
    }

    #[test]
    fn nearest_member_matches_dense_argmin_with_ties() {
        let flat = lattice_flat::<f64>(256, 3, 11);
        let space = VecSpace::from_flat(flat);
        // Members: a strided candidate subset (with deliberate duplicate
        // coordinates from the small lattice forcing distance ties).
        let members: Vec<PointId> = (0..256).step_by(3).collect();
        let grid = SpatialGrid::build(&space, &members, NEAREST_OCCUPANCY).unwrap();
        for q in 0..256 {
            assert_eq!(
                grid.nearest_member(&space, &members, q),
                dense_nearest(&space, &members, q),
                "query {q}"
            );
        }
    }

    #[test]
    fn nearest_member_matches_dense_at_f32() {
        let flat = lattice_flat::<f32>(300, 4, 23);
        let space: VecSpace<Euclidean, f32> = VecSpace::from_flat(flat);
        let members: Vec<PointId> = (0..300).step_by(7).collect();
        let grid = SpatialGrid::build(&space, &members, NEAREST_OCCUPANCY).unwrap();
        for q in 0..300 {
            assert_eq!(
                grid.nearest_member(&space, &members, q),
                dense_nearest(&space, &members, q),
                "query {q}"
            );
        }
    }

    #[test]
    fn wide_nearest_bounded_is_exact_above_stop_and_upper_bound_below() {
        let flat = lattice_flat::<f64>(200, 2, 5);
        let space = VecSpace::from_flat(flat);
        let members: Vec<PointId> = (0..200).step_by(5).collect();
        let grid = SpatialGrid::build(&space, &members, NEAREST_OCCUPANCY).unwrap();
        for q in 0..200 {
            let exact = space.wide_cmp_distance_to_set(q, &members);
            // Threshold below the minimum: exact.
            let got = grid.wide_nearest_bounded(&space, &members, q, -1.0);
            assert_eq!(got, exact, "query {q}");
            // Generous threshold: never understates.
            let bounded = grid.wide_nearest_bounded(&space, &members, q, f64::INFINITY);
            assert!(bounded >= exact, "query {q}");
        }
    }

    /// The relaxer's slots in member-position order.
    fn member_slots<S: Scalar>(relaxer: &GridRelaxer<S>) -> Vec<S> {
        let mut slots = vec![S::NEG_INFINITY; relaxer.slots.len()];
        for (&pos, &v) in relaxer.grid.bucket.iter().zip(&relaxer.slots) {
            slots[pos as usize] = v;
        }
        slots
    }

    /// Runs `rounds` Gonzalez steps from `first` on the grid relaxer and on
    /// the dense [`VecSpace::relax_max`], asserting that every step returns
    /// the same `(position, value)` and leaves the same slots; returns the
    /// grid trajectory's winners.
    fn assert_relax_parity<S: Scalar>(
        space: &VecSpace<Euclidean, S>,
        members: &[PointId],
        first: PointId,
        rounds: usize,
    ) -> Vec<(usize, S)> {
        let mut relaxer = GridRelaxer::build(space, members).expect("the members span cells");
        let mut dense_nearest = vec![S::INFINITY; members.len()];
        let mut center = first;
        let mut winners = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let g = relaxer.relax_max(space, center);
            let d = space.relax_max(Some(members), center, &mut dense_nearest, false);
            assert_eq!(g, d, "round {round}");
            assert_eq!(member_slots(&relaxer), dense_nearest, "round {round}");
            winners.push(g);
            center = members[g.0];
        }
        winners
    }

    #[test]
    fn relax_trajectory_matches_dense_over_many_centers() {
        let space = VecSpace::from_flat(lattice_flat::<f64>(512, 2, 42));
        let members: Vec<PointId> = (0..512).collect();
        assert_relax_parity(&space, &members, 17, 24);
    }

    #[test]
    fn relax_trajectory_matches_dense_at_f32_with_duplicates() {
        let mut flat = lattice_flat::<f32>(400, 3, 9);
        // Duplicate a block of rows to force exact ties in the argmax.
        for i in 0..40 {
            let row: Vec<f32> = flat.row(i).to_vec();
            flat.push_row(&row);
        }
        let space: VecSpace<Euclidean, f32> = VecSpace::from_flat(flat);
        let members: Vec<PointId> = (0..440).collect();
        assert_relax_parity(&space, &members, 3, 16);
    }

    #[test]
    fn relax_handles_non_identity_subsets() {
        let space = VecSpace::from_flat(lattice_flat::<f64>(600, 4, 77));
        let members: Vec<PointId> = (0..600).step_by(2).collect();
        assert_relax_parity(&space, &members, members[5], 12);
    }

    #[test]
    fn one_occupied_cell_falls_back_to_the_dense_scan() {
        // d = 16: `floor((n / RELAX_OCCUPANCY)^(1/16))` is 1 up to 2^18
        // members, so the grid is one cell, which no center can skip.
        let space = VecSpace::from_flat(lattice_flat::<f64>(1 << 10, 16, 5));
        let members: Vec<PointId> = (0..1 << 10).collect();
        let grid = SpatialGrid::build(&space, &members, RELAX_OCCUPANCY).unwrap();
        assert_eq!(grid.cells(), 1);
        assert!(GridRelaxer::build(&space, &members).is_none());
        // The same count at d = 2 spans many cells and builds.
        let space = VecSpace::from_flat(lattice_flat::<f64>(1 << 10, 2, 5));
        assert!(GridRelaxer::build(&space, &members).is_some());
    }

    /// Clustered rows the way a stream's coreset holds them: 25 tight
    /// clusters of continuous coordinates in `[0, 1000]^dim`, so occupied
    /// cells hold tens of members, plus three planted rows.  Row 0 is the
    /// integer point `500·1`; rows 1 and 2 are its integer mirror images
    /// `500·1 ± δ` far outside the clusters, in opposite corner cells, and
    /// tie exactly as the farthest rows from it.  The last `dups` rows
    /// copy rows `3 + 24·j`, tying with them inside one cell.
    fn clustered_rows(n: usize, dim: usize, dups: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let centres: Vec<f64> = (0..25 * dim).map(|_| unit() * 1000.0).collect();
        let mut coords = Vec::with_capacity(n * dim);
        for sign in [0.0, 1.0, -1.0] {
            coords.extend((0..dim).map(|i| 500.0 + sign * (1500.0 - 400.0 * i as f64)));
        }
        for p in 3..n - dups {
            let c = (p % 25) * dim;
            coords.extend((0..dim).map(|i| centres[c + i] + (unit() - 0.5) * 20.0));
        }
        for j in 0..dups {
            let src = (3 + 24 * j) * dim;
            coords.extend_from_within(src..src + dim);
        }
        coords
    }

    #[test]
    fn cell_sliced_relax_matches_dense_at_coreset_scale() {
        use crate::kernel::simd::{self, KernelBackend, SimdScalar};
        const N: usize = 1050;
        const DUPS: usize = 40;
        let prior = simd::active();
        for backend in simd::available_backends() {
            simd::set_active(backend).unwrap();
            for dim in [2usize, 3, 4] {
                let coords = clustered_rows(N, dim, DUPS, 7 + dim as u64);
                let all: Vec<PointId> = (0..N).collect();
                let reversed: Vec<PointId> = (0..N).rev().collect();
                let gapped: Vec<PointId> = (0..N).filter(|p| p % 7 != 4).collect();
                for members in [&all, &reversed, &gapped] {
                    // k = members - 50, as a re-compression selects 1,000
                    // of ~1,050 rows.
                    let rounds = members.len() - 51;
                    macro_rules! check {
                        ($s:ty) => {{
                            // The module's caveat: the AVX2 rows kernel
                            // sums a row in a 4-row block or alone by its
                            // place in the slice.
                            if backend != KernelBackend::Avx2 || dim < <$s>::LANES {
                                let flat = FlatPoints::from_coords(
                                    coords.iter().map(|&c| <$s>::from_f64(c)).collect(),
                                    dim,
                                )
                                .unwrap();
                                let space = VecSpace::from_flat(flat);
                                let relaxer = GridRelaxer::build(&space, members).unwrap();
                                let cell_of = |p: PointId| relaxer.grid.cell_of(space.row(p));
                                assert_ne!(cell_of(1), cell_of(2), "mirror rows share a cell");
                                let winners = assert_relax_parity(&space, members, 0, rounds);
                                // The mirror rows tie across two cells as the
                                // first farthest rows; the lower position wins.
                                let pos = |p| members.iter().position(|&m| m == p).unwrap();
                                assert_eq!(winners[0].0, pos(1).min(pos(2)), "{backend} d={dim}");
                                assert_eq!(winners[1].0, pos(1).max(pos(2)), "{backend} d={dim}");
                                // Some duplicate was picked while its twin,
                                // in the same cell, tied with it.
                                let twins = (0..DUPS).any(|j| {
                                    let (Some(a), Some(b)) = (
                                        members.iter().position(|&m| m == 3 + 24 * j),
                                        members.iter().position(|&m| m == N - DUPS + j),
                                    ) else {
                                        return false;
                                    };
                                    assert_eq!(cell_of(members[a]), cell_of(members[b]));
                                    winners.iter().any(|w| w.0 == a.min(b))
                                });
                                assert!(twins, "{backend} d={dim}: no duplicate tie was exercised");
                            }
                        }};
                    }
                    check!(f64);
                    check!(f32);
                }
            }
        }
        simd::set_active(prior).unwrap();
    }

    #[test]
    fn grid_shape_is_bounded_by_member_count() {
        let flat = lattice_flat::<f64>(1000, 2, 1);
        let space = VecSpace::from_flat(flat);
        let members: Vec<PointId> = (0..1000).collect();
        let grid = SpatialGrid::build(&space, &members, NEAREST_OCCUPANCY).unwrap();
        assert!(grid.cells() <= 1000 / NEAREST_OCCUPANCY);
        assert_eq!(grid.len(), 1000);
        assert!(!grid.is_empty());
        assert_eq!(grid.dim(), 2);
    }
}
