//! The cost model — the paper's cost formula and **Table 2**.
//!
//! `COST = PAGE FETCHES + W * (RSI CALLS)`: "a weighted measure of I/O
//! (pages fetched) and CPU utilization (instructions executed)", with the
//! number of RSI calls standing in for CPU because "most of System R's CPU
//! time is spent in the RSS" (§4).
//!
//! [`Cost`] keeps the two components separate so EXPLAIN can show them and
//! experiments can compare against the executor's measured [`IoStats`];
//! comparison applies the weighting factor `W`.
//!
//! [`CostModel`] implements each situation of Table 2, including the
//! alternative formulas "depending on whether the set of tuples retrieved
//! will fit entirely in the RSS buffer pool".

use crate::num::{card_f64, len_f64, pages_ceil};
use std::fmt;
use std::ops::{Add, AddAssign};
use sysr_rss::{IoStats, MAX_BATCH, PAGE_HEADER_SIZE, PAGE_SIZE};

/// A predicted cost: expected page fetches plus expected RSI calls.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    pub pages: f64,
    pub rsi: f64,
}

impl Cost {
    pub const ZERO: Cost = Cost { pages: 0.0, rsi: 0.0 };

    pub fn new(pages: f64, rsi: f64) -> Self {
        let c = Cost { pages, rsi };
        debug_assert!(c.is_finite(), "non-finite cost constructed: {pages} pages, {rsi} rsi");
        c
    }

    /// Both components are finite (neither NaN nor infinite). The DP's
    /// pruning comparisons are only sound over finite costs — a NaN
    /// compares false against everything and silently survives every
    /// `min`, so arithmetic below asserts this in debug builds and the
    /// audit crate re-checks it on every emitted plan.
    pub fn is_finite(&self) -> bool {
        self.pages.is_finite() && self.rsi.is_finite()
    }

    /// The scalar cost under weighting factor `w`.
    pub fn total(&self, w: f64) -> f64 {
        debug_assert!(self.is_finite(), "total() on non-finite cost {self}");
        self.pages + w * self.rsi
    }

    /// Cost of repeating this `n` times (the `N * C-inner` term of the join
    /// formulas).
    pub fn times(&self, n: f64) -> Cost {
        debug_assert!(n.is_finite() && n >= 0.0, "cost repeated {n} times");
        let c = Cost { pages: self.pages * n, rsi: self.rsi * n };
        debug_assert!(c.is_finite(), "times({n}) overflowed: {self}");
        c
    }

    /// The cost actually measured by the executor, for
    /// predicted-vs-measured comparisons.
    pub fn from_io(io: &IoStats) -> Cost {
        Cost { pages: card_f64(io.page_fetches()), rsi: card_f64(io.rsi_calls) }
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        let c = Cost { pages: self.pages + rhs.pages, rsi: self.rsi + rhs.rsi };
        debug_assert!(c.is_finite(), "cost sum went non-finite: {self} + {rhs}");
        c
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} pages + W\u{b7}{:.1} rsi", self.pages, self.rsi)
    }
}

/// Usable bytes per temp-list page, mirroring [`sysr_rss::TempList`].
const TEMP_PAGE_BYTES: f64 = card_f64((PAGE_SIZE - PAGE_HEADER_SIZE) as u64);

/// Cardenas' approximation of the number of **distinct pages** touched
/// when `tuples` random tuples are fetched from a relation spread over
/// `pages` pages: `pages * (1 - (1 - 1/pages)^tuples)`. Approaches
/// `tuples` when sparse and saturates at `pages`.
pub fn distinct_pages(tuples: f64, pages: f64) -> f64 {
    if pages <= 1.0 {
        return pages.clamp(0.0, 1.0) * if tuples > 0.0 { 1.0 } else { 0.0 };
    }
    if tuples <= 0.0 {
        return 0.0;
    }
    pages * (1.0 - (1.0 - 1.0 / pages).powf(tuples))
}

/// Predicted `TEMPPAGES`: pages needed to hold `rows` tuples of `width`
/// bytes each. The fractional byte count rounds up through the checked
/// [`pages_ceil`] lift, so the estimate is always a whole page count
/// (one byte past a page boundary costs a full extra page) and survives
/// junk inputs — NaN widths behave like empty inputs instead of
/// propagating into the DP's pruning comparisons.
pub fn temp_pages(rows: f64, width: f64) -> f64 {
    if rows <= 0.0 {
        return 0.0;
    }
    card_f64(pages_ceil(rows * width.max(1.0) / TEMP_PAGE_BYTES)).max(1.0)
}

/// Rows the executor's segmented sort orders in memory without spilling
/// — derived from the shared RSI batch size ([`sysr_rss::MAX_BATCH`]),
/// which is exactly the run size `exec_sort` holds in memory before it
/// spills a run to a temp list. Deriving (rather than restating) the
/// constant keeps the cost model and the executor moving together.
pub const SORT_RUN_MEMORY_ROWS: f64 = card_f64(MAX_BATCH as u64);

/// Extra cost of a partial (run-segmented) sort over its input, plus the
/// predicted temp pages per spilled run × run count.
///
/// The input arrives grouped into `run_count` runs by an already-ordered
/// prefix of the sort key, so only tuples *within* a run need ordering:
///
/// * **CPU** — the whole-input sort's comparison work is `N·log₂N`; per
///   run it is `Σ nᵢ·log₂nᵢ ≈ N·log₂(N/runs)`. The full sort charges one
///   RSI-equivalent per tuple ([`CostModel::sort`] read-back); the
///   partial sort scales that per-tuple charge by the comparison ratio
///   `log₂(N/runs) / log₂(N)`, which also stands in for the read-back
///   that spilled runs still pay.
/// * **I/O** — runs that fit the executor's in-memory batch
///   ([`SORT_RUN_MEMORY_ROWS`]) spill nothing; oversized runs write and
///   read back run-sized temp lists instead of whole-input `TEMPPAGES`.
pub fn partial_sort_delta(rows: f64, width: f64, run_count: f64) -> (Cost, f64) {
    if rows <= 0.0 {
        return (Cost::ZERO, 0.0);
    }
    let runs = run_count.clamp(1.0, rows);
    let run_rows = rows / runs;
    let cpu = rows * (run_rows.max(2.0).log2() / rows.max(2.0).log2()).min(1.0);
    let tp =
        if run_rows <= SORT_RUN_MEMORY_ROWS { 0.0 } else { runs * temp_pages(run_rows, width) };
    (Cost::new(2.0 * tp, cpu), tp)
}

/// Table 2 cost formulas.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// The adjustable weighting factor between I/O and CPU.
    pub w: f64,
    /// Effective buffer pool pages per user, for the "fits in the buffer"
    /// variants.
    pub buffer_pages: f64,
}

impl CostModel {
    pub fn new(w: f64, buffer_pages: usize) -> Self {
        CostModel { w, buffer_pages: len_f64(buffer_pages) }
    }

    pub fn total(&self, c: Cost) -> f64 {
        c.total(self.w)
    }

    /// Strictly cheaper under this model's W.
    pub fn better(&self, a: Cost, b: Cost) -> bool {
        self.total(a) < self.total(b)
    }

    /// Table 2, "unique index matching an equal predicate": `1 + 1 + W`.
    /// One index probe page, one data page, one tuple.
    pub fn unique_index_eq(&self) -> Cost {
        Cost { pages: 2.0, rsi: 1.0 }
    }

    /// Table 2, "clustered index I matching one or more boolean factors":
    /// `F(preds) * (NINDX(I) + TCARD) + W * RSICARD`.
    pub fn clustered_matching(&self, f_preds: f64, nindx: f64, tcard: f64, rsicard: f64) -> Cost {
        if mutant::cost_monotone_armed() {
            // Seeded fault for the `--mutant cost-monotone` drill: page cost
            // dips back down past TCARD = 500, violating "cost non-decreasing
            // in the relation cardinality". Dead code unless the cost-props
            // harness arms it.
            return Cost { pages: f_preds * (nindx + (tcard - 500.0).abs()), rsi: rsicard };
        }
        Cost { pages: f_preds * (nindx + tcard), rsi: rsicard }
    }

    /// Table 2, "non-clustered index I matching one or more boolean
    /// factors": `F(preds) * (NINDX(I) + NCARD) + W * RSICARD`, **or** the
    /// cheaper buffered variant "if this number fits in the System R
    /// buffer".
    ///
    /// The paper writes the buffered data-page term as `F * TCARD`, which
    /// implicitly assumes the matching tuples are co-located on an `F`
    /// fraction of the pages. For non-clustered indexes the matches are
    /// scattered, so we estimate the distinct pages touched with the
    /// Cardenas/Yao approximation instead (see
    /// [`distinct_pages`]); [`CostModel::nonclustered_matching_paper`]
    /// keeps the literal 1979 formula for the Table 2 regeneration bench.
    /// DESIGN.md §6 records this as a deliberate refinement: without it
    /// the optimizer systematically underestimates scattered index probes
    /// and loses the §7 optimality experiment that the paper's System R
    /// won.
    pub fn nonclustered_matching(
        &self,
        f_preds: f64,
        nindx: f64,
        ncard: f64,
        tcard: f64,
        rsicard: f64,
    ) -> Cost {
        let small = f_preds * nindx + distinct_pages(f_preds * ncard, tcard);
        let big = f_preds * (nindx + ncard);
        let pages = if small <= self.buffer_pages { small } else { big };
        Cost { pages, rsi: rsicard }
    }

    /// The literal Table 2 formula for the non-clustered matching case,
    /// exactly as published: `F*(NINDX+NCARD)`, or `F*(NINDX+TCARD)` if
    /// that fits in the buffer.
    pub fn nonclustered_matching_paper(
        &self,
        f_preds: f64,
        nindx: f64,
        ncard: f64,
        tcard: f64,
        rsicard: f64,
    ) -> Cost {
        let small = f_preds * (nindx + tcard);
        let big = f_preds * (nindx + ncard);
        let pages = if small <= self.buffer_pages { small } else { big };
        Cost { pages, rsi: rsicard }
    }

    /// Table 2, "clustered index I not matching any boolean factors":
    /// `(NINDX(I) + TCARD) + W * RSICARD`.
    pub fn clustered_nonmatching(&self, nindx: f64, tcard: f64, rsicard: f64) -> Cost {
        Cost { pages: nindx + tcard, rsi: rsicard }
    }

    /// Table 2, "non-clustered index I not matching any boolean factors":
    /// `(NINDX(I) + NCARD) + W * RSICARD`, or `(NINDX(I) + TCARD)` if that
    /// fits in the buffer.
    pub fn nonclustered_nonmatching(
        &self,
        nindx: f64,
        ncard: f64,
        tcard: f64,
        rsicard: f64,
    ) -> Cost {
        let small = nindx + tcard;
        let big = nindx + ncard;
        let pages = if small <= self.buffer_pages { small } else { big };
        Cost { pages, rsi: rsicard }
    }

    /// Table 2, "segment scan": `TCARD/P + W * RSICARD`. `TCARD/P` is every
    /// non-empty page of the segment, whether or not the relation's tuples
    /// are on it.
    pub fn segment_scan(&self, tcard: f64, p: f64, rsicard: f64) -> Cost {
        let pages = if p > 0.0 { tcard / p } else { tcard };
        Cost { pages, rsi: rsicard }
    }

    /// C-sort(path): "the cost of retrieving the data using the specified
    /// access path, sorting the data, ... and putting the results into a
    /// temporary list" (§5). Our executor sorts in memory, so the I/O is
    /// the input cost plus writing TEMPPAGES; the per-tuple CPU of the sort
    /// is charged as one RSI call per tuple inserted into the list.
    pub fn sort(&self, input: Cost, rows: f64, width: f64) -> (Cost, f64) {
        let pages = temp_pages(rows, width);
        (input + Cost { pages, rsi: 0.0 }, pages)
    }

    /// C-inner(sorted list) = `TEMPPAGES/N + W*RSICARD` — the per-probe
    /// cost of the merging scan against a sorted temporary list, where
    /// RSICARD here is the matching group size per outer tuple.
    pub fn merge_inner_sorted(&self, temppages: f64, n_outer: f64, group_rsi: f64) -> Cost {
        let n = n_outer.max(1.0);
        Cost { pages: temppages / n, rsi: group_rsi }
    }
}

/// Mutation hooks for the audit crate's `--mutant cost-monotone` drill
/// (the PR-7 pattern: the fault ships in-tree but is dead until the
/// verifying harness arms it, proving the verifier would catch a real
/// regression of the same shape).
pub mod mutant {
    use std::sync::atomic::{AtomicBool, Ordering};

    static COST_MONOTONE: AtomicBool = AtomicBool::new(false);

    /// Arm or disarm the non-monotone `clustered_matching` variant. Only
    /// the cost-property verifier calls this; it disarms before returning.
    pub fn arm_cost_monotone(on: bool) {
        COST_MONOTONE.store(on, Ordering::SeqCst);
    }

    pub(super) fn cost_monotone_armed() -> bool {
        COST_MONOTONE.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(0.1, 50)
    }

    #[test]
    fn total_weights_rsi() {
        let c = Cost::new(10.0, 100.0);
        assert_eq!(c.total(0.1), 20.0);
        assert_eq!(c.total(0.0), 10.0);
    }

    #[test]
    fn add_and_times() {
        let c = Cost::new(1.0, 2.0) + Cost::new(3.0, 4.0);
        assert_eq!(c, Cost::new(4.0, 6.0));
        assert_eq!(Cost::new(1.0, 2.0).times(10.0), Cost::new(10.0, 20.0));
    }

    #[test]
    fn is_finite_detects_nan_and_infinity() {
        assert!(Cost::new(1.0, 2.0).is_finite());
        assert!(Cost::ZERO.is_finite());
        assert!(!Cost { pages: f64::NAN, rsi: 0.0 }.is_finite());
        assert!(!Cost { pages: 0.0, rsi: f64::INFINITY }.is_finite());
        assert!(!Cost { pages: f64::NEG_INFINITY, rsi: 0.0 }.is_finite());
    }

    #[test]
    fn unique_index_is_paper_formula() {
        // 1 + 1 + W
        let m = model();
        let c = m.unique_index_eq();
        assert_eq!(m.total(c), 2.0 + 0.1);
    }

    #[test]
    fn clustered_matching_formula() {
        let m = model();
        // F=0.02, NINDX=20, TCARD=100 → 0.02*120 = 2.4 pages
        let c = m.clustered_matching(0.02, 20.0, 100.0, 200.0);
        assert!((c.pages - 2.4).abs() < 1e-12);
        assert_eq!(c.rsi, 200.0);
    }

    #[test]
    fn nonclustered_buffer_fit_switches_formula() {
        let m = model(); // buffer = 50 pages
                         // Very selective: F=0.001 retrieves 10 of 10000 tuples scattered
                         // over 400 pages → ~10 distinct pages; fits in the buffer.
        let c = m.nonclustered_matching(0.001, 20.0, 10_000.0, 400.0, 10.0);
        assert!(c.pages > 9.0 && c.pages < 11.0, "pages={}", c.pages);
        // Unselective: F=0.5 → the buffered estimate exceeds the pool, so
        // the per-tuple formula applies: 0.5 * (20 + 10000) = 5010.
        let c = m.nonclustered_matching(0.5, 20.0, 10_000.0, 400.0, 5000.0);
        assert!((c.pages - 5010.0).abs() < 1e-12);
    }

    #[test]
    fn paper_variant_keeps_literal_formula() {
        let m = model();
        // The published Table 2 text: F*(NINDX+TCARD) = 0.1*420 = 42 ≤ 50.
        let c = m.nonclustered_matching_paper(0.1, 20.0, 10_000.0, 400.0, 1000.0);
        assert!((c.pages - 42.0).abs() < 1e-12);
        let c = m.nonclustered_matching_paper(0.5, 20.0, 10_000.0, 400.0, 5000.0);
        assert!((c.pages - 5010.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_pages_estimate() {
        // Sparse: ~one page per tuple.
        assert!((distinct_pages(5.0, 10_000.0) - 5.0).abs() < 0.01);
        // Saturating: cannot exceed the page count.
        assert!(distinct_pages(1_000_000.0, 50.0) <= 50.0);
        assert!(distinct_pages(1_000_000.0, 50.0) > 49.9);
        // Edge cases.
        assert_eq!(distinct_pages(0.0, 100.0), 0.0);
        assert_eq!(distinct_pages(10.0, 0.0), 0.0);
        assert_eq!(distinct_pages(3.0, 1.0), 1.0);
        // Monotone in tuples.
        assert!(distinct_pages(100.0, 200.0) < distinct_pages(150.0, 200.0));
    }

    #[test]
    fn clustered_beats_nonclustered_same_stats() {
        let m = CostModel::new(0.1, 1); // tiny buffer: no fit variant
        let cl = m.clustered_matching(0.1, 20.0, 400.0, 1000.0);
        let ncl = m.nonclustered_matching(0.1, 20.0, 10_000.0, 400.0, 1000.0);
        assert!(m.better(cl, ncl));
        let ncl_paper = m.nonclustered_matching_paper(0.1, 20.0, 10_000.0, 400.0, 1000.0);
        assert!(m.better(cl, ncl_paper));
    }

    #[test]
    fn segment_scan_divides_by_p() {
        let m = model();
        let c = m.segment_scan(100.0, 0.5, 500.0);
        assert_eq!(c.pages, 200.0);
        let c = m.segment_scan(100.0, 1.0, 500.0);
        assert_eq!(c.pages, 100.0);
    }

    #[test]
    fn temp_pages_rounds_up() {
        assert_eq!(temp_pages(0.0, 50.0), 0.0);
        assert_eq!(temp_pages(1.0, 50.0), 1.0);
        // 1000 rows * 50B = 50_000B / 4080 = 12.25 → 13.
        assert_eq!(temp_pages(1000.0, 50.0), 13.0);
    }

    #[test]
    fn temp_pages_fractional_page_boundary() {
        // TEMP_PAGE_BYTES = 4096 - 16 = 4080 usable bytes. Exactly one
        // page's worth of rows stays one page; a single extra byte tips
        // over into a second page — the checked pages_ceil path must not
        // round that boundary down.
        assert_eq!(temp_pages(4080.0, 1.0), 1.0);
        assert_eq!(temp_pages(4081.0, 1.0), 2.0);
        assert_eq!(temp_pages(8160.0, 1.0), 2.0);
        assert_eq!(temp_pages(8161.0, 1.0), 3.0);
        // Whatever temp_pages returns is a whole page count.
        for (rows, width) in [(7.0, 3.0), (999.0, 17.0), (0.5, 0.25), (12345.0, 61.0)] {
            let tp = temp_pages(rows, width);
            assert_eq!(tp.fract(), 0.0, "temp_pages({rows},{width}) = {tp} not integral");
        }
        // NaN width behaves like the empty input rather than poisoning
        // the DP with a NaN cost.
        assert_eq!(temp_pages(10.0, f64::NAN), 1.0);
    }

    #[test]
    fn sort_run_threshold_tracks_executor_batch_size() {
        assert_eq!(SORT_RUN_MEMORY_ROWS, len_f64(MAX_BATCH));
        assert_eq!(SORT_RUN_MEMORY_ROWS, 1024.0);
    }

    #[test]
    fn sort_adds_temp_write() {
        let m = model();
        let (c, pages) = m.sort(Cost::new(10.0, 100.0), 1000.0, 50.0);
        assert_eq!(pages, 13.0);
        assert_eq!(c.pages, 23.0);
        assert_eq!(c.rsi, 100.0);
    }

    #[test]
    fn partial_sort_in_memory_runs_cost_no_temp_pages() {
        // 1000 rows in 10 runs of 100: every run fits in memory, so the
        // delta is pure CPU, discounted by log(run)/log(rows).
        let (delta, tp) = partial_sort_delta(1000.0, 50.0, 10.0);
        assert_eq!(tp, 0.0);
        assert_eq!(delta.pages, 0.0);
        let expected = 1000.0 * (100.0_f64.log2() / 1000.0_f64.log2());
        assert!((delta.rsi - expected).abs() < 1e-9, "rsi={}", delta.rsi);
        assert!(delta.rsi < 1000.0, "partial CPU must undercut the full sort's");
    }

    #[test]
    fn partial_sort_oversized_runs_spill_per_run() {
        // 4000 rows in 2 runs of 2000 (> SORT_RUN_MEMORY_ROWS): each run
        // writes and reads back its own temp pages.
        let (delta, tp) = partial_sort_delta(4000.0, 50.0, 2.0);
        assert_eq!(tp, 2.0 * temp_pages(2000.0, 50.0));
        assert_eq!(delta.pages, 2.0 * tp);
    }

    #[test]
    fn partial_sort_with_one_run_degenerates_to_full_sort() {
        // A single run spans the whole input, so the delta matches the
        // order-enforcement full sort exactly: TEMPPAGES written + read
        // back, one RSI call per tuple (`join::sort_cost`).
        let (delta, tp) = partial_sort_delta(5000.0, 50.0, 1.0);
        assert_eq!(tp, temp_pages(5000.0, 50.0));
        assert_eq!(delta, Cost::new(2.0 * tp, 5000.0));
    }

    #[test]
    fn partial_sort_run_count_clamps_to_rows() {
        // More runs than rows degenerates to singleton runs: nothing to
        // sort, nothing to spill.
        let (delta, tp) = partial_sort_delta(8.0, 50.0, 1000.0);
        assert_eq!(tp, 0.0);
        assert_eq!(delta.pages, 0.0);
        let (zero, _) = partial_sort_delta(0.0, 50.0, 4.0);
        assert_eq!(zero, Cost::ZERO);
    }

    #[test]
    fn merge_inner_sorted_amortizes_pages() {
        let m = model();
        let per_probe = m.merge_inner_sorted(13.0, 100.0, 2.5);
        assert!((per_probe.pages - 0.13).abs() < 1e-12);
        assert_eq!(per_probe.rsi, 2.5);
        // Summed over N outer tuples the page term is TEMPPAGES again.
        let total = per_probe.times(100.0);
        assert!((total.pages - 13.0).abs() < 1e-9);
    }

    #[test]
    fn measured_cost_from_io_stats() {
        let io = IoStats {
            data_page_fetches: 5,
            index_page_fetches: 3,
            temp_page_fetches: 2,
            temp_pages_written: 1,
            buffer_hits: 99,
            rsi_calls: 42,
            ..IoStats::default()
        };
        let c = Cost::from_io(&io);
        assert_eq!(c.pages, 11.0);
        assert_eq!(c.rsi, 42.0);
    }
}
