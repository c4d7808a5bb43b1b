//! Checked numeric lifts for the cost algebra.
//!
//! Table 1 and Table 2 arithmetic runs in `f64`, but the catalog hands us
//! integer cardinalities (`u64` NCARD/ICARD/TCARD) and the arena hands us
//! `usize` lengths. A raw `as f64` silently loses precision above 2^53 and
//! a raw `as u32`/`as usize` silently truncates; every such lift in the
//! numeric core now goes through one of these helpers, which saturate at
//! the exactly-representable boundary instead. The crate root denies
//! clippy's four `cast_*` lints, so the raw casts live only here, each
//! under an `#[expect]` that names the bound making it exact.

/// Largest integer such that every integer in `[0, F64_EXACT_MAX]` is
/// exactly representable as an `f64` (2^53; the mantissa is 52 bits plus
/// the implicit leading one).
pub const F64_EXACT_MAX: u64 = 1 << 53;

/// Lift a catalog cardinality into cost arithmetic. Exact for every value
/// a real catalog produces; saturates at 2^53 beyond that instead of
/// silently rounding. `const` so statistics-derived tunables (e.g. the
/// sort-run threshold) can be computed at compile time.
#[expect(clippy::cast_precision_loss, reason = "both branches are at most 2^53, exact in f64")]
pub const fn card_f64(n: u64) -> f64 {
    if n > F64_EXACT_MAX {
        F64_EXACT_MAX as f64
    } else {
        n as f64
    }
}

/// Lift a container length (`usize`) into cost arithmetic; same
/// saturation contract as [`card_f64`].
pub fn len_f64(n: usize) -> f64 {
    card_f64(n as u64)
}

/// Round a fractional page count up to a whole number of pages, as an
/// integer. NaN maps to 0, negatives to 0, and anything above 2^53
/// saturates, so the result always round-trips exactly through
/// [`card_f64`].
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "clamped to [0, 2^53] first; NaN casts to 0"
)]
pub fn pages_ceil(x: f64) -> u64 {
    x.ceil().clamp(0.0, 9_007_199_254_740_992.0) as u64
}

/// Narrow a dense arena/intern index to the `u32` id space. Debug builds
/// assert the index fits; release builds saturate rather than truncate,
/// which keeps the id in-range (the arenas cap well below 2^32 entries
/// in practice, so saturation is unreachable).
#[expect(clippy::cast_possible_truncation, reason = "bounded by u32::MAX with .min() first")]
pub fn dense_id(n: usize) -> u32 {
    debug_assert!(n <= u32::MAX as usize, "dense id space overflow: {n}");
    n.min(u32::MAX as usize) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn card_is_exact_below_mantissa_and_saturates_above() {
        assert_eq!(card_f64(0), 0.0);
        assert_eq!(card_f64(10_000), 10_000.0);
        assert_eq!(card_f64(F64_EXACT_MAX), 9_007_199_254_740_992.0);
        assert_eq!(card_f64(F64_EXACT_MAX + 1), 9_007_199_254_740_992.0);
        assert_eq!(card_f64(u64::MAX), 9_007_199_254_740_992.0);
    }

    #[test]
    fn len_matches_card() {
        assert_eq!(len_f64(0), 0.0);
        assert_eq!(len_f64(1024), 1024.0);
    }

    #[test]
    fn pages_ceil_rounds_up_at_the_fractional_boundary() {
        // One byte over an exact page boundary must cost a whole new page.
        assert_eq!(pages_ceil(1.0), 1);
        assert_eq!(pages_ceil(1.000001), 2);
        assert_eq!(pages_ceil(0.0), 0);
        assert_eq!(pages_ceil(0.25), 1);
        assert_eq!(pages_ceil(12.99), 13);
    }

    #[test]
    fn pages_ceil_is_total_on_junk_input() {
        assert_eq!(pages_ceil(f64::NAN), 0);
        assert_eq!(pages_ceil(-7.5), 0);
        assert_eq!(pages_ceil(f64::INFINITY), F64_EXACT_MAX);
    }

    #[test]
    fn dense_id_is_identity_in_range() {
        assert_eq!(dense_id(0), 0);
        assert_eq!(dense_id(41), 41);
        assert_eq!(dense_id(u32::MAX as usize), u32::MAX);
    }
}
