//! Virtual rehashing window arithmetic.
//!
//! At search radius `R = c^level`, the level-`R` bucket containing a
//! level-1 bucket id `b` is `b.div_euclid(R)`, and it covers the level-1
//! bucket-id interval `[v·R, (v+1)·R)` where `v = b.div_euclid(R)`.
//! Because levels nest (`c` children per parent), the interval at level
//! `i+1` always contains the interval at level `i` — a query's covered
//! window only ever *grows*, which is what makes incremental collision
//! counting correct: entries are counted exactly once, when the window
//! first reaches them.
//!
//! The arithmetic is total. Hashing saturates a bucket id past the key
//! space at `i64::MIN` or `i64::MAX`, and a window's bounds saturate
//! there too: a window that reaches `hi = i64::MAX` holds bucket
//! `i64::MAX` as well. The radius saturates at `i64::MAX`, which is no
//! power of `c`; its window is the whole key space, so it still contains
//! every window below it, and no window grows past it.

/// The half-open level-1 bucket-id interval `[lo, hi)` covered by the
/// level-`radius` bucket of `bucket` (`radius = c^level ≥ 1`), with the
/// bounds saturated as the module docs describe.
///
/// # Panics
/// Panics when `radius < 1`.
pub fn window(bucket: i64, radius: i64) -> (i64, i64) {
    assert!(radius >= 1, "radius must be >= 1, got {radius}");
    if radius == i64::MAX {
        return (i64::MIN, i64::MAX);
    }
    let v = bucket.div_euclid(radius);
    (v.saturating_mul(radius), v.saturating_add(1).saturating_mul(radius))
}

/// Radius at `level` for ratio `c`: `c^level`, saturating at `i64::MAX`
/// (the query loop stops expanding far earlier; saturation just keeps the
/// arithmetic total).
pub fn radius_at(c: u32, level: u32) -> i64 {
    (c as i64).checked_pow(level).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_at_level_one_is_single_bucket() {
        assert_eq!(window(7, 1), (7, 8));
        assert_eq!(window(-3, 1), (-3, -2));
    }

    #[test]
    fn windows_nest_across_levels() {
        for &bucket in &[-17i64, -1, 0, 5, 123] {
            for level in 0..10u32 {
                let r1 = radius_at(2, level);
                let r2 = radius_at(2, level + 1);
                let (lo1, hi1) = window(bucket, r1);
                let (lo2, hi2) = window(bucket, r2);
                assert!(lo2 <= lo1 && hi2 >= hi1, "bucket {bucket} level {level}");
                assert_eq!(hi2 - lo2, 2 * (hi1 - lo1));
                // The query's own bucket stays inside.
                assert!((lo2..hi2).contains(&bucket));
            }
        }
    }

    #[test]
    fn negative_buckets_use_euclidean_division() {
        // bucket -1 at radius 4 lives in parent bucket -1 -> [-4, 0)
        assert_eq!(window(-1, 4), (-4, 0));
        assert_eq!(window(-4, 4), (-4, 0));
        assert_eq!(window(-5, 4), (-8, -4));
        assert_eq!(window(3, 4), (0, 4));
    }

    #[test]
    fn radius_saturates() {
        assert_eq!(radius_at(2, 3), 8);
        assert_eq!(radius_at(3, 2), 9);
        assert_eq!(radius_at(2, 63), i64::MAX);
        assert_eq!(radius_at(2, 0), 1);
    }

    #[test]
    fn windows_saturate_at_the_ends_of_the_key_space() {
        assert_eq!(window(i64::MAX, 1), (i64::MAX, i64::MAX));
        assert_eq!(window(i64::MAX, 2), (i64::MAX - 1, i64::MAX));
        assert_eq!(window(i64::MIN, 3), (i64::MIN, i64::MIN + 2));
        assert_eq!(window(i64::MAX, 1 << 62), (1 << 62, i64::MAX));
        assert_eq!(window(5, i64::MAX), (i64::MIN, i64::MAX));
    }

    #[test]
    #[should_panic(expected = "radius must be >= 1")]
    fn window_rejects_zero_radius() {
        window(0, 0);
    }
}
