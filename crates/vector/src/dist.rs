//! Distance kernels.
//!
//! C2LSH targets Euclidean space. The squared-Euclidean kernel is the hot
//! loop of every method's verification phase, so it is written to
//! auto-vectorize: eight independent accumulators over `chunks_exact(8)`
//! (two full SSE lanes / one AVX lane of independent FMA chains).
//!
//! The verification phase of every counting-based method computes the
//! true distance of each frequent candidate only to *rank* it against the
//! current top-k — a candidate whose partial sum already exceeds the k-th
//! best distance can never enter the result, so [`euclidean_sq_bounded`]
//! abandons it early. Partial sums of squares are monotone, which makes
//! the abandon test exact: `None` guarantees the true squared distance
//! exceeds the bound, and any returned `Some` value is **bit-identical**
//! to [`euclidean_sq`] (both run the same accumulator schedule; the
//! bounded variant merely reads the accumulators every
//! [`BOUND_CHECK_DIMS`] dimensions without disturbing them).

/// Accumulator lanes of the squared-distance kernel. This is the
/// canonical schedule the SIMD reimplementation (`c2lsh::kernels`)
/// must reproduce lane-for-lane to stay bit-identical: AVX2 keeps all
/// eight lanes in one 256-bit register.
pub const LANES: usize = 8;

/// Accumulator chunks between two early-abandon bound checks.
pub const CHECK_CHUNKS: usize = 8;

/// The bounded kernel compares its partial sum against the bound at
/// block boundaries of this many dimensions (a whole number of
/// accumulator chunks, so the check never perturbs the accumulation
/// schedule). The final, possibly partial block of the lane-chunked
/// region is also followed by a check — it can spare the tail loop.
///
/// Derived from the kernel's lane count rather than hardcoded: every
/// dispatchable kernel keeps [`LANES`] f32 accumulator lanes (however
/// they are packed into registers) and checks every [`CHECK_CHUNKS`]
/// chunks, so abandon-rate statistics stay comparable across scalar
/// and SIMD kernels.
pub const BOUND_CHECK_DIMS: usize = LANES * CHECK_CHUNKS;

/// Combine the eight lane accumulators into `f64`. Used both for the
/// final sum and for the (read-only) mid-stream bound checks, so bounded
/// and unbounded kernels agree bit-for-bit.
///
/// The reduction pairs lane `i` with lane `i + 4` — the two halves of
/// the accumulator array are exactly the two 4-wide SIMD registers the
/// loop keeps them in, so this shape reduces with one packed add and a
/// horizontal fold. Pairing adjacent lanes instead makes LLVM's SLP
/// vectorizer re-layout the accumulators *inside* the loop (scalar
/// loads + shuffles to build interleaved vectors), which was measured to
/// cost more than early abandonment saves.
#[inline(always)]
fn combine(acc: [f32; LANES]) -> f64 {
    ((acc[0] + acc[4]) as f64 + (acc[2] + acc[6]) as f64)
        + ((acc[1] + acc[5]) as f64 + (acc[3] + acc[7]) as f64)
}

/// One code path for both kernels: `BOUNDED = false` compiles to the
/// straight-line sum, `BOUNDED = true` adds early-abandon checks at
/// [`BOUND_CHECK_DIMS`]-sized block boundaries. The checks live
/// *between* tight inner loops — a branch per accumulator chunk would
/// defeat auto-vectorization and cost more than the abandoned work
/// saves — and only read the accumulators, so the accumulation schedule
/// (and therefore any returned value) is bit-identical across both
/// instantiations.
#[inline(always)]
fn sq_kernel<const BOUNDED: bool>(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    let split = a.len() - a.len() % LANES;
    let (ac, ar) = a.split_at(split);
    let (bc, br) = b.split_at(split);
    let mut acc = [0.0f32; LANES];
    if BOUNDED {
        // Full blocks have a compile-time-constant trip count, so the
        // inner loop vectorizes exactly like the unbounded kernel.
        let whole = split - split % BOUND_CHECK_DIMS;
        for (ba, bb) in ac[..whole]
            .chunks_exact(BOUND_CHECK_DIMS)
            .zip(bc[..whole].chunks_exact(BOUND_CHECK_DIMS))
        {
            for (ca, cb) in ba.chunks_exact(LANES).zip(bb.chunks_exact(LANES)) {
                for i in 0..LANES {
                    let d = ca[i] - cb[i];
                    acc[i] += d * d;
                }
            }
            // Partial sums of squares only grow, so exceeding the bound
            // now proves the final value exceeds it too.
            if combine(acc) > bound {
                return None;
            }
        }
        for (ca, cb) in ac[whole..].chunks_exact(LANES).zip(bc[whole..].chunks_exact(LANES)) {
            for i in 0..LANES {
                let d = ca[i] - cb[i];
                acc[i] += d * d;
            }
        }
        if whole < split && combine(acc) > bound {
            return None;
        }
    } else {
        for (ca, cb) in ac.chunks_exact(LANES).zip(bc.chunks_exact(LANES)) {
            for i in 0..LANES {
                let d = ca[i] - cb[i];
                acc[i] += d * d;
            }
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ar.iter().zip(br) {
        let d = x - y;
        tail += d * d;
    }
    Some(combine(acc) + tail as f64)
}

/// Panic with the *caller's* location on dimension mismatch. Every
/// kernel funnels through this so a bad call site (engine verify loop,
/// a baseline, ground truth) is named directly in the panic location
/// instead of pointing into this module.
#[inline(always)]
#[track_caller]
fn check_dims(a: &[f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "dimension mismatch: {} vs {} (see panic location for the caller)",
        a.len(),
        b.len()
    );
}

/// Squared Euclidean distance `‖a − b‖²`.
///
/// # Panics
/// Panics when the slices disagree on length (debug and release: a length
/// mismatch silently truncating would corrupt every experiment). The
/// panic location points at the *calling* code (`#[track_caller]`).
#[inline]
#[track_caller]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f64 {
    check_dims(a, b);
    // BOUNDED = false never returns None.
    match sq_kernel::<false>(a, b, f64::INFINITY) {
        Some(v) => v,
        None => unreachable!("unbounded kernel cannot abandon"),
    }
}

/// Early-abandoning squared Euclidean distance.
///
/// Returns `Some(‖a − b‖²)` — **bit-identical** to [`euclidean_sq`] —
/// unless a partial sum already exceeds `bound`, in which case it
/// returns `None` (guaranteeing `‖a − b‖² > bound`). The check runs
/// every [`BOUND_CHECK_DIMS`] dimensions, so a returned `Some` value may
/// still exceed `bound` slightly (abandonment is best-effort); callers
/// must treat `Some(v)` as the exact distance and apply their own
/// acceptance test.
///
/// This is the verification-phase hot path: with `bound` set to the
/// current k-th best squared distance, candidates that cannot enter the
/// top-k cost only a prefix of the dimension loop.
///
/// # Panics
/// Panics when the slices disagree on length, reporting the caller's
/// location (`#[track_caller]`).
#[inline]
#[track_caller]
pub fn euclidean_sq_bounded(a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
    check_dims(a, b);
    sq_kernel::<true>(a, b, bound)
}

/// Euclidean distance `‖a − b‖`.
#[inline]
#[track_caller]
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Dot product in `f64` accumulation.
#[track_caller]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    check_dims(a, b);
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0; 17], &[1.0; 17]), 0.0);
    }

    #[test]
    fn handles_non_multiple_of_lane_dims() {
        for d in 1..=19 {
            let a: Vec<f32> = (0..d).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..d).map(|i| (i + 1) as f32).collect();
            // every coordinate differs by exactly 1
            assert!((euclidean_sq(&a, &b) - d as f64).abs() < 1e-6, "dim {d} wrong");
        }
    }

    /// Simple xorshift LCG so tests need no rand dependency.
    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        }
    }

    #[test]
    fn matches_naive_on_random_vectors() {
        let mut next = lcg(0x2545F4914F6CDD1D);
        for d in [1usize, 3, 4, 7, 8, 64, 129, 200] {
            let a: Vec<f32> = (0..d).map(|_| next()).collect();
            let b: Vec<f32> = (0..d).map(|_| next()).collect();
            let naive: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| {
                    let diff = x as f64 - y as f64;
                    diff * diff
                })
                .sum();
            let fast = euclidean_sq(&a, &b);
            assert!((naive - fast).abs() < 1e-4 * (1.0 + naive), "dim {d}");
        }
    }

    #[test]
    fn bounded_agrees_bitwise_when_not_abandoned() {
        let mut next = lcg(0x9E3779B97F4A7C15);
        for d in [1usize, 8, 63, 64, 65, 128, 300] {
            let a: Vec<f32> = (0..d).map(|_| next()).collect();
            let b: Vec<f32> = (0..d).map(|_| next()).collect();
            let exact = euclidean_sq(&a, &b);
            // Generous bound: never abandons, must be bit-identical.
            let v = euclidean_sq_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(v.to_bits(), exact.to_bits(), "dim {d}");
            // Bound at the exact value: partials never exceed it.
            let v = euclidean_sq_bounded(&a, &b, exact).unwrap();
            assert_eq!(v.to_bits(), exact.to_bits(), "dim {d} tight bound");
        }
    }

    #[test]
    fn bounded_abandons_far_vectors() {
        let d = 256;
        let a = vec![0.0f32; d];
        let b = vec![10.0f32; d]; // squared distance = 25_600
        assert_eq!(euclidean_sq_bounded(&a, &b, 100.0), None);
        // And a None genuinely means "over the bound".
        assert!(euclidean_sq(&a, &b) > 100.0);
    }

    #[test]
    fn bounded_short_vectors_check_after_the_chunked_region() {
        // d = 32 fits in one (partial) check block: the lane-chunked
        // region is followed by exactly one bound check, so a hopeless
        // candidate is still abandoned...
        let a = vec![1.0f32; 32];
        let b = vec![3.0f32; 32];
        let exact = euclidean_sq(&a, &b); // 32 * 4 = 128
        assert_eq!(euclidean_sq_bounded(&a, &b, 0.5), None);
        // ...while a tight-but-sufficient bound returns the exact value.
        assert_eq!(euclidean_sq_bounded(&a, &b, exact), Some(exact));
        // Below one lane chunk there is no check at all: always exact.
        let a = vec![1.0f32; 7];
        let b = vec![3.0f32; 7];
        let exact = euclidean_sq(&a, &b);
        assert_eq!(euclidean_sq_bounded(&a, &b, 0.5), Some(exact));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        euclidean_sq(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bounded_mismatched_dims_panic() {
        euclidean_sq_bounded(&[1.0], &[1.0, 2.0], 1.0);
    }
}
