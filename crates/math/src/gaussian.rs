//! The standard normal CDF, the one distribution function C2LSH needs:
//! the collision probabilities `p1 = p(1, w)` and `p2 = p(c, w)` of the
//! 2-stable family are read through it.
//!
//! The CDF is expressed through [`crate::erfc`] to stay accurate deep in
//! the tails.

use crate::erf::erfc;

/// `√(2π)`.
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_7;

const SQRT_2: f64 = core::f64::consts::SQRT_2;

/// Cumulative distribution function `Φ(x)` of `N(0, 1)`.
///
/// Computed as `Φ(x) = erfc(−x/√2)/2`, which keeps full relative accuracy
/// for very negative `x` (e.g. `Φ(−10) ≈ 7.6e-24`).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        // mpmath reference values.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_542_9),
            (-1.0, 0.158_655_253_931_457_05),
            (1.959_963_984_540_054, 0.975),
            (2.575_829_303_548_901, 0.995),
            (-3.0, 1.349_898_031_630_094_6e-3),
        ];
        for (x, want) in cases {
            let got = normal_cdf(x);
            assert!((got - want).abs() < 1e-12, "Phi({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn deep_tail_relative_accuracy() {
        // Phi(-10) = 7.619853024160526065973343...e-24
        let got = normal_cdf(-10.0);
        let want = 7.619_853_024_160_526e-24;
        assert!(((got - want) / want).abs() < 1e-9, "got {got:e}");
    }
}
