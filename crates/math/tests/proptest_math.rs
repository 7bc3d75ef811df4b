//! Property-based tests for the numerics substrate.

use cc_math::erf::{erf, erfc};
use cc_math::hoeffding::{derive_params, satisfies_bounds};
use proptest::prelude::*;

proptest! {
    #[test]
    fn erf_bounded_and_odd(x in -20.0f64..20.0) {
        let e = erf(x);
        prop_assert!((-1.0..=1.0).contains(&e));
        prop_assert!((e + erf(-x)).abs() < 1e-14);
        prop_assert!((e + erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn erf_monotone(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(erf(lo) <= erf(hi) + 1e-15);
    }

    #[test]
    fn derive_params_feasible_for_any_gap(
        p2 in 0.05f64..0.9,
        gap in 0.02f64..0.4,
        delta in 0.01f64..0.49,
        beta in 1e-6f64..0.5,
    ) {
        let p1 = (p2 + gap).min(0.99);
        prop_assume!(p1 > p2 && p1 < 1.0);
        let d = derive_params(p1, p2, delta, beta);
        prop_assert!(d.l >= 1 && d.l <= d.m);
        prop_assert!(satisfies_bounds(p1, p2, delta, beta, d.m, d.l));
        // Success probability formula.
        prop_assert!((d.success_probability() - (0.5 - delta)).abs() < 1e-15);
    }
}
