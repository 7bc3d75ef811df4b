//! Derived per-dataset parameters.
//!
//! Bridges the configuration to the Hoeffding machinery in
//! [`cc_math::hoeffding`]: resolves `β` against the dataset size,
//! computes `p1 = p(1, w)` and `p2 = p(c, w)` from the p-stable collision
//! probability, and derives `(α*, m, l)`.
//!
//! Note the scale convention: the theory is stated for search radius
//! `R = 1`; `w` is expressed in the same units. Because
//! `p(s, w) = p(s/w, 1)` depends only on the ratio, re-scaling the data
//! and `w` together leaves every derived parameter unchanged.

use crate::config::C2lshConfig;
use crate::engine::SearchParams;
use cc_math::hoeffding::{derive_params, DerivedParams};
use cc_math::pstable::collision_probability;

/// Everything the index needs, derived from a config and a dataset size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullParams {
    /// The Hoeffding-derived core (`p1`, `p2`, `α`, `m`, `l`, `δ`, `β`).
    pub derived: DerivedParams,
    /// Number of hash functions actually used (override-aware).
    pub m: usize,
    /// Collision threshold actually used (override-aware).
    pub l: usize,
    /// Resolved false-positive budget as an absolute object count.
    pub beta_n: usize,
}

impl FullParams {
    /// Derive parameters for a dataset of `n` objects under `config`.
    ///
    /// # Panics
    /// Panics when `n == 0` (an index over nothing is a caller bug) or
    /// when the config fails validation.
    pub fn derive(n: usize, config: &C2lshConfig) -> FullParams {
        assert!(n > 0, "cannot derive parameters for an empty dataset");
        config.validate().expect("invalid config reached FullParams::derive");

        let p1 = collision_probability(config.base_radius, config.w);
        let p2 = collision_probability(config.c as f64 * config.base_radius, config.w);
        let beta = config.beta.resolve(n);
        let derived = derive_params(p1, p2, config.delta, beta);
        // Guard against a width/base-radius mismatch: when `w` is far off
        // the data's near-neighbor scale the p1/p2 gap collapses and the
        // Hoeffding bound demands an absurd number of hash tables. Fail
        // fast with advice instead of letting the build exhaust memory.
        assert!(
            config.m_override.is_some() || derived.m <= 50_000,
            "derived m = {} hash tables (p1 = {:.4}, p2 = {:.4}): bucket_width {} is far from \
             the data's near-neighbor scale; normalize the data (see cc_vector::scale) or set \
             base_radius to the intended 'near' distance",
            derived.m,
            p1,
            p2,
            config.w
        );

        let m = config.m_override.unwrap_or(derived.m);
        let l = match (config.l_override, config.m_override) {
            (Some(l), _) => l,
            // m overridden without l: rescale the threshold percentage.
            (None, Some(_)) => ((derived.alpha * m as f64).ceil() as usize).clamp(1, m),
            // No overrides: use the solver's feasible threshold verbatim.
            (None, None) => derived.l,
        };
        let beta_n = ((beta * n as f64).ceil() as usize).max(1);
        FullParams { derived, m, l, beta_n }
    }

    /// The collision-threshold percentage in effect (`l/m`).
    pub fn alpha_effective(&self) -> f64 {
        self.l as f64 / self.m as f64
    }

    /// What the query loop needs of these parameters under `config`.
    pub fn search(&self, config: &C2lshConfig) -> SearchParams {
        let (c, base_radius) = (config.c, config.base_radius);
        SearchParams { c, l: self.l as u32, beta_n: self.beta_n, base_radius }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Beta;

    #[test]
    fn derives_sane_parameters() {
        let cfg = C2lshConfig::default();
        let p = FullParams::derive(54_387, &cfg);
        assert!(p.derived.p1 > p.derived.p2);
        assert!(p.m >= 20 && p.m <= 500, "m = {} out of expected range", p.m);
        assert!(p.l <= p.m && p.l >= 1);
        assert!(p.alpha_effective() > p.derived.p2 && p.alpha_effective() < p.derived.p1);
        assert_eq!(p.beta_n, 100);
    }

    #[test]
    fn m_grows_with_n() {
        let cfg = C2lshConfig::default();
        let small = FullParams::derive(10_000, &cfg);
        let big = FullParams::derive(10_000_000, &cfg);
        assert!(big.m > small.m);
    }

    #[test]
    fn larger_c_needs_fewer_functions() {
        // Wider p1/p2 gap at c = 3 ⇒ smaller m.
        let c2 = C2lshConfig::builder().approximation_ratio(2).build();
        let c3 = C2lshConfig::builder().approximation_ratio(3).build();
        let m2 = FullParams::derive(100_000, &c2).m;
        let m3 = FullParams::derive(100_000, &c3).m;
        assert!(m3 < m2, "m(c=3) = {m3} should be below m(c=2) = {m2}");
    }

    #[test]
    fn overrides_are_respected() {
        let cfg = C2lshConfig::builder().m_override(64).l_override(40).build();
        let p = FullParams::derive(1_000, &cfg);
        assert_eq!(p.m, 64);
        assert_eq!(p.l, 40);
    }

    #[test]
    fn m_override_rescales_l() {
        let cfg = C2lshConfig::builder().m_override(64).build();
        let p = FullParams::derive(50_000, &cfg);
        assert_eq!(p.m, 64);
        assert!((p.alpha_effective() - p.derived.alpha).abs() < 0.03);
    }

    #[test]
    fn beta_fraction_resolves_to_count() {
        let cfg = C2lshConfig::builder().beta(Beta::Fraction(0.01)).build();
        let p = FullParams::derive(5_000, &cfg);
        assert_eq!(p.beta_n, 50);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        FullParams::derive(0, &C2lshConfig::default());
    }

    #[test]
    fn base_radius_is_scale_invariant() {
        // Scaling (base_radius, w) together must leave every derived
        // parameter unchanged: p depends only on s/w.
        let unit = C2lshConfig::builder().bucket_width(2.184).build();
        let scaled = C2lshConfig::builder().base_radius(0.15).bucket_width(2.184 * 0.15).build();
        let a = FullParams::derive(50_000, &unit);
        let b = FullParams::derive(50_000, &scaled);
        assert_eq!(a.m, b.m);
        assert_eq!(a.l, b.l);
        assert!((a.derived.p1 - b.derived.p1).abs() < 1e-12);
        assert!((a.derived.p2 - b.derived.p2).abs() < 1e-12);
    }

    #[test]
    fn mismatched_base_radius_inflates_m() {
        // Keeping w at the unit-scale optimum while declaring a much
        // smaller base radius shrinks the p1/p2 gap and inflates m —
        // the failure mode base_radius exists to avoid.
        let good = C2lshConfig::builder().base_radius(0.15).bucket_width(0.15 * 2.184).build();
        let bad = C2lshConfig::builder().base_radius(0.15).bucket_width(2.184).build();
        let m_good = FullParams::derive(50_000, &good).m;
        let m_bad = FullParams::derive(50_000, &bad).m;
        assert!(m_bad > 2 * m_good, "m_bad = {m_bad}, m_good = {m_good}");
    }
}
