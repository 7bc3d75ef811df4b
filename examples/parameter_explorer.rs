//! Parameter explorer: see how the theory turns `(c, w, δ, β, n)` into
//! the index shape `(p1, p2, α*, m, l)`.
//!
//! Useful before deploying: pick the knobs, read off the index size and
//! verification budget the theory implies.
//!
//! ```text
//! cargo run --release --example parameter_explorer
//! ```

use c2lsh::{Beta, C2lshConfig, FullParams};
use cc_math::pstable::{optimal_width, rho};

fn main() {
    println!("rho-minimizing bucket widths for the p-stable family:");
    for c in [2u32, 3, 4] {
        let w = optimal_width(c as f64, 0.1, 20.0);
        println!("  c = {c}: w* = {:.3} (rho = {:.3})", w, rho(c as f64, w));
    }
    println!("  (QALSH closed form: c = 2 -> w* = {:.3})\n", qalsh::params::optimal_width(2));

    println!("m and l vs dataset size (c = 2, w = 2.184, beta = 100/n):");
    println!("  {:>12} {:>6} {:>6} {:>10}", "n", "m", "l", "index est.");
    for exp in [4u32, 5, 6, 7] {
        let n = 10usize.pow(exp);
        let cfg = C2lshConfig::default();
        let p = FullParams::derive(n, &cfg);
        // The paper's disk layout: 12 bytes per (bucket, oid) entry per
        // table. Resident, the index keeps 4 of them (the id).
        let bytes = p.m * n * 12;
        println!("  {:>12} {:>6} {:>6} {:>9.1}M", n, p.m, p.l, bytes as f64 / (1024.0 * 1024.0));
    }

    println!("\neffect of beta at n = 100,000 (c = 2):");
    println!("  {:>10} {:>6} {:>6} {:>14}", "beta*n", "m", "l", "T2 budget(k=10)");
    for count in [25u64, 50, 100, 200, 400] {
        let cfg = C2lshConfig::builder().beta(Beta::Count(count)).build();
        let p = FullParams::derive(100_000, &cfg);
        println!("  {:>10} {:>6} {:>6} {:>14}", count, p.m, p.l, 10 + p.beta_n);
    }

    println!("\neffect of c at n = 100,000 (w at each c's optimum):");
    println!("  {:>3} {:>8} {:>6} {:>6} {:>8} {:>8}", "c", "w", "m", "l", "p1", "p2");
    for c in [2u32, 3, 4] {
        let w = optimal_width(c as f64, 0.1, 20.0);
        let cfg = C2lshConfig::builder().approximation_ratio(c).bucket_width(w).build();
        let p = FullParams::derive(100_000, &cfg);
        println!(
            "  {:>3} {:>8.3} {:>6} {:>6} {:>8.3} {:>8.3}",
            c, w, p.m, p.l, p.derived.p1, p.derived.p2
        );
    }
}
