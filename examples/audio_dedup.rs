//! Near-duplicate audio detection — the scenario behind the paper's
//! Audio dataset (54,387 × 192 audio features).
//!
//! A deduplication job must decide, for each incoming clip, whether the
//! library already contains a recording within distance `R` — exactly
//! the `(R, c)`-near-neighbor decision problem that C2LSH solves. The
//! example plants true duplicates (same clip, light noise) and unrelated
//! clips, runs `query(q, 1)` on each, and applies the decision rule
//! `dist ≤ c·R`.
//!
//! It also contrasts C2LSH with QALSH on the same task.
//!
//! ```text
//! cargo run --release --example audio_dedup
//! ```

use c2lsh::{C2lshConfig, C2lshIndex};
use cc_vector::synth::Profile;
use qalsh::{Qalsh, QalshConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let (library, fresh) = Profile::Audio.generate_scaled(0.2, 40, 5);
    println!("audio library: {} clips, {} features", library.len(), library.dim());

    // Duplicate threshold: measured against the library's own scale.
    let r = 0.15; // feature-space radius that counts as "same recording"
    let c = 2u32;

    let c2_cfg = C2lshConfig::builder()
        .approximation_ratio(c)
        .base_radius(r) // the theory's R = 1 maps to this distance
        .bucket_width(r * 2.184) // width scales with the base radius
        .seed(11)
        .build();
    let c2 = C2lshIndex::build(&library, &c2_cfg);
    let qa = Qalsh::build(
        &library,
        QalshConfig { c, w: r * 2.719, base_radius: r, seed: 11, ..Default::default() },
    );

    let mut rng = StdRng::seed_from_u64(123);
    let mut normal = cc_vector::gen::NormalSampler::new();

    // 20 true duplicates (library clip + light noise), 20 fresh clips.
    let mut tp_c2 = 0;
    let mut fp_c2 = 0;
    let mut tp_qa = 0;
    let mut fp_qa = 0;
    for trial in 0..40 {
        let (clip, is_dup): (Vec<f32>, bool) = if trial < 20 {
            let idx = rng.gen_range(0..library.len());
            let noisy: Vec<f32> = library
                .get(idx)
                .iter()
                .map(|&x| (x as f64 + 0.02 * r * normal.sample(&mut rng)) as f32)
                .collect();
            (noisy, true)
        } else {
            (fresh.get(trial - 20).to_vec(), false)
        };

        let dup_c2 = c2.query(&clip, 1).0.first().map(|n| n.dist <= c as f64 * r).unwrap_or(false);
        let dup_qa = qa.query(&clip, 1).0.first().map(|n| n.dist <= c as f64 * r).unwrap_or(false);
        if is_dup {
            tp_c2 += dup_c2 as i32;
            tp_qa += dup_qa as i32;
        } else {
            fp_c2 += dup_c2 as i32;
            fp_qa += dup_qa as i32;
        }
    }

    println!("\n(R, c)-NN duplicate decision, R = {r}, c = {c}:");
    println!("  C2LSH: {tp_c2}/20 duplicates caught, {fp_c2}/20 false alarms");
    println!("  QALSH: {tp_qa}/20 duplicates caught, {fp_qa}/20 false alarms");
    println!(
        "\nindex sizes: C2LSH {:.1} MiB (m = {}), QALSH {:.1} MiB (m = {})",
        c2.size_bytes() as f64 / (1024.0 * 1024.0),
        c2.params().m,
        qa.size_bytes() as f64 / (1024.0 * 1024.0),
        qa.num_trees()
    );
}
