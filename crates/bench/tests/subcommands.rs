//! The `bench` binary end to end: every experiment writes its table, and
//! a bad id or setting is refused before anything is written.

use cc_storage::wal::scratch_dir;
use std::path::Path;
use std::process::{Command, Output};

/// Run `bench <id>` in `dir` (it writes `results/` relative to its
/// working directory) under exactly the settings in `env`.
fn bench(dir: &Path, id: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
    cmd.arg(id).current_dir(dir).env_remove("CC_SCALE").env_remove("CC_QUERIES");
    cmd.envs(env.iter().copied()).output().expect("spawn bench")
}

const CSV_STEMS: [&str; 18] = [
    "large_paged",
    "t1_datasets",
    "t2_params",
    "t3_index_size",
    "f1_ratio_vs_k",
    "f2_io_vs_k",
    "f3_time_vs_k",
    "f4_effect_of_c",
    "f5_effect_of_beta",
    "f6_recall_frontier",
    "f7_scalability",
    "f8_effect_of_w",
    "f9_buffer_pool",
    "a1_virtual_rehash",
    "a2_counting_vs_concat",
    "a3_m_sweep",
    "v1_collision_prob",
    "v2_success_prob",
];

#[test]
#[cfg_attr(debug_assertions, ignore = "163 s in a debug build; run by the CI gates job")]
fn all_writes_every_table() {
    let dir = scratch_dir("bench-all");
    let out = bench(&dir, "all", &[("CC_SCALE", "0.01"), ("CC_QUERIES", "5")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("\n== ").count(), CSV_STEMS.len(), "one table per experiment");
    for stem in CSV_STEMS {
        let csv = std::fs::read_to_string(dir.join("results").join(format!("{stem}.csv")))
            .unwrap_or_else(|e| panic!("{stem}.csv: {e}"));
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or_default();
        assert!(header.contains(','), "{stem}.csv starts with its header row: {header:?}");
        assert!(lines.next().is_some(), "{stem}.csv has no data row");
        assert!(!csv.contains("NaN"), "{stem}.csv holds a NaN cell:\n{csv}");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

#[test]
fn a_bad_id_or_setting_is_refused_before_anything_is_written() {
    let dir = scratch_dir("bench-refusals");
    for (id, env, message) in [
        ("f10", ("CC_SCALE", "0.01"), "usage: "),
        ("run", ("CC_SCALE", "0.01"), "usage: "),
        ("t2", ("CC_SCALE", "abc"), "CC_SCALE=abc: expected a scale in (0, 1]"),
        ("t2", ("CC_SCALE", "0"), "CC_SCALE=0: expected a scale in (0, 1]"),
        ("t2", ("CC_SCALE", "2"), "CC_SCALE=2: expected a scale in (0, 1]"),
        ("f5", ("CC_QUERIES", "0"), "CC_QUERIES=0: expected a query count of at least 1"),
        ("f5", ("CC_QUERIES", "-3"), "CC_QUERIES=-3: expected a query count of at least 1"),
    ] {
        let out = bench(&dir, id, &[env]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "bench {id} under {env:?}: {stderr}");
        assert!(stderr.contains(message), "bench {id} under {env:?} said: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line, no panic trace: {stderr}");
        assert!(!stderr.contains("panicked at"));
        assert!(!dir.join("results").exists(), "bench {id} under {env:?} wrote a file");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
