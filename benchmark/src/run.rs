//! One run of one workload: generate inputs, set up, measure, check the
//! answers. An untraced run gives the end-to-end metrics, a traced run
//! the per-layer ones.

use crate::data::{Inputs, K};
use crate::estimators::percentile;
use crate::probes;
use crate::report::{Header, Report};
use crate::trace::{self_times, Recorder};
use crate::workloads::{
    copy_dir, durability_failures, run_phase, session, with_engine, ClientState, Cost, Engine,
    Phase, PhaseResult, Scratch, Target, Workload,
};
use c2lsh::FullParams;
use cc_service::{Client, ServiceConfig};
use cc_vector::gt::Neighbor;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Points of the three read-only workloads in a full run.
const FULL_N: usize = 100_000;
/// `--quick`: a tenth of the data; not comparable with full runs.
const QUICK_N: usize = 10_000;
/// A run whose recall falls below this fails.
const MIN_RECALL: f64 = 0.80;
const MIB: f64 = (1u64 << 20) as f64;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub quick: bool,
}

impl RunArgs {
    fn n(&self) -> usize {
        if self.quick {
            QUICK_N
        } else {
            FULL_N
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn header() -> Header {
    Header {
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get() as u64),
        kernel: c2lsh::kernels::dispatch().kernel().name().to_string(),
        rustc: command_line("rustc", &["--version"]),
        git_sha: command_line("git", &["rev-parse", "--short", "HEAD"]),
    }
}

/// Clock ticks the hypervisor took from this guest's vCPUs so far.
fn steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0.0)
}

/// High-water mark of this process's resident set, in MiB.
fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines().find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
    });
    kib.unwrap_or(0.0) / 1024.0
}

/// Recall and overall ratio of the first answer each query got.
fn accuracy(states: &[ClientState], inputs: &Inputs) -> (f64, f64) {
    let mut answers: Vec<Vec<Neighbor>> = vec![Vec::new(); inputs.queries.len()];
    for state in states {
        for (q, a) in state.answers.iter().enumerate() {
            if let Some(a) = a {
                answers[q] = a.clone();
            }
        }
    }
    (
        cc_vector::metrics::mean_recall(&answers, &inputs.truth),
        cc_vector::metrics::mean_ratio(&answers, &inputs.truth),
    )
}

fn p50(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<f64> = values.map(|x| x as f64).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// engine.* and span.* from the traced reads of this workload.
fn engine_metrics(report: &mut Report, traced: &PhaseResult, inputs: &Inputs) {
    let costs = &traced.costs;
    let reads = costs.len().max(1) as f64;
    let sum = |f: fn(&Cost) -> u64| costs.iter().map(f).sum::<u64>() as f64;
    let elapsed = sum(|c| c.elapsed_ns);
    let stages = sum(|c| c.hash_ns + c.count_ns + c.verify_ns + c.rank_ns);
    report.set("engine.elapsed_us_p50", p50(costs.iter().map(|c| c.elapsed_ns)) / 1e3);
    report.set("engine.hash_us", sum(|c| c.hash_ns) / reads / 1e3);
    report.set("engine.count_us", sum(|c| c.count_ns) / reads / 1e3);
    report.set("engine.verify_us", sum(|c| c.verify_ns) / reads / 1e3);
    report.set("engine.rank_us", sum(|c| c.rank_ns) / reads / 1e3);
    report.set("engine.unattributed_pct", 100.0 * (elapsed - stages).max(0.0) / elapsed.max(1.0));
    report.set("engine.rounds_per_query", sum(|c| c.rounds) / reads);
    report.set("engine.collisions_per_query", sum(|c| c.collisions) / reads);
    report.set("engine.verified_per_query", sum(|c| c.verified) / reads);
    report.set("engine.abandoned_share", sum(|c| c.abandoned) / sum(|c| c.verified).max(1.0));
    // T2 stops a query once k + beta*n candidates were verified.
    let budget = (K + FullParams::derive(inputs.data.len(), &inputs.config).beta_n) as u64;
    let t2 = costs.iter().filter(|c| c.verified >= budget).count();
    report.set("engine.t2_share", t2 as f64 / reads);

    let times = self_times(traced.recorder.spans());
    let total = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64);
    let request = total("request").max(1.0);
    report.set("span.engine_pct", 100.0 * total("engine") / request);
    let outside = times.get("request").map_or(0.0, |t| t.self_ns as f64);
    report.set("span.outside_engine_pct", 100.0 * outside / request);
    for stage in ["hash", "count", "verify", "rank"] {
        report.set(&format!("span.{stage}_pct"), 100.0 * total(stage) / request);
    }
}

/// Run the workload once and report it. Spans of a traced run are
/// returned beside the report and written out by the caller.
pub fn run(args: &RunArgs, out_dir: &Path) -> (Report, Option<Recorder>) {
    let w = args.workload;
    // `ledger all` runs the workloads in one process: start each one's
    // resident-set high-water mark afresh.
    std::fs::write("/proc/self/clear_refs", "5").ok();
    let scratch = Scratch::create(out_dir).expect("create scratch directory");
    let inputs = Inputs::generate(args.seed, args.n());
    let mut report = Report {
        header: header(),
        workload: w.name().into(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        comparable: !args.quick,
        ..Report::default()
    };
    report.set("harness.prep_s", inputs.prep_s);
    if args.quick {
        report.notes.push("--quick run: a tenth of the data, not comparable with full runs".into());
    }
    let mut states = ClientState::fresh(w.clients());
    let spans = if args.traced {
        Some(traced_run(&mut report, args, &inputs, &scratch, &mut states))
    } else {
        untraced_run(&mut report, args, &inputs, &scratch, out_dir, &mut states);
        None
    };

    let (recall, ratio) = accuracy(&states, &inputs);
    report.set("recall_at_10", recall);
    report.set("overall_ratio", ratio);
    report.attempted += states.iter().map(|s| s.attempted).sum::<u64>();
    report.failed += states.iter().map(|s| s.failed).sum::<u64>();
    report.correct = report.failed == 0 && recall >= MIN_RECALL;
    if recall < MIN_RECALL {
        report.notes.push(format!("recall_at_10 {recall:.3} is below {MIN_RECALL}: run fails"));
    }
    report.set("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
    (report, spans)
}

/// What the window says about speed; on every run, gated on none.
fn speed_metrics(report: &mut Report, w: Workload, phase: &PhaseResult, stolen_ticks: f64) {
    let window = phase.window();
    report.set("qps", window.qps);
    report.set("read_p50_ms", window.read_p50_ms);
    report.set("read_p95_ms", window.read_p95_ms);
    report.set("client.read_p99_ms", window.read_p99_ms);
    if w.writes() {
        report.set("write_p50_ms", window.write_p50_ms);
        report.set("write_p95_ms", window.write_p95_ms);
    }
    report.set("window.qps_all", window.qps_all);
    report.set("window.read_p50_all_ms", window.read_p50_all_ms);
    report.set("window.read_p99_all_ms", window.read_p99_all_ms);
    report.set("window.quiet_share", window.quiet_share);
    report.set("window.pass_spread", window.pass_spread);
    report.set("window.passes", window.passes as f64);
    // /proc/stat counts in ticks of 10 ms, summed over the vCPUs.
    let vcpu_seconds = phase.wall_s * report.header.nproc as f64;
    report.set("window.steal_pct", stolen_ticks / vcpu_seconds.max(1e-9));
    report.notes.push(format!(
        "window: {} passes, {} ops; percentiles over {} quiet reads and {} quiet writes",
        window.passes, window.ops, window.quiet_reads, window.quiet_writes
    ));
}

/// Set the workload's engine up once from freshly generated inputs
/// and return the seconds from inputs in memory to the first answered
/// request. This is what the child process of a throwaway set-up runs.
pub fn setup_only(args: &RunArgs, out_dir: &Path) -> f64 {
    let scratch = Scratch::create(out_dir).expect("create scratch directory");
    let inputs = Inputs::without_truth(args.seed, args.n());
    let start = Instant::now();
    with_engine(args.workload, &inputs, &scratch, |engine, _| {
        session(engine, &inputs, &ServiceConfig::default(), |_| start.elapsed().as_secs_f64()).0
    })
}

/// Time a throwaway set-up of the same index in a child process of
/// this binary, so that it shares neither memory nor allocator state
/// with the engine being served, and wait for it.
fn setup_in_child(args: &RunArgs, out_dir: &Path) -> f64 {
    let mut child = Command::new(std::env::current_exe().expect("own path"));
    child.args(["--setup-only", "--workload", args.workload.name()]);
    child.args(["--seed", &args.seed.to_string()]).arg("--out").arg(out_dir);
    if args.quick {
        child.arg("--quick");
    }
    let output = child.output().expect("start the set-up child");
    assert!(output.status.success(), "the set-up child failed");
    String::from_utf8_lossy(&output.stdout).trim().parse().expect("seconds from the set-up child")
}

/// The end-to-end run. `--seconds` spans three timed set-ups and the
/// two halves of the window between them: the set-up that is served,
/// half the passes, a throwaway set-up of the same index, the other
/// half, a last throwaway set-up. `setup_s` is the fastest of the
/// three, which start half a window apart.
fn untraced_run(
    report: &mut Report,
    args: &RunArgs,
    inputs: &Inputs,
    scratch: &Scratch,
    out_dir: &Path,
    states: &mut [ClientState],
) {
    let w = args.workload;
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut window = PhaseResult::default();
    let mut stolen_ticks = 0.0;
    let crash_copy = scratch.path("crash");
    with_engine(w, inputs, scratch, |engine, _build_s| {
        session(engine, inputs, &ServiceConfig::default(), |target| {
            let first = start.elapsed();
            setups.push(first.as_secs_f64());
            // A child is expected to take what the first set-up took,
            // after generating its inputs.
            let child = first + Duration::from_secs_f64(inputs.prep_s);
            let passes = seconds.saturating_sub(first + 2 * child);
            let ends = [start + first + passes / 2, start + seconds.saturating_sub(child)];
            for (half, until) in ends.into_iter().enumerate() {
                let phase = Phase { warmup: if half == 0 { 2 } else { 0 }, until, traced: false };
                let stolen = steal_ticks();
                window.append(run_phase(target, w, inputs, args.seed, phase, states));
                stolen_ticks += steal_ticks() - stolen;
                if let (Engine::Rw { dir, .. }, 1) = (&*engine, half) {
                    // What a crash now would leave on disk.
                    copy_dir(dir, &crash_copy).expect("copy WAL directory");
                }
                setups.push(setup_in_child(args, out_dir));
            }
            report.set("peak_rss_mib", peak_rss_mib());
        });
        report.set("index_mib", engine.index_bytes(&inputs.config) as f64 / MIB);
    });
    speed_metrics(report, w, &window, stolen_ticks);
    let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    report.set("setup_s", fastest);
    let slowest = setups.iter().copied().fold(0.0, f64::max);
    report.notes.push(format!(
        "set-ups: {setups:.3?} s, slowest / fastest {:.2} (harness.setup_spread)",
        slowest / fastest
    ));
    if w.writes() {
        let lost = durability_failures(&crash_copy, inputs, states);
        report.failed += lost;
        let acked: usize = states.iter().map(|s| s.acked.len()).sum();
        report.notes.push(format!("cold reopen: {lost} of {acked} acknowledged writes lost"));
    }
}

/// The per-layer run: one set-up, then within `--seconds` an untraced
/// window (two fifths), the same passes with engine timings, spans and
/// the server's observability on (a quarter), and probes of the layers
/// this workload runs, on the engine it set up.
fn traced_run(
    report: &mut Report,
    args: &RunArgs,
    inputs: &Inputs,
    scratch: &Scratch,
    states: &mut [ClientState],
) -> Recorder {
    let w = args.workload;
    let seconds = Duration::from_secs(args.seconds);
    let mut recorder = Recorder::default();
    let rw_dir = with_engine(w, inputs, scratch, |engine, build_s| {
        report.set(
            match w {
                Workload::LibMem => "index.build_s",
                Workload::WireMem => "sharded.build_s",
                Workload::WirePaged => "paged.build_s",
                Workload::WireRw => "mutable.bulk_load_s",
            },
            build_s,
        );
        let ((untraced, stolen_ticks), _) =
            session(engine, inputs, &ServiceConfig::default(), |target| {
                let until = Instant::now() + seconds.mul_f64(0.4);
                let stolen = steal_ticks();
                let phase = Phase { warmup: 2, until, traced: false };
                let out = run_phase(target, w, inputs, args.seed, phase, states);
                (out, steal_ticks() - stolen)
            });
        speed_metrics(report, w, &untraced, stolen_ticks);

        if let Engine::Paged(store) = &*engine {
            store.reset_io();
        }
        let ((traced, server), stats) =
            session(engine, inputs, &probes::service_with_obs(), |target| {
                let until = Instant::now() + seconds.mul_f64(0.25);
                let phase = Phase { warmup: 1, until, traced: true };
                let out = run_phase(target, w, inputs, args.seed, phase, states);
                let server = match target {
                    Target::Wire(addr) => Some((
                        Client::connect(addr).expect("connect").metrics_text().expect("metrics"),
                        probes::ping_rtt_us(*addr),
                    )),
                    Target::Lib(_) => None,
                };
                (out, server)
            });
        engine_metrics(report, &traced, inputs);
        let reads = traced.costs.len().max(1) as f64;
        let (mut wait_us, mut rtt_us) = (0.0, 0.0);
        if let (Some((text, rtt)), Some(stats)) = (&server, &stats) {
            probes::server_side(report, text, stats, traced.wall_s);
            report.set("client.ping_rtt_us", *rtt);
            (wait_us, rtt_us) = (report.get("server.wait_us_mean").unwrap_or(0.0), *rtt);
            if w.writes() {
                probes::server_write_side(report, text, stats);
            }
            probes::protocol(report, inputs);
        }
        let request_us = p50(traced.costs.iter().map(|c| c.request_ns)) / 1e3;
        let engine_us = report.get("engine.elapsed_us_p50").unwrap_or(0.0);
        report.set(
            "client.unattributed_pct",
            100.0 * (request_us - engine_us - wait_us - rtt_us) / request_us.max(1e-9),
        );
        let (plain_qps, traced_qps) = (untraced.window().qps, traced.window().qps);
        report.set("trace.overhead_pct", 100.0 * (plain_qps - traced_qps) / plain_qps.max(1e-9));
        recorder = traced.recorder;

        probes::kernels(report, inputs);
        match engine {
            Engine::Lib(index) => probes::scan(report, inputs, index),
            Engine::Mem { engine, .. } => probes::obs_and_router(report, inputs, engine, args.seed),
            Engine::Paged(store) => {
                let pool = store.pool_stats();
                report.set("pool.hit_ratio", pool.hit_ratio());
                report.set("pool.evictions_per_query", pool.evictions as f64 / reads);
                report.set("paged.io_reads_per_query", store.physical_reads() as f64 / reads);
                probes::paged(report, inputs, store);
            }
            Engine::Rw { index, dir } => {
                probes::mutable(report, index, dir);
                return Some(dir.clone());
            }
        }
        None
    });
    if let Some(dir) = rw_dir {
        // The index is dropped: what it left on disk is reopened cold.
        probes::reopen_and_wal(report, inputs, &dir, scratch);
    }
    recorder
}
