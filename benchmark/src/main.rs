//! `ledger` — the repository's benchmark: four named workloads, driven
//! through the public functions of each crate, every metric printed by
//! name and unit from one command. See `README.md` beside `Cargo.toml`.

mod compare;
mod data;
mod estimators;
mod metrics;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use run::RunArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage:
  ledger --workload <lib-mem|wire-mem|wire-paged|wire-rw> [--seed N] [--seconds S]
         [--trace 0|1] [--quick] [--out DIR]
  ledger all [--quick] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  ledger compare <dirA> <dirB>";

/// Seconds one run measures when `--seconds` is not given: the three
/// set-ups and the two halves of the window between them.
const DEFAULT_SECONDS: u64 = 30;
/// `--quick`: halves of about 4 s.
const QUICK_SECONDS: u64 = 8;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    quick: bool,
    /// Internal: time one set-up and print its seconds (the child
    /// process behind a run's throwaway set-ups).
    setup_only: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        quick: false,
        setup_only: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                cli.seconds = Some(value()?.parse().map_err(|_| "--seconds takes a whole number")?);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => cli.quick = true,
            "--setup-only" => cli.setup_only = true,
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds == Some(0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cli)
}

/// Run one workload, write its report (and trace) under `out`, print
/// the table, and return the one-line result.
fn run_args(cli: &Cli, workload: Workload) -> RunArgs {
    RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick { QUICK_SECONDS } else { DEFAULT_SECONDS }),
        traced: cli.traced,
        quick: cli.quick,
    }
}

fn run_one(cli: &Cli, workload: Workload, file_stem: &str) -> (String, bool) {
    let args = run_args(cli, workload);
    let (report, spans) = run::run(&args, &cli.out);
    let write = |name: String, text: String| {
        let path = cli.out.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    };
    write(format!("{file_stem}.json"), report.to_json());
    if let Some(spans) = spans {
        write(format!("trace-{}.json", workload.name()), spans.to_json(workload.name()));
    }
    print!("{}", report.table());
    (report.contract_line(), report.correct)
}

/// First free `report-<workload>-run<k>` in `out`, so that repeated
/// runs into one directory form a set for `compare`.
fn next_stem(out: &Path, workload: Workload, traced: bool) -> String {
    let kind = if traced { "trace-run" } else { "run" };
    (0..)
        .map(|k| format!("report-{}-{kind}{k}", workload.name()))
        .find(|stem| !out.join(format!("{stem}.json")).exists())
        .expect("a free report name")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The scalar fallback is a different program: its numbers must
    // never be mistaken for the dispatched kernels'.
    if std::env::var_os("CC_FORCE_SCALAR").is_some() {
        eprintln!("ledger: refusing to measure with CC_FORCE_SCALAR set");
        return ExitCode::from(2);
    }
    let fail = |message: String| {
        eprintln!("ledger: {message}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail("compare takes two directories".into());
            };
            match compare::compare(Path::new(a), Path::new(b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => fail(e),
            }
        }
        Some("all") => {
            let cli = match parse(&args[1..]) {
                Ok(cli) if cli.workload.is_none() => cli,
                Ok(_) => return fail("`all` runs every workload; drop --workload".into()),
                Err(e) => return fail(e),
            };
            let mut all_correct = true;
            for workload in Workload::ALL {
                let stem = next_stem(&cli.out, workload, cli.traced);
                all_correct &= run_one(&cli, workload, &stem).1;
            }
            if all_correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            let cli = match parse(&args) {
                Ok(cli) => cli,
                Err(e) => return fail(e),
            };
            let Some(workload) = cli.workload else { return fail("--workload is required".into()) };
            if cli.setup_only {
                println!("{}", run::setup_only(&run_args(&cli, workload), &cli.out));
                return ExitCode::SUCCESS;
            }
            let stem = next_stem(&cli.out, workload, cli.traced);
            let (line, correct) = run_one(&cli, workload, &stem);
            // The result line is the last line of standard output.
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
