//! End-to-end benchmark of the fact-checking system at the paper's Snopes
//! scale (4856 claims, 92k cliques, 23,260 sources, one giant component).
//!
//! ```text
//! e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! e2e --quick
//! e2e --repeat <runs> [--seed <first>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Each run drives the system only through its public functions, times
//! every call from outside, checks its own outputs, and prints one JSON
//! line last: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics taken from spans recorded around each call (also written to
//! `target/e2e/trace-<workload>-<seed>.json`). Workloads are described in
//! the package's `README.md`; the metric tables are in `report.rs`.

mod report;
mod stats;
mod stream;
mod trace;
mod validate;

use report::{Outcome, WORKLOADS};
use std::process::ExitCode;

/// The seed of the Snopes preset, used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0x3333;

/// The default `--seconds`, which sizes a run (the `run_seconds` of
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 40;

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-scale Snopes corpus, sized to `--seconds`.
    Paper,
    /// The mini Snopes corpus on in-memory storage: checks only.
    Quick,
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

fn run_workload(workload: &str, cfg: &RunConfig) -> Outcome {
    match workload {
        "validate-hybrid" => validate::run(validate::Guidance::Hybrid, cfg),
        "validate-uncertainty" => validate::run(validate::Guidance::Uncertainty, cfg),
        "stream-serve" => stream::run(cfg),
        other => unreachable!("unvalidated workload {other}"),
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    repeat: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        repeat: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace` alone means on; `--trace 0|1` is explicit.
                args.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                let n: usize = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.quick && args.repeat.is_none() && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            eprintln!(
                "usage: e2e --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n       \
                 e2e --quick\n       e2e --repeat <runs> [--seed <first>] [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.quick {
        return quick();
    }
    if let Some(runs) = args.repeat {
        return repeat(runs, &args);
    }
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale: Scale::Paper,
    };
    let mut out = run_workload(workload, &cfg);
    for line in &out.notes {
        println!("{line}");
    }
    let json = out.json(cfg.traced);
    for f in &out.failures {
        eprintln!("e2e: check failed: {f}");
    }
    println!("{json}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload on the mini corpus with every check and no timing: the
/// traced run (replica, twin, explicit checkpoints) and the untraced run,
/// which must also end in the same state.
fn quick() -> ExitCode {
    let mut failed = 0;
    for workload in WORKLOADS {
        let run = |traced| {
            let cfg = RunConfig {
                seed: DEFAULT_SEED,
                seconds: 1.0,
                traced,
                scale: Scale::Quick,
            };
            run_workload(workload, &cfg)
        };
        let (mut traced, plain) = (run(true), run(false));
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.failures.extend(plain.failures);
        if let (Some(a), Some(b)) = (traced.digest, plain.digest) {
            traced.check(a == b, || {
                "traced and untraced runs ended in different states".into()
            });
        }
        println!(
            "quick {workload}: {} operations checked, {} failed",
            traced.attempted, traced.failed
        );
        for f in &traced.failures {
            println!("  check failed: {f}");
        }
        failed += traced.failed;
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `runs` rounds of every workload, each in its own process with seed
/// `first + round`, rotating which workload goes first; prints each
/// metric's median, quartiles and spreads.
fn repeat(runs: usize, args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut values: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); workloads.len()];
    let mut failed_runs = 0;
    for round in 0..runs {
        for i in 0..workloads.len() {
            let w = (round + i) % workloads.len();
            let seed = args.seed + round as u64;
            let output = std::process::Command::new(&exe)
                .args(["--workload", workloads[w], "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .output();
            let stdout = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    failed_runs += 1;
                    eprintln!(
                        "e2e: {} seed {seed} failed: {}",
                        workloads[w],
                        String::from_utf8_lossy(&o.stderr).trim()
                    );
                    continue;
                }
                Err(e) => {
                    eprintln!("e2e: cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let last = stdout.lines().last().unwrap_or_default();
            println!("{} seed {seed}: {last}", workloads[w]);
            for (name, v) in report::parse_metrics(last) {
                match values[w].iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => values[w].push((name, vec![v])),
                }
            }
        }
    }
    println!(
        "{:<22} {:<34} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    for (w, metrics) in workloads.iter().zip(&values) {
        for (name, vs) in metrics {
            let med = stats::median(vs);
            let (q1, q3) = stats::quartiles(vs);
            let s = stats::sorted(vs);
            let rel = |d: f64| if med != 0.0 { d / med.abs() } else { 0.0 };
            println!(
                "{w:<22} {name:<34} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>8.3} {:>8.3}",
                rel(q3 - q1),
                rel(s[s.len() - 1] - s[0])
            );
        }
    }
    if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_run_command_line() {
        let a = parse("--workload stream-serve --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("stream-serve"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 20.0, true));
        let a = parse("--trace --workload validate-hybrid").unwrap();
        assert!(a.traced);
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!parse("--workload stream-serve --trace 0").unwrap().traced);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err(), "a workload is required");
        assert!(parse("--quick").is_ok());
    }
}
