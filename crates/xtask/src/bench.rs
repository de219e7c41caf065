//! Continuous benchmarking: `cargo xtask bench-record`.
//!
//! The committed `BENCH_*.json` files at the workspace root are the
//! workspace's perf baselines — each one is regenerated by its bench
//! binary and carries the gate ratios that bench enforces in its exit
//! code. This module adds the *history* dimension on top of them, in the
//! style of simpledb's `dev/bench`:
//!
//! * `cargo xtask bench-record` re-checks every gate floor against the
//!   committed baselines, compares the gated metrics against the previous
//!   history entry (so a PR that quietly commits worse numbers fails even
//!   while still above the absolute floor), and appends a timestamped
//!   entry `{timestamp, commit, benches}` to `dev/bench/history.json`.
//! * `cargo xtask bench-record --quick` performs the same checks but
//!   writes nothing — this is the CI mode, asserting that the committed
//!   baselines still hold without dirtying the tree.
//!
//! The gate table below is the single machine-readable source of truth
//! for the floors; the bench binaries keep their own copies in their exit
//! codes, and `dev/bench/history.json` lets a reviewer see every ratio's
//! trajectory across merged PRs. Floors are absolute; the drift check is
//! relative with generous slack ([`DRIFT_SLACK`]) because the baselines
//! are regenerated on whatever co-tenant machine the author had — it only
//! trips on a collapse a human should look at, not on scheduler noise.

use serde::Value;
use std::path::Path;

/// One perf gate: a metric inside a committed `BENCH_*.json` baseline and
/// the absolute floor (or ceiling) it must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Which baseline the metric lives in: `"gibbs"`, `"stream"`, `"serve"`.
    pub bench: &'static str,
    /// Dotted path of object fields from the baseline root to the metric.
    pub path: &'static [&'static str],
    /// The bound the metric must satisfy.
    pub bound: f64,
    /// `true`: metric must be `>= bound` (a speedup floor).
    /// `false`: metric must be `<= bound` (an overhead ceiling).
    pub higher_is_better: bool,
}

impl Gate {
    fn name(&self) -> String {
        format!("{}:{}", self.bench, self.path.join("."))
    }
}

/// Every gate the bench binaries enforce, in one table. A metric present
/// here but missing from its baseline file is an error — gates cannot
/// silently fall out of coverage when a bench is reshaped.
pub const GATES: &[Gate] = &[
    // gibbs: sweep-throughput speedups of the production E-step over the
    // reference scalar sampler, both measured in the same run; topology
    // floors are 0.85x the committed values (see benches/gibbs.rs).
    Gate {
        bench: "gibbs",
        path: &["after_scheduled", "speedup"],
        bound: 3.0,
        higher_is_better: true,
    },
    Gate {
        bench: "gibbs",
        path: &["topologies", "many_small", "scheduled_vs_reference"],
        bound: 7.30,
        higher_is_better: true,
    },
    Gate {
        bench: "gibbs",
        path: &["topologies", "few_giant", "scheduled_vs_reference"],
        bound: 5.91,
        higher_is_better: true,
    },
    // stream: incremental-arrival speedups and the durability overheads
    // (see benches/stream.rs).
    Gate {
        bench: "stream",
        path: &["speedup"],
        bound: 5.0,
        higher_is_better: true,
    },
    Gate {
        bench: "stream",
        path: &["windowed", "speedup"],
        bound: 5.0,
        higher_is_better: true,
    },
    Gate {
        bench: "stream",
        path: &["durability", "batched_overhead"],
        bound: 0.25,
        higher_is_better: false,
    },
    Gate {
        bench: "stream",
        path: &["durability", "group_vs_batched"],
        bound: 1.10,
        higher_is_better: false,
    },
    Gate {
        bench: "stream",
        path: &["durability", "checkpoints", "full_vs_increment"],
        bound: 4.0,
        higher_is_better: true,
    },
    // serve: concurrent query load must not slow ingest beyond the gate
    // (see benches/serve.rs).
    Gate {
        bench: "serve",
        path: &["ingest", "slowdown"],
        bound: 1.15,
        higher_is_better: false,
    },
];

/// Relative slack for the vs-previous-entry drift check: a gated speedup
/// may shrink to `previous * DRIFT_SLACK` (and a gated overhead grow to
/// `previous / DRIFT_SLACK`) without failing. Both sides of every ratio
/// are measured in one bench process — often interleaved — so machine
/// drift largely cancels; losing 40% of a ratio between two *committed*
/// baselines means a PR regressed it, not that the scheduler hiccupped.
pub const DRIFT_SLACK: f64 = 0.6;

/// Numeric view of a tree value (the shim `Value` has no `as_f64`).
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Walk a field path from `root` and read the number at the end.
pub fn metric(root: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = root;
    for key in path {
        cur = cur
            .field(key)
            .map_err(|e| format!("at `{}`: {e}", path.join(".")))?;
    }
    num(cur).ok_or_else(|| {
        format!(
            "metric `{}` is {} — expected a number",
            path.join("."),
            cur.kind()
        )
    })
}

/// Look up a bench tree by name in a `(name, tree)` list.
fn bench_tree<'a>(benches: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    benches.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// Check every gate's absolute floor against the committed baselines.
/// Returns one human-readable failure line per violated (or missing) gate.
pub fn check_floors(benches: &[(String, Value)]) -> Vec<String> {
    let mut failures = Vec::new();
    for gate in GATES {
        let Some(tree) = bench_tree(benches, gate.bench) else {
            failures.push(format!("{}: baseline file missing", gate.name()));
            continue;
        };
        match metric(tree, gate.path) {
            Err(e) => failures.push(format!("{}: {e}", gate.name())),
            Ok(v) if gate.higher_is_better && v < gate.bound => failures.push(format!(
                "{}: {v} is below the {} floor",
                gate.name(),
                gate.bound
            )),
            Ok(v) if !gate.higher_is_better && v > gate.bound => failures.push(format!(
                "{}: {v} is above the {} ceiling",
                gate.name(),
                gate.bound
            )),
            Ok(_) => {}
        }
    }
    failures
}

/// Compare the gated metrics against the previous history entry. A gate
/// whose metric is absent from the previous entry is skipped — that is
/// how new gates enter the history without a flag day.
pub fn check_drift(current: &[(String, Value)], previous: &Value) -> Vec<String> {
    let mut failures = Vec::new();
    let Ok(prev_benches) = previous.field("benches") else {
        return failures;
    };
    for gate in GATES {
        let (Some(tree), Ok(prev_tree)) = (
            bench_tree(current, gate.bench),
            prev_benches.field(gate.bench),
        ) else {
            continue;
        };
        let (Ok(cur), Ok(prev)) = (metric(tree, gate.path), metric(prev_tree, gate.path)) else {
            continue;
        };
        let regressed = if gate.higher_is_better {
            cur < prev * DRIFT_SLACK
        } else {
            cur > prev / DRIFT_SLACK
        };
        if regressed {
            failures.push(format!(
                "{}: {cur} regressed more than {:.0}% from the previous entry's {prev}",
                gate.name(),
                (1.0 - DRIFT_SLACK) * 100.0
            ));
        }
    }
    failures
}

/// The baseline files a history entry snapshots, as `(name, file)` pairs.
pub const BASELINES: &[(&str, &str)] = &[
    ("gibbs", "BENCH_gibbs.json"),
    ("stream", "BENCH_stream.json"),
    ("serve", "BENCH_serve.json"),
];

fn read_baselines(root: &Path) -> Result<Vec<(String, Value)>, String> {
    let mut benches = Vec::new();
    for (name, file) in BASELINES {
        let path = root.join(file);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let tree: Value = serde_json::from_str(&text).map_err(|e| format!("parse {file}: {e}"))?;
        benches.push((name.to_string(), tree));
    }
    Ok(benches)
}

/// `HEAD`'s commit hash, or `"unknown"` when git is unavailable (e.g. an
/// exported tarball) — the history stays appendable either way.
fn head_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch. Wall-clock time is exactly what a bench
/// history wants to record; xtask sits outside the determinism-critical
/// scope (`d2_skip`).
fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Run the bench-record flow. Returns the failure lines (empty = success);
/// `Err` is reserved for I/O and parse problems. `quick` skips the append.
pub fn bench_record(root: &Path, quick: bool) -> Result<Vec<String>, String> {
    let benches = read_baselines(root)?;
    let mut failures = check_floors(&benches);

    let history_path = root.join("dev/bench/history.json");
    let mut history: Vec<Value> = match std::fs::read_to_string(&history_path) {
        Ok(text) => {
            let tree: Value = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", history_path.display()))?;
            tree.as_array()
                .map_err(|e| format!("{}: {e}", history_path.display()))?
                .to_vec()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {e}", history_path.display())),
    };
    if let Some(previous) = history.last() {
        failures.extend(check_drift(&benches, previous));
    }

    if !failures.is_empty() || quick {
        return Ok(failures);
    }

    let entry = Value::Object(vec![
        ("timestamp".to_string(), Value::U64(unix_timestamp())),
        ("commit".to_string(), Value::Str(head_commit(root))),
        ("benches".to_string(), Value::Object(benches)),
    ]);
    history.push(entry);
    let rendered = serde_json::to_string(&Value::Array(history))
        .map_err(|e| format!("serialise history: {e}"))?;
    if let Some(dir) = history_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    std::fs::write(&history_path, rendered + "\n")
        .map_err(|e| format!("write {}: {e}", history_path.display()))?;
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    /// A minimal baseline set where every gated metric sits exactly on
    /// the passing side of its bound.
    fn passing_benches() -> Vec<(String, Value)> {
        vec![
            (
                "gibbs".to_string(),
                parse(
                    r#"{"after_scheduled": {"speedup": 3.0},
                        "topologies": {
                          "many_small": {"scheduled_vs_reference": 7.3},
                          "few_giant": {"scheduled_vs_reference": 5.91}}}"#,
                ),
            ),
            (
                "stream".to_string(),
                parse(
                    r#"{"speedup": 5, "windowed": {"speedup": 6.0},
                        "durability": {"batched_overhead": 0.25,
                                       "group_vs_batched": 1.1,
                                       "checkpoints": {"full_vs_increment": 4.0}}}"#,
                ),
            ),
            (
                "serve".to_string(),
                parse(r#"{"ingest": {"slowdown": 1.15}}"#),
            ),
        ]
    }

    #[test]
    fn floors_pass_at_the_bound_and_fail_beyond_it() {
        assert_eq!(check_floors(&passing_benches()), Vec::<String>::new());

        let mut benches = passing_benches();
        benches[0].1 = parse(
            r#"{"after_scheduled": {"speedup": 2.9},
                "topologies": {
                  "many_small": {"scheduled_vs_reference": 7.3},
                  "few_giant": {"scheduled_vs_reference": 5.9}}}"#,
        );
        benches[2].1 = parse(r#"{"ingest": {"slowdown": 1.16}}"#);
        let failures = check_floors(&benches);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(
            failures[0].contains("after_scheduled.speedup"),
            "{failures:?}"
        );
        assert!(failures[1].contains("few_giant"), "{failures:?}");
        assert!(failures[2].contains("ceiling"), "{failures:?}");
    }

    /// Integers in the JSON satisfy floors just like floats — the shim
    /// parses `5` as an integer variant, not `F64`.
    #[test]
    fn integer_metrics_are_accepted() {
        let v = parse(r#"{"speedup": 12}"#);
        assert_eq!(metric(&v, &["speedup"]), Ok(12.0));
    }

    #[test]
    fn missing_or_non_numeric_gate_metrics_are_failures() {
        let mut benches = passing_benches();
        // Drop the whole serve file: the gate must notice, not skip.
        benches.retain(|(n, _)| n != "serve");
        let failures = check_floors(&benches);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("baseline file missing"),
            "{failures:?}"
        );

        // A reshaped bench that loses the metric is also a failure.
        let mut benches = passing_benches();
        benches[2].1 = parse(r#"{"ingest": {}}"#);
        let failures = check_floors(&benches);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("slowdown"), "{failures:?}");
    }

    #[test]
    fn drift_trips_only_on_large_regressions() {
        let current = passing_benches();
        let previous = Value::Object(vec![(
            "benches".to_string(),
            Value::Object(passing_benches()),
        )]);
        // Identical entries: no drift.
        assert_eq!(check_drift(&current, &previous), Vec::<String>::new());

        // Previous few-giant speedup was far higher: current 5.91 is below
        // 12.0 * 0.6, so the drift check fires even though the floor holds.
        let mut prev_benches = passing_benches();
        prev_benches[0].1 = parse(
            r#"{"after_scheduled": {"speedup": 3.0},
                "topologies": {
                  "many_small": {"scheduled_vs_reference": 7.3},
                  "few_giant": {"scheduled_vs_reference": 12.0}}}"#,
        );
        let previous = Value::Object(vec![("benches".to_string(), Value::Object(prev_benches))]);
        let failures = check_drift(&current, &previous);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("regressed"), "{failures:?}");
    }

    #[test]
    fn drift_skips_gates_absent_from_the_previous_entry() {
        let previous = parse(r#"{"benches": {"gibbs": {}}}"#);
        assert_eq!(
            check_drift(&passing_benches(), &previous),
            Vec::<String>::new()
        );
    }

    /// End-to-end against the real committed baselines: the floors in
    /// [`GATES`] must hold for the workspace as checked in, and quick mode
    /// must leave the tree untouched.
    #[test]
    fn committed_baselines_satisfy_every_gate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let history = root.join("dev/bench/history.json");
        let before = std::fs::read(&history).ok();
        let failures = bench_record(&root, true).expect("baselines readable");
        assert_eq!(failures, Vec::<String>::new());
        let after = std::fs::read(&history).ok();
        assert_eq!(before, after, "quick mode must not write");
    }
}
