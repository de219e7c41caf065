//! Metric names, units, and the one-line JSON result every run prints.
//!
//! Every workload reports the same end-to-end metric names, because the
//! benchmark's regression gate compares each of them on each workload. A
//! metric means the workload's own operation: a validation iteration for
//! `validate-*`, an arrival for `stream-serve`. A per-layer time or count
//! of a layer that is off a workload's path is 0 on that workload.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Metrics of an untraced run, as a user of the system sees them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run: where each operation's time went, and the
/// counts each layer did the work in.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The operation's tail latency (the highest percentile with ten samples
    // beyond it) and closed-loop rate. Both are user-facing, but between
    // runs of different seeds they spread about as wide as the largest
    // regression bound (the arrival tail, set by checkpoint stalls, wider),
    // so they are recorded here rather than gated.
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    // Set-up split.
    ("factdb.generate_s", "s"),
    ("factdb.to_model_s", "s"),
    ("core.process_new_s", "s"),
    ("durability.create_s", "s"),
    ("serve.server_new_s", "s"),
    // Validation iteration (Alg. 1): self time per iteration.
    ("guidance.rank_ms", "ms"),
    ("crf.icrf_run_ms", "ms"),
    ("core.grounding_ms", "ms"),
    ("crf.source_trust_ms", "ms"),
    ("guidance.entropy_ms", "ms"),
    // The kernels behind it, timed in shadow calls off the blocking path.
    ("crf.hypothetical_run_ms", "ms"),
    ("crf.estep_ms", "ms"),
    ("crf.gibbs_visits_per_s", "1/s"),
    // Arrival, from its due time until durable and published: self time
    // per arrival, and the time of one checkpoint of each kind.
    ("stream.queue_wait_ms", "ms"),
    ("stream.arrive_ms", "ms"),
    ("durability.log_ms", "ms"),
    ("durability.ack_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("durability.checkpoint_full_ms", "ms"),
    ("durability.checkpoint_incr_ms", "ms"),
    ("durability.recover_s", "s"),
    // Query round beside the arrivals, from its due time: the round, the
    // generator's lateness per round, and each call's latency.
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("serve.query_wait_us", "us"),
    ("serve.truth_batch_p50_us", "us"),
    ("serve.truth_batch_p99_us", "us"),
    ("serve.top_k_p50_us", "us"),
    ("serve.top_k_p99_us", "us"),
    ("serve.source_trust_p50_us", "us"),
    ("serve.source_trust_p99_us", "us"),
    // The primary operation's time no span accounts for, and the extra
    // work tracing adds to it.
    ("unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    // Work counts.
    ("guidance.source_arm_share", "share"),
    ("crf.em_iterations", "count"),
    ("crf.gibbs_sweeps", "count"),
    ("crf.tron_iterations", "count"),
    ("crf.cache_incremental_share", "share"),
    ("crf.largest_component", "count"),
    ("crf.claim_slots_peak", "count"),
    ("core.uncertain_claims", "count"),
    ("core.precision_final", "share"),
    ("stream.online_tron_iterations", "count"),
    ("stream.retained_instances", "count"),
    ("stream.retired_claims", "count"),
    ("stream.compactions", "count"),
    ("durability.wal_bytes_per_arrival", "B"),
    ("durability.checkpoint_full_bytes", "B"),
    ("durability.checkpoint_incr_bytes", "B"),
    ("durability.checkpoints", "count"),
    ("durability.recover_replay_records", "count"),
    ("serve.staleness_arrivals", "count"),
];

/// Per-layer metrics that every workload measures.
const TRACED_ON_EVERY_WORKLOAD: &[&str] = &[
    "latency_tail_ms",
    "throughput_per_s",
    "factdb.generate_s",
    "factdb.to_model_s",
];

/// The workloads, in the order `--repeat` and `--quick` run them.
pub const WORKLOADS: &[&str] = &["validate-hybrid", "validate-uncertainty", "stream-serve"];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Fingerprint of the state the run ends in, where that state does not
    /// depend on timing: traced and untraced runs must agree on it.
    pub digest: Option<u64>,
}

impl Outcome {
    /// Count one attempted operation that failed `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The median and the tail of the workload's operation latencies (ms).
    pub fn set_latency(&mut self, ms: &[f64]) {
        self.set("latency_p50_ms", stats::median(ms));
        self.set("latency_tail_ms", stats::tail(&stats::sorted(ms)).1);
    }

    /// The result line: the end-to-end metrics (untraced) or the per-layer
    /// metrics (traced). A per-layer metric the run did not set is 0, its
    /// layer being off the workload's path, unless every workload measures
    /// it; a missing end-to-end metric is a failure.
    pub fn json(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        let mut problems = Vec::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    problems.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if traced && !TRACED_ON_EVERY_WORKLOAD.contains(&name) => 0.0,
                None => {
                    problems.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        for p in problems {
            self.check(false, || p);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// FNV-1a over 64-bit words.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// The `(name, value)` pairs of a result line (for `--repeat`).
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = line.find("\"metrics\"") else {
        return out;
    };
    let mut rest = &line[start + "\"metrics\"".len()..];
    while let Some(q) = rest.find("\": {\"value\": ") {
        let name_start = rest[..q].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..q].to_string();
        let after = &rest[q + "\": {\"value\": ".len()..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit or why)` of every object in the array under `key` of
    /// the benchmark description.
    fn entries(json: &str, key: &str, second: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\""))?;
            let v = &obj[at + f.len() + 2..];
            let v = &v[v.find('"')? + 1..];
            Some(v[..v.find('"')?].to_string())
        };
        json[open..close]
            .split('}')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, second)?)))
            .collect()
    }

    fn pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_match_the_benchmark_description() {
        let json = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(entries(json, "end_to_end", "unit"), pairs(END_TO_END));
        assert_eq!(entries(json, "per_layer", "unit"), pairs(PER_LAYER));
        let workloads: Vec<String> = entries(json, "workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(json.contains(&format!("\"run_seconds\": {}", crate::RUN_SECONDS)));
    }

    #[test]
    fn result_line_round_trips_and_flags_missing_times() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            out.set(name, 1.25);
        }
        let line = out.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        let parsed = parse_metrics(&line);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert!(parsed.iter().all(|(_, v)| *v == 1.25));

        // A layer off the path reads 0; a metric every workload measures
        // must be there.
        let mut traced = Outcome::default();
        let line = traced.json(true);
        assert!(line.contains("\"guidance.rank_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert_eq!(
            traced.failed,
            TRACED_ON_EVERY_WORKLOAD.len() as u64,
            "tail, rate and set-up times were not measured"
        );
        assert!(line.starts_with("{\"correct\": false"));
    }
}
