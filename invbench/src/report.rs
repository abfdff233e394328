//! Metric records, the human-readable report and the one-line JSON
//! result.

use std::fmt::Write as _;

/// End-to-end metrics scored on every workload, in `BENCHMARK.json`
/// order: `(name, unit, higher is better)`.
pub const END_TO_END: [(&str, &str, bool); 8] = [
    ("setup_s", "s", false),
    ("submit_p50_ms", "ms", false),
    ("submit_p90_ms", "ms", false),
    ("jobs_per_s", "1/s", true),
    ("characterize_s", "s", false),
    ("server_rss_mb", "MB", false),
    ("pst_gain_sim", "ratio", true),
    ("pst_gain_aim", "ratio", true),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("poll.epoll_wakeups", "count"),
    ("conn.frames_parsed", "count"),
    ("poll.frames_per_wakeup", "ratio"),
    ("conn.write_backpressure_events", "count"),
    ("frontend.p50_ms", "ms"),
    ("frontend.p99_ms", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.serialize_us", "us"),
    ("protocol.response_bytes", "B"),
    ("server.job_p50_ms", "ms"),
    ("server.job_p99_ms", "ms"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.depth_peak", "count"),
    ("queue.steals", "count"),
    ("queue.busy_rejections", "count"),
    ("queue.requests_shed", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us", "us"),
    ("cache.miss_ms", "ms"),
    ("rbms.brute_ms", "ms"),
    ("rbms.esct_ms", "ms"),
    ("rbms.awct_ms", "ms"),
    ("rbms.trials", "count"),
    ("journal.checkpoints", "count"),
    ("profile_io.save_ms", "ms"),
    ("profile_io.bytes_written", "B"),
    ("sim.self_ms", "ms"),
    ("aim.self_ms", "ms"),
    ("executor.calls", "count"),
    ("executor.circuits_per_call", "ratio"),
    ("executor.self_ms", "ms"),
    ("qasm.parse_us", "us"),
    ("fuse.us_per_circuit", "us"),
    ("fuse.ops_per_circuit", "count"),
    ("statevector.simulations", "count"),
    ("statevector.simulations_per_job", "ratio"),
    ("statevector.apply_ms", "ms"),
    ("statevector.bytes_moved", "B"),
    ("pool.tasks", "count"),
    ("pool.barrier_waits", "count"),
    ("arena.reuse_hits", "count"),
    ("mapper.route_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value (finite).
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
    /// How it was obtained, or why it is absent.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples,
            note: String::new(),
        }
    }

    /// Adds a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// One workload's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// All output checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Scored end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The remaining end-to-end figures, reported but not scored.
    pub extra: Vec<Metric>,
    /// Per-layer metrics ([`PER_LAYER`]); traced runs only.
    pub per_layer: Vec<Metric>,
    /// Generator self-report lines.
    pub generator: Vec<String>,
    /// Failed checks.
    pub problems: Vec<String>,
}

impl Report {
    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== workload {}", self.workload);
        let _ = writeln!(
            s,
            "   correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for g in &self.generator {
            let _ = writeln!(s, "   generator: {g}");
        }
        let mut section = |title: &str, metrics: &[Metric]| {
            if metrics.is_empty() {
                return;
            }
            let _ = writeln!(s, "   -- {title}");
            for m in metrics {
                let _ = writeln!(
                    s,
                    "   {:<34} {:>14.6} {:<6} n={:<6} {}",
                    m.name, m.value, m.unit, m.samples, m.note
                );
            }
        };
        section("end-to-end (scored)", &self.end_to_end);
        section("end-to-end (reported)", &self.extra);
        section("per-layer (traced run)", &self.per_layer);
        for p in self.problems.iter().take(10) {
            let _ = writeln!(s, "   CHECK FAILED: {p}");
        }
        if self.problems.len() > 10 {
            let _ = writeln!(
                s,
                "   ... and {} more failed checks",
                self.problems.len() - 10
            );
        }
        s
    }

    /// The one-line JSON result: end-to-end metrics untraced, per-layer
    /// metrics when traced.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (a bug upstream) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "w".into(),
            correct: true,
            attempted: 3,
            failed: 0,
            end_to_end: vec![Metric::new("setup_s", "s", 0.25, 3)],
            per_layer: vec![Metric::new("cache.hits", "count", 12.0, 1)],
            ..Report::default()
        };
        assert_eq!(
            r.json(false),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert!(r
            .json(true)
            .contains(r#""cache.hits":{"value":12.0,"unit":"count"}"#));
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let entry =
            |name: &str, unit: &str| format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        for (name, unit, higher) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let want = format!("{},\n      \"better\": \"{better}\"", entry(name, unit));
            assert!(
                text.contains(&want),
                "{name} missing or different in BENCHMARK.json"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                text.contains(&entry(name, unit)),
                "{name} missing in BENCHMARK.json"
            );
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            3 + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
