//! What a run reports: output-check tallies, the metric sets, the
//! human-readable table on stderr, and the one-line JSON result.

use std::fmt::Write as _;

use crate::stats::Dist;

/// Failure messages kept for the report; the count is always exact.
const KEEP_PROBLEMS: usize = 8;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations attempted and output checks failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < KEEP_PROBLEMS {
            self.problems.push(msg);
        }
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(msg());
        }
    }

    /// Counts the outcome of one operation.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Set when the run cannot be trusted even though outputs checked
    /// out, such as an open-loop generator that fell behind.
    pub invalid: Option<String>,
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub latency: Dist,
    /// The workload's own end-to-end figures under their own names.
    pub named: Vec<Metric>,
    /// Per-layer metrics this workload measured.
    pub layers: Vec<Metric>,
    /// Relative worsening of the primary metric under tracing.
    pub trace_overhead: Option<f64>,
    /// Attribution rows, ms; they sum to `wall_ms`.
    pub rows: Vec<(String, f64)>,
    pub wall_ms: f64,
    pub wall_label: String,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, setup_s: f64, throughput_per_s: f64, latency: Dist) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            invalid: None,
            setup_s,
            throughput_per_s,
            latency,
            named: Vec::new(),
            layers: Vec::new(),
            trace_overhead: None,
            rows: Vec::new(),
            wall_ms: 0.0,
            wall_label: String::new(),
            notes: Vec::new(),
        }
    }

    pub fn finish(mut self, tally: Tally) -> Self {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.problems = tally.problems;
        self
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none() && self.attempted > 0
    }

    /// The end-to-end metrics, under the keys every workload shares.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("throughput_per_s", self.throughput_per_s, "1/s"),
            Metric::new("latency_p50_ms", self.latency.p50, "ms"),
            Metric::new("latency_p99_ms", self.latency.hi, "ms"),
        ]
    }

    /// Every per-layer metric in `names`: measured ones by value, the
    /// rest as 0 — a layer this workload does not reach did no work.
    pub fn per_layer(&self, names: &[(&str, &'static str)]) -> Vec<Metric> {
        names
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    }

    /// The human-readable report.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {}: {} attempted, {} failed",
            self.workload, self.attempted, self.failed
        );
        for p in &self.problems {
            let _ = writeln!(s, "  FAILED: {p}");
        }
        if let Some(why) = &self.invalid {
            let _ = writeln!(s, "  INVALID RUN: {why}");
        }
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(s, "  {:<34} {error_rate:>14.6} fraction", "error_rate");
        let _ = writeln!(
            s,
            "  latency samples: {} (tail reported at {})",
            self.latency.n,
            self.latency.hi_label()
        );
        for m in self
            .end_to_end()
            .iter()
            .chain(&self.named)
            .chain(&self.layers)
        {
            let _ = writeln!(s, "  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
        }
        if let Some(o) = self.trace_overhead {
            let _ = writeln!(
                s,
                "  tracing overhead on the primary metric: {:+.2}%",
                o * 100.0
            );
        }
        if !self.rows.is_empty() {
            let _ = writeln!(
                s,
                "  attribution of {}: {:.3} ms",
                self.wall_label, self.wall_ms
            );
            for (layer, ms) in &self.rows {
                let _ = writeln!(
                    s,
                    "    {:<14} {:>12.3} ms {:>7.2}%",
                    layer,
                    ms,
                    ms / self.wall_ms * 100.0
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(s, "  note: {n}");
        }
        s
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` with every digit kept.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}
