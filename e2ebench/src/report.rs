//! What one pass of a workload produces, and the fixed metric names
//! every workload reports (BENCHMARK.json lists the same names).

use crate::trace::Trace;
use crate::util::{quantile, JsonObj, Ops};

/// End-to-end metrics, reported untraced by every workload. The
/// workload decides which of its operations fills each slot (see the
/// crate docs): `ingest_p50_us` is its write path, `query_p50_ms` its
/// headline read. Tail percentiles are reported as detail only: on a
/// shared 2-vCPU host none repeated within a tenth across seeds.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("server_rss_peak_mb", "MiB"),
    ("ingest_p50_us", "us"),
    ("query_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run. Every workload reports every
/// name; a layer the workload never exercises reads 0 (only counts and
/// ratios can — every time layer is exercised by all three).
pub const LAYERS: [(&str, &str); 18] = [
    ("sketcher.sketch_us", "us"),
    ("wire.release_bytes", "bytes"),
    ("engine.ingest_us", "us"),
    ("engine.publish_us", "us"),
    ("engine.query_us", "us"),
    ("engine.memo_hit_ratio", "ratio"),
    ("kernel.pairs.query", "count"),
    ("kernel.ns_per_pair", "ns"),
    ("parallel.frontier_tiles", "count"),
    ("protocol.reply_bytes.query", "bytes"),
    ("protocol.decode_us.query", "us"),
    ("transport.self_us.ingest", "us"),
    ("transport.self_us.query", "us"),
    ("replication.write_amp", "ratio"),
    ("replication.compactions", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_ingest_pct", "%"),
    ("trace.overhead_query_pct", "%"),
];

#[derive(Default)]
pub struct PassResult {
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Workload-specific figures (per-operation latencies, checks).
    pub detail: Vec<(String, f64)>,
    pub ops: Ops,
    /// Every correctness or calibration failure found.
    pub mismatches: Vec<String>,
    pub trace: Option<Trace>,
}

impl PassResult {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(E2E.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown layer {name}"
        );
        self.layers.push((name, value));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64) {
        self.detail.push((name.into(), value));
    }

    /// Median, tail percentiles and mean of `samples` as `<name>_<stat>`
    /// detail figures.
    pub fn distribution(&mut self, name: &str, samples: &[f64]) {
        for (stat, q) in [
            ("p50", 0.5),
            ("p75", 0.75),
            ("p90", 0.9),
            ("p95", 0.95),
            ("p99", 0.99),
        ] {
            self.detail(format!("{name}_{stat}"), quantile(samples, q));
        }
        self.detail(
            format!("{name}_mean"),
            samples.iter().sum::<f64>() / samples.len() as f64,
        );
    }

    pub fn mismatch(&mut self, what: String) {
        // Keep the report readable when one bug breaks every operation.
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn detail_json(&self) -> String {
        let mut o = JsonObj::new();
        for (name, value) in &self.detail {
            o.num(name, *value);
        }
        o.finish()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `names`, in order; an
/// error names the first metric the pass could not measure.
pub fn metrics_json(
    names: &[(&str, &str)],
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    let mut o = JsonObj::new();
    for (name, unit) in names {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let mut m = JsonObj::new();
        m.num("value", value);
        m.str("unit", unit);
        o.raw(name, &m.finish());
    }
    Ok(o.finish())
}
