//! The metric tables (names and units, matching `BENCHMARK.json`), the
//! outcome of one run, and its printing.

use crate::stats::{metric, Metric};
use std::collections::BTreeMap;

/// End-to-end metrics, measured with request tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("qps", "queries/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("index_bytes", "bytes"),
    ("rss_peak_mb", "MiB"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p90_ms", "ms"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("graph.generate_ms", "ms"),
    ("order.compute_ms", "ms"),
    ("core.build.build_ms", "ms"),
    ("core.build.entries", "count"),
    ("core.flat.freeze_ms", "ms"),
    ("core.flat.encode_ms", "ms"),
    ("core.flat.encoded_bytes", "count"),
    ("graph.partition_ms", "ms"),
    ("core.overlay.build_ms", "ms"),
    ("core.kernel.query_ns", "ns"),
    ("core.kernel.label_entries_per_query", "count"),
    ("core.parallel.batch_us", "us"),
    ("server.reactor.parse_us", "us"),
    ("server.reactor.write_us", "us"),
    ("server.reactor.queue_us_p50", "us"),
    ("server.reactor.queue_us_p99", "us"),
    ("server.reactor.execute_us_p50", "us"),
    ("server.reactor.execute_us_p99", "us"),
    ("server.reactor.shed", "count"),
    ("server.cache.hit_ratio", "ratio"),
    ("loadgen.repeat_key_frac", "ratio"),
    ("core.dynamic.apply_ms", "ms"),
    ("core.dynamic.freeze_ms", "ms"),
    ("core.dynamic.affected_hubs", "count"),
    ("core.dynamic.reinserted_entries", "count"),
    ("core.dynamic.rebuild_fallbacks", "count"),
    ("server.snapshot.write_ms", "ms"),
    ("server.reload.rtt_ms", "ms"),
    ("server.reload.decode_us", "us"),
    ("server.reload.swap_us", "us"),
    ("core.overlay.boundary", "count"),
    ("core.overlay.fanout_per_query", "count"),
    ("core.overlay.sharded_distance_us", "us"),
    ("server.router.backend_us_p50", "us"),
    ("server.router.backend_us_p99", "us"),
    ("server.router.retries", "count"),
    ("server.router.failovers", "count"),
    ("server.router.cache_hit_ratio", "ratio"),
    ("server.router.threads_after", "count"),
    ("server.router.vmsize_mb_per_1k_conns", "MiB"),
    ("loadgen.samples", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("host.steal_pct", "%"),
];

/// Exact counts that must repeat bit-for-bit for the same code and seed.
pub const EXACT: [&str; 5] = [
    "core.build.entries",
    "core.flat.encoded_bytes",
    "core.kernel.label_entries_per_query",
    "core.overlay.fanout_per_query",
    "core.dynamic.affected_hubs",
];

/// Named values keyed by a table's metric names.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`, which must appear in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics of `table`, in table order; unset ones read 0.
    pub fn metrics(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table.iter().map(|&(name, unit)| metric(name, self.get(name), unit)).collect()
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: queries, update batches, and reloads.
    pub attempted: u64,
    /// Failed, refused, or shed operations.
    pub failed: u64,
    /// Wrong answers and failed self-checks.
    pub mismatches: u64,
    pub values: Values,
    /// Problems found, one line each.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.set(name, value);
    }

    /// Records `count` failed checks, described by `note`.
    pub fn mismatch(&mut self, count: u64, note: String) {
        if count == 0 {
            return;
        }
        self.mismatches += count;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// `failed_frac`: failed operations and wrong answers over attempts.
    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.mismatches) as f64 / self.attempted.max(1) as f64
    }
}

/// Prints the human-readable table and, last, the one-line JSON result.
pub fn print(outcome: &Outcome, trace: bool) {
    let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = outcome.values.metrics(table);
    for note in &outcome.notes {
        println!("check: {note}");
    }
    println!("{:<40} {:>16} unit", "metric", "value");
    for m in &metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {:>16.6} ratio", "failed_frac", outcome.failed_frac());
    println!("{:<40} {:>16} count", "latency_samples", outcome.values.get("loadgen.samples"));
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatches == 0,
        outcome.attempted.max(1),
        outcome.failed + outcome.mismatches,
        body.join(", ")
    );
}
