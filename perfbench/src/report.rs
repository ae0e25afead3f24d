//! Metric collection, the per-layer metric catalogue, and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports on an untraced run.
/// "op" is the workload's unit of work: a refresh (`fleet_query`), a
/// committed transaction (`oltp_wire`) or one traversal (`navigate`).
/// Tail percentiles go on each workload's detail line instead: on the
/// shared 2-CPU host they followed cpu steal (`fleet_query`'s p90 spread
/// 0.24 over ten seeds, `oltp_wire`'s p90 1.7-17.6 ms).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Every per-layer metric a traced run of a gated workload reports, with
/// its unit. A workload that does not exercise a metric reports 0 and
/// names it on the `not exercised` line. `oltp_wire` measures further
/// per-layer figures (lock, WAL, fsync, recovery, round trips) and prints
/// them on its detail line. perfbench/README.md maps each metric to the
/// workload and end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    // query
    ("query.parse_us", "us"),
    ("query.prepare_us", "us"),
    ("query.execute_ms", "ms"),
    ("query.us_per_candidate", "us"),
    ("query.rows_scanned_per_refresh", "count"),
    ("query.match_ratio", "ratio"),
    ("query.memo_hit_ratio", "ratio"),
    // index
    ("index.picks_per_refresh", "count"),
    // core
    ("core.snapshot_reads_per_candidate", "count"),
    ("core.get_us", "us"),
    ("core.navigate_us", "us"),
    ("core.navigate_hot_us", "us"),
    ("core.navigate_cold_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_evictions_per_traversal", "count"),
    ("core.swizzled_hop_ratio", "ratio"),
    ("core.self_us_per_op", "us"),
    // tx
    ("tx.locks_per_traversal", "count"),
    ("tx.begin_commit_us", "us"),
    ("tx.self_us_per_op", "us"),
    // storage
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.disk_reads_per_traversal", "count"),
    ("storage.pool_misses_per_refresh", "count"),
    // net
    ("net.server_request_p50_us", "us"),
    ("net.wakeups_per_request", "count"),
    ("net.busy_rejections", "count"),
    ("net.query_overhead_ms", "ms"),
    ("net.self_us_per_op", "us"),
    // loadgen
    ("loadgen.ops_attempted", "count"),
    ("loadgen.self_us_per_op", "us"),
    ("trace.overhead_pct", "%"),
];

/// Named values, unit looked up in a catalogue at print time.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0
            .insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives (never exponent notation).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in catalogue order.
pub fn metrics_json(catalogue: &[(&str, &str)], m: &Metrics) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(m.get(name).unwrap_or(0.0)),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A flat `{"name": value}` object (run records).
pub fn flat_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), num(*v)))
            .collect();
    format!("{{{}}}", body.join(", "))
}
