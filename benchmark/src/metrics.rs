//! The metric registry: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; a self-test keeps the two equal.

/// The seven end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("goodput_mbps", "MB/s"),
    ("datagrams_per_s", "1/s"),
    ("download_s_p50", "s"),
    ("download_s_p95", "s"),
    ("reception_overhead", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("gf.xor_gbps", "GB/s"),
    ("gf.xor_hot_gbps", "GB/s"),
    ("gf.mul_acc8_gbps", "GB/s"),
    ("gf.mul_acc16_gbps", "GB/s"),
    ("core.tornado_build_s", "s"),
    ("core.tornado_encode_mbps", "MB/s"),
    ("core.tornado_decode_mbps", "MB/s"),
    ("core.tornado_overhead", "ratio"),
    ("core.raptor_precode_mbps", "MB/s"),
    ("core.raptor_encode_mbps", "MB/s"),
    ("core.raptor_decode_mbps", "MB/s"),
    ("core.raptor_overhead", "ratio"),
    ("core.lt_encode_mbps", "MB/s"),
    ("core.lt_decode_mbps", "MB/s"),
    ("core.lt_overhead", "ratio"),
    ("rs.cauchy_encode_mbps", "MB/s"),
    ("rs.cauchy_decode_mbps", "MB/s"),
    ("proto.server.new_s", "s"),
    ("proto.server.self_s", "s"),
    ("proto.server.poll_transmit_ns", "ns"),
    ("proto.server.control_reply_ns", "ns"),
    ("proto.client.new_s", "s"),
    ("proto.client.handle_datagram_ns", "ns"),
    ("proto.client.handle_datagram_max_ms", "ms"),
    ("proto.client.self_ns", "ns"),
    ("proto.client.decode_attempts", "count"),
    ("proto.client.duplicate_share", "ratio"),
    ("proto.client.rejected", "count"),
    ("proto.transport.sim_send_ns", "ns"),
    ("proto.transport.sim_recv_ns", "ns"),
    ("proto.driver.steps", "count"),
    ("proto.driver.datagrams_sent", "count"),
    ("proto.driver.datagrams_received", "count"),
    ("proto.driver.step_us", "us"),
    ("proto.driver.add_client_us", "us"),
    ("proto.driver.shutdown_ms", "ms"),
    ("proto.driver.self_ns_per_datagram", "ns"),
    ("proto.driver.goodput_epoll_mbps", "MB/s"),
    ("proto.driver.goodput_poll_mbps", "MB/s"),
    ("proto.udp.send_ns", "ns"),
    ("proto.udp.recv_ns", "ns"),
    ("proto.udp.empty_recv_ns", "ns"),
    ("proto.udp.join_us", "us"),
    ("proto.udp.delivery_share", "ratio"),
    ("polling.wait_us", "us"),
    ("proto.control.describe_rtt_us", "us"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.reconcile_gap_share", "ratio"),
    ("bench.traced_iterations", "count"),
    ("bench.untraced_iterations", "count"),
];

/// Measured values, in registry order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        // A ratio over an empty sample (every download of a run failed) has
        // no value; the run's `failed` count already says so.
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every metric of `registry`, in its order, with its unit.
    ///
    /// # Panics
    ///
    /// Panics when a registered metric was never set, or a set one is not
    /// registered: either is a bug in the benchmark.
    pub fn in_registry_order(
        &self,
        registry: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        for (name, _) in &self.0 {
            assert!(
                registry.iter().any(|(n, _)| n == name),
                "{name} is not a registered metric"
            );
        }
        registry
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} was never measured"));
                (*name, value, *unit)
            })
            .collect()
    }
}

/// `"name": {"value": v, "unit": "u"}` for each metric, comma-separated.
pub fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    fields.join(", ")
}

/// The result line the contract asks for, as one JSON object.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, limit: usize) -> bool {
        !name.is_empty()
            && name.len() <= limit
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(name, 64), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{unit}"
            );
            assert!(seen.insert(*name), "{name} is registered twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// Pull `"name": "..."` values out of one top-level array of
    /// `BENCHMARK.json` with the repository's JSON shim.
    fn names_in(doc: &serde::Value, key: &str) -> Vec<(String, String)> {
        let serde::Value::Object(fields) = doc else {
            panic!("BENCHMARK.json is an object");
        };
        let (_, serde::Value::Array(items)) = fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{key} is present"))
        else {
            panic!("{key} is an array");
        };
        items
            .iter()
            .map(|item| {
                let serde::Value::Object(fields) = item else {
                    panic!("{key} holds objects");
                };
                let text = |k: &str| match fields.iter().find(|(n, _)| n == k) {
                    Some((_, serde::Value::String(s))) => s.clone(),
                    _ => String::new(),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        let doc = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        let registry = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&doc, "end_to_end"), registry(&END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), registry(&PER_LAYER));
        let workloads: Vec<String> = names_in(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let specs: Vec<String> = crate::spec::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, specs);
        for w in &crate::spec::WORKLOADS {
            assert!(well_formed(w.name, 64));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_result_line_is_json_with_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("goodput_mbps", f64::NAN);
        let listed = m.in_registry_order(&[("goodput_mbps", "MB/s"), ("setup_s", "s")]);
        let line = result_json(true, 12, 0, &listed);
        let doc = serde_json::parse_value_str(&line).expect("the result line parses");
        let serde::Value::Object(fields) = doc else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"goodput_mbps\": {\"value\": 0, \"unit\": \"MB/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_a_bug() {
        Metrics::default().in_registry_order(&[("setup_s", "s")]);
    }
}
