//! The metric names, units and bounds the ledger reports. `BENCHMARK.json`
//! at the repo root repeats the driver-facing part of these tables; a
//! unit test keeps the two in step.

use crate::workloads::Spec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How much worse the metric may get before it counts as a
    /// regression: a share of the base value, or an absolute step.
    pub bound: f64,
    pub absolute: bool,
    /// Which workloads report it in the ledger file.
    pub on: fn(&Spec) -> bool,
}

fn all(_: &Spec) -> bool {
    true
}

use Better::{Higher, Lower};

/// End-to-end metrics in the ledger file. On `stream_textgen` a
/// "request" is one whole 32-token stream.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        absolute: false,
        on: all,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        absolute: false,
        on: all,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        absolute: false,
        on: all,
    },
    EndToEnd {
        name: "lat_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        absolute: false,
        on: all,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Lower,
        bound: 0.001,
        absolute: true,
        on: all,
    },
    EndToEnd {
        name: "slo_ok_ratio",
        unit: "ratio",
        better: Higher,
        bound: 0.02,
        absolute: false,
        on: Spec::is_open,
    },
    EndToEnd {
        name: "tokens_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
        absolute: false,
        on: Spec::is_stream,
    },
    EndToEnd {
        name: "ttft_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        absolute: false,
        on: all,
    },
    EndToEnd {
        name: "itl_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.10,
        absolute: false,
        on: Spec::is_stream,
    },
    EndToEnd {
        name: "itl_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        absolute: false,
        on: Spec::is_stream,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        absolute: false,
        on: all,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        absolute: false,
        on: all,
    },
];

/// `BENCHMARK.json`'s `end_to_end` list: the end-to-end metrics every
/// workload reports (`--trace 0` prints each of them, never zero) and
/// whose ten runs agree within a bound the driver allows. `lat_p99_ms`
/// is not among them. On a closed loop that keeps one shared virtual CPU
/// busy, the slowest request in a hundred is the one the host's stalls
/// and the guest's time slices fell on: between two sets of ten runs an
/// hour apart its median moved 29% on `overhead_tiny` and 59% on
/// `stream_textgen` while every other metric stayed within 20%. The
/// driver gets it unbounded, as `client.lat_p99_ms`; the ledger file and
/// `--compare` keep it.
pub const DRIVER: &[&str] = &[
    "setup_s",
    "req_per_s",
    "lat_p50_ms",
    "ttft_p50_ms",
    "cpu_ms_per_req",
    "peak_rss_mb",
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of an end-to-end metric ("" for an unknown name).
pub fn unit(name: &str) -> &'static str {
    end_to_end(name).map_or("", |m| m.unit)
}

/// Per-layer metrics, `--trace 1`. Probes read the same on every
/// workload; a metric taken from the workload's own traffic reads 0 on a
/// workload whose path lacks that mechanism (no cache, no router, no
/// shared device, no batching, no streams).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("tensor.sgemm_m28_gflops", "GFLOP/s", Higher),
    ("tensor.sgemm_m224_gflops", "GFLOP/s", Higher),
    ("tensor.sgemm_m1_gflops", "GFLOP/s", Higher),
    ("tensor.conv2d_dig_us", "us", Lower),
    ("tensor.im2col_dig_us", "us", Lower),
    ("dnn.forward_dig_b20_us", "us", Lower),
    ("dnn.forward_pos_b28_us", "us", Lower),
    ("dnn.forward_pos_b224_us", "us", Lower),
    ("dnn.forward_textgen_b1_us", "us", Lower),
    ("dnn.forward_tiny_mnist_us", "us", Lower),
    ("dnn.flops_dig_b20", "count", Lower),
    ("dnn.flops_pos_b28", "count", Lower),
    ("dnn.compute_share", "ratio", Higher),
    ("cache.exact_hit_ns", "ns", Lower),
    ("cache.exact_miss_ns", "ns", Lower),
    ("cache.exact_insert_evict_ns", "ns", Lower),
    ("cache.embed_row_hit_ns", "ns", Lower),
    ("cache.hit_ratio", "ratio", Higher),
    ("cache.evictions_per_kreq", "count", Lower),
    ("cache.hit_lat_p50_us", "us", Lower),
    ("cache.miss_lat_p50_us", "us", Lower),
    ("cache.miss_penalty_ratio", "ratio", Lower),
    ("protocol.encode_infer_tiny_ns", "ns", Lower),
    ("protocol.encode_infer_pos_ns", "ns", Lower),
    ("protocol.encode_infer_dig_us", "us", Lower),
    ("protocol.decode_infer_pos_ns", "ns", Lower),
    ("protocol.decode_infer_dig_us", "us", Lower),
    ("protocol.encode_output_pos_ns", "ns", Lower),
    ("protocol.decode_output_pos_ns", "ns", Lower),
    ("protocol.chunk_roundtrip_ns", "ns", Lower),
    ("protocol.read_frame_ref_ns", "ns", Lower),
    ("protocol.bytes_per_req", "count", Lower),
    ("protocol.bytes_per_token", "count", Lower),
    ("engine.noop_immediate_us", "us", Lower),
    ("engine.noop_batched_us", "us", Lower),
    ("engine.submit_ns", "ns", Lower),
    ("engine.queue_p50_us", "us", Lower),
    ("engine.queue_p99_us", "us", Lower),
    ("engine.batch_wait_p50_us", "us", Lower),
    ("engine.service_p50_us", "us", Lower),
    ("engine.service_p99_us", "us", Lower),
    ("engine.batch_rows_mean", "count", Higher),
    ("engine.batch_fill_ratio", "ratio", Higher),
    ("engine.shed_ratio", "ratio", Lower),
    ("engine.stream_step_us", "us", Lower),
    ("engine.stream_threads", "count", Lower),
    ("engine.token_gap_p99_us", "us", Lower),
    ("engine.ladder_p99_ms_r300", "ms", Lower),
    ("engine.ladder_p99_ms_r600", "ms", Lower),
    ("engine.ladder_p99_ms_r900", "ms", Lower),
    ("engine.ladder_p99_ms_r1200", "ms", Lower),
    ("engine.ladder_p99_ms_r1500", "ms", Lower),
    ("engine.max_rate_in_slo", "1/s", Higher),
    ("device.acquire_release_ns", "ns", Lower),
    ("device.contended_acquire_us", "us", Lower),
    ("device.lease_wait_p50_us", "us", Lower),
    ("device.lease_wait_p99_us", "us", Lower),
    ("server.wire_p50_us", "us", Lower),
    ("server.wire_p99_us", "us", Lower),
    ("server.other_p50_us", "us", Lower),
    ("server.rtt_w1_p50_us", "us", Lower),
    ("server.connect_us", "us", Lower),
    ("server.threads_per_conn", "count", Lower),
    ("server.rss_kb_per_idle_conn", "kB", Lower),
    ("client.submit_tiny_us", "us", Lower),
    ("client.submit_pos_us", "us", Lower),
    ("client.lat_p99_ms", "ms", Lower),
    ("router.added_p50_us", "us", Lower),
    ("router.added_p99_us", "us", Lower),
    ("router.req_per_s_ratio", "ratio", Higher),
    ("router.rtt_w1_p50_us", "us", Lower),
    ("router.replica_share_max", "ratio", Lower),
    ("bench.gen_late_p99_us", "us", Lower),
    ("bench.trace_overhead_ratio", "ratio", Higher),
    ("bench.sum_gap_ratio", "ratio", Lower),
];

/// The rate ladder of `open_nlp_shared`, requests/s. The top rung is
/// past what one CPU can serve at all (a request costs 0.7 ms of it), so
/// the ladder always crosses the latency limit.
pub const LADDER: [(f64, &str); 5] = [
    (300.0, "engine.ladder_p99_ms_r300"),
    (600.0, "engine.ladder_p99_ms_r600"),
    (900.0, "engine.ladder_p99_ms_r900"),
    (1200.0, "engine.ladder_p99_ms_r1200"),
    (1500.0, "engine.ladder_p99_ms_r1500"),
];

/// The run fails when the stages a trace names add up to this much
/// *more* than the end-to-end time.
pub const SUM_GAP_LIMIT: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::{spec, GATED, NAMES};

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(NAMES.iter().map(|&n| (n, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for name in DRIVER {
            let m = end_to_end(name).unwrap();
            assert!(!m.absolute && m.bound <= 0.25);
            assert!(
                NAMES.iter().all(|w| (m.on)(&spec(w).unwrap())),
                "{name} must apply everywhere"
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").unwrap().str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), GATED);
        for w in doc.get("workloads").unwrap().items() {
            let s = spec(w.get("name").unwrap().str().unwrap()).unwrap();
            assert_eq!(w.get("why").unwrap().str(), Some(s.why));
        }
        assert_eq!(names("end_to_end"), DRIVER);
        for m in doc.get("end_to_end").unwrap().items() {
            let ours = end_to_end(m.get("name").unwrap().str().unwrap()).unwrap();
            assert_eq!(m.get("unit").unwrap().str(), Some(ours.unit));
            assert_eq!(m.get("better").unwrap().str(), Some(ours.better.as_str()));
            assert_eq!(m.get("bound").unwrap().num(), Some(ours.bound));
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, ours) in doc.get("per_layer").unwrap().items().iter().zip(PER_LAYER) {
            assert_eq!(m.get("unit").unwrap().str(), Some(ours.1));
            assert_eq!(m.get("better").unwrap().str(), Some(ours.2.as_str()));
        }
    }
}
