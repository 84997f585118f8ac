//! The metric catalogue and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step, and a run refuses to print a
//! result that lacks any metric of its mode.

use std::collections::BTreeMap;

use nlidb_json::Json;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported with `--trace 0`: what a user of the server sees.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p90_ms", "ms", "lower"),
    m("questions_per_s", "1/s", "higher"),
    m("acc_ex", "share", "higher"),
    m("executable_share", "share", "higher"),
    m("ok_share", "share", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Reported with `--trace 1`: single layers, timed from outside.
pub const PER_LAYER: &[Metric] = &[
    m("setup.gen_ms", "ms", "lower"),
    m("setup.train_s", "s", "lower"),
    m("setup.server_start_ms", "ms", "lower"),
    m("setup.register_ms", "ms", "lower"),
    m("context.ms", "ms", "lower"),
    m("mention.ms", "ms", "lower"),
    m("mention.columns_ms", "ms", "lower"),
    m("annotate.ms", "ms", "lower"),
    m("decode.ms", "ms", "lower"),
    m("decode.tokens", "count", "lower"),
    m("decode.us_per_token", "us", "lower"),
    m("recover.ms", "ms", "lower"),
    m("recover.fail_share", "share", "lower"),
    m("execute.ms", "ms", "lower"),
    m("execute.error_share", "share", "lower"),
    m("guide.verdicts_per_q", "count", "lower"),
    m("guide.ms", "ms", "lower"),
    m("guide.repair_share", "share", "lower"),
    m("predict.ms", "ms", "lower"),
    m("predict.stage_sum_ms", "ms", "lower"),
    m("predict.unattributed_ms", "ms", "lower"),
    m("engine.serve_ms", "ms", "lower"),
    m("engine.us_per_question", "us", "lower"),
    m("engine.guided_us_per_question", "us", "lower"),
    m("tensor.matmul_1row_serial_us", "us", "lower"),
    m("tensor.matmul_1row_parallel_us", "us", "lower"),
    m("tensor.matmul_1row_flops", "flop", "lower"),
    m("server.warm_rtt_ms", "ms", "lower"),
    m("server.overhead_ms", "ms", "lower"),
    m("server.batch_questions", "count", "higher"),
    m("cache.hit_share", "share", "higher"),
    m("admission.shed", "count", "lower"),
    m("protocol.encode_us", "us", "lower"),
    m("protocol.decode_us", "us", "lower"),
    m("loadgen.latency_p99_ms", "ms", "lower"),
    m("loadgen.lag_p99_ms", "ms", "lower"),
    m("loadgen.sent", "count", "higher"),
    m("loadgen.ok", "count", "higher"),
    m("loadgen.failed", "count", "lower"),
    m("trace.overhead_share", "share", "lower"),
];

/// The metrics a mode reports.
pub fn catalogue(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Prints one human-readable line per metric and returns the final
/// result line. Fails if a metric of `list` is missing or not finite.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    list: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(list.len());
    for metric in list {
        let v = *values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", metric.name));
        }
        println!("metric {:<32} {:>16.6} {}", metric.name, v, metric.unit);
        metrics.push((
            metric.name.to_string(),
            Json::obj([
                ("value", Json::Float(v)),
                ("unit", Json::Str(metric.unit.into())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_json::FromJson;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(j: &Json, key: &str) -> Vec<(String, String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| String::from_json(m.get(k).expect(k)).expect(k);
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let j = benchmark_json();
        assert_eq!(declared(&j, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&j, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| String::from_json(w.get("name").expect("name")).expect("name"))
            .collect();
        for w in &workloads {
            assert!(
                crate::workload::Workload::parse(w).is_some(),
                "unknown workload {w}"
            );
        }
    }

    #[test]
    fn result_line_prints_every_metric_and_refuses_gaps() {
        for trace in [false, true] {
            let list = catalogue(trace);
            let values: BTreeMap<&'static str, f64> = list
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, i as f64 + 0.5))
                .collect();
            let line = result_line(true, 3, 0, list, &values).expect("complete");
            let j = Json::parse(&line).expect("json");
            let metrics = j.get("metrics").and_then(Json::as_obj).expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, list.iter().map(|m| m.name).collect::<Vec<_>>());
            let mut short = values.clone();
            short.remove(list[0].name);
            assert!(result_line(true, 3, 0, list, &short).is_err());
        }
    }
}
