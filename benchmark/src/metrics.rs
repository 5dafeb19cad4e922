//! The benchmark's metric vocabulary: every name it may print, with
//! its unit and the direction that counts as better. `BENCHMARK.json`
//! repeats these (a unit test holds the two together) and adds the
//! regression bound of each end-to-end metric.

use crate::json::{obj, Json};

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the cluster sees. Measured with tracing off
/// (`--trace 0`); every workload reports every one.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("tput_ops_s", "ops/s"),
    lower("update_p50_us", "us"),
    lower("read_p50_us", "us"),
    lower("cpu_us_per_op", "us"),
];

/// Single layers, from the traced run (`--trace 1`), one module each.
pub const PER_LAYER: [MetricDef; 57] = [
    // client: the driver itself.
    lower("client.update_tail_us", "us"),
    lower("client.read_tail_us", "us"),
    higher("client.tail_pct", "%"),
    lower("client.window_cv", "ratio"),
    lower("client.cpu_us_per_op", "us"),
    lower("client.stale_read_per_1k", "permille"),
    lower("client.read_retry_per_1k", "permille"),
    // net: sockets, reactor, durable links.
    lower("net.rpc.status_rtt_p50_us", "us"),
    lower("net.reactor.wakeups_per_op", "count"),
    lower("net.reactor.poll_mean_us", "us"),
    lower("net.link.sends_per_update", "count"),
    lower("net.link.retransmits_per_update", "count"),
    higher("net.link.ack_batch_mean", "count"),
    lower("net.link.queue_depth_max", "count"),
    // replica.wire: the frame codec, on the workload's own frames.
    lower("replica.wire.encode_ns", "ns"),
    lower("replica.wire.decode_ns", "ns"),
    lower("replica.wire.bytes_per_frame", "B"),
    // storage.queue and runtime.journal: the flushed appends.
    lower("storage.queue.enqueue_ns", "ns"),
    lower("storage.queue.ack_ns", "ns"),
    lower("runtime.journal.record_ns", "ns"),
    lower("runtime.journal.bytes_per_record", "B"),
    lower("runtime.journal.replay_ns_per_record", "ns"),
    // runtime.ctrl: the pure protocol core.
    lower("runtime.ctrl.submit_step_ns", "ns"),
    lower("runtime.ctrl.peer_step_ns", "ns"),
    lower("runtime.ctrl.effects_per_submit", "count"),
    lower("runtime.ctrl.recover_ns_per_record", "ns"),
    lower("runtime.ctrl.elections", "count"),
    // replica.site: the method's state machine.
    lower("replica.site.deliver_ns", "ns"),
    lower("replica.site.deliver_batch_ns", "ns"),
    lower("replica.site.query_ns", "ns"),
    // runtime.daemon: the processes, seen through /proc.
    lower("runtime.daemon.cpu_us_per_op.s0", "us"),
    lower("runtime.daemon.cpu_us_per_op.s1", "us"),
    lower("runtime.daemon.cpu_us_per_op.s2", "us"),
    lower("runtime.daemon.sys_share", "ratio"),
    lower("runtime.daemon.write_syscalls_per_update", "count"),
    lower("runtime.daemon.ctx_switches_per_op", "count"),
    lower("runtime.daemon.write_bytes_per_update", "B"),
    lower("runtime.daemon.disk_bytes_per_update", "B"),
    lower("runtime.daemon.rss_growth_b_per_op", "B"),
    lower("runtime.daemon.apply_mean_us", "us"),
    lower("runtime.daemon.rpc_mean_us", "us"),
    lower("runtime.daemon.recover_us_per_update", "us"),
    lower("runtime.daemon.converge_us_per_update", "us"),
    // runtime.spans: the daemons' own span rings, last sampled ETs.
    lower("runtime.spans.client_queue_us", "us"),
    lower("runtime.spans.local_apply_us", "us"),
    lower("runtime.spans.transit_us", "us"),
    lower("runtime.spans.hold_back_us", "us"),
    lower("runtime.spans.repl_lag_us", "us"),
    lower("runtime.spans.lifecycle_us", "us"),
    lower("runtime.spans.repl_lag_tail_us", "us"),
    higher("runtime.spans.sampled_ets", "count"),
    lower("runtime.spans.ring_drops", "count"),
    // probe: do the layer timings add up to the CPU the daemons used?
    lower("probe.sum_us_per_update", "us"),
    lower("probe.sum_us_per_read", "us"),
    higher("probe.coverage_pct", "%"),
    lower("probe.span_cost_ns", "ns"),
    lower("trace.overhead_pct", "%"),
];

/// Looks a metric up in either list.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// The values of one run, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static MetricDef, f64)>,
}

impl Metrics {
    /// Records `value` under `name`. Panics on a name outside the
    /// vocabulary or set twice: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((def, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.values.iter().copied()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| {
                    let entry = obj([("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]);
                    (d.name.to_owned(), entry)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WORKLOADS;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn well_formed(name: &str) -> bool {
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(allowed)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}: unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} listed twice", w.name);
        }
        assert!(!well_formed("µs") && !well_formed(".x") && !well_formed(""));
    }

    #[test]
    fn setting_an_unknown_or_repeated_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        assert_eq!(m.get("setup_s"), Some(0.5));
        assert!(std::panic::catch_unwind(move || m.set("setup_s", 0.6)).is_err());
        assert!(std::panic::catch_unwind(|| Metrics::default().set("nope", 1.0)).is_err());
    }

    /// `BENCHMARK.json` and this file say the same thing, within the
    /// limits the benchmark contract sets.
    #[test]
    fn benchmark_json_matches_the_vocabulary() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let strings = |key: &str| -> Vec<String> {
            let arr = doc.get(key).unwrap().as_arr().unwrap();
            arr.iter().map(|v| v.as_str().unwrap().to_owned()).collect()
        };
        assert_eq!(strings("paths"), ["benchmark"]);
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

        let listed = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name));
            let why = entry.get("why").unwrap().as_str().unwrap();
            assert!(
                !why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'),
                "{why}"
            );
            assert_eq!(entry.as_obj().unwrap().len(), 2);
        }

        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    d.name
                );
                assert_eq!(entry.as_obj().unwrap().len(), if bounded { 4 } else { 3 });
                if bounded {
                    let bound = entry.get("bound").unwrap().as_f64().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", d.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert_eq!(END_TO_END[0], lower("setup_s", "s"));
    }

    /// The README's glossary covers every name.
    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
        let text = std::fs::read_to_string(readme).unwrap();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                text.contains(&format!("`{}`", d.name)),
                "README lacks {}",
                d.name
            );
        }
        for w in &WORKLOADS {
            assert!(
                text.contains(&format!("`{}`", w.name)),
                "README lacks {}",
                w.name
            );
        }
    }
}
