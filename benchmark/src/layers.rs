//! The traced run: the same load with tracing on in every second
//! window, then everything that can be learnt about single layers from
//! outside the program — `/proc`, the daemons' `metrics` and `spans`
//! frames, and the in-process probes.

use std::collections::HashMap;
use std::io;
use std::time::Instant;

use esr_core::ids::{EtId, SiteId};
use esr_replica::span::SpanStage;
use esr_runtime::spans::RawSpan;
use esr_runtime::{critical_path, merge_timeline, SPAN_QUERY_ALL};

use crate::cluster::{Cluster, SITES};
use crate::load::{self, Extent, LoadOut, Phases};
use crate::metrics::Metrics;
use crate::probe;
use crate::prom;
use crate::run::{
    fold_clients, p50_us, pooled, recovery_phase, settle_and_check, Note, Outcome, RunConfig,
    Summary,
};
use crate::stats::{median, quantile_sorted, supported_tail, window_stats};
use crate::trace::{write_trace, Recorder};

/// `status` round trips timed on the idle cluster.
const STATUS_ROUND_TRIPS: usize = 2000;
/// Update ETs whose spans are attributed: the *last* ones sent with
/// tracing on, because the daemons' span rings keep only the newest
/// 65 536 spans.
const SPAN_SAMPLE: usize = 2000;

/// Median `status` round trip on the idle cluster, microseconds: the
/// floor under every client operation.
fn status_rtt_us(cluster: &Cluster) -> io::Result<f64> {
    let mut rpc = cluster.client(0)?;
    let mut ns = Vec::with_capacity(STATUS_ROUND_TRIPS);
    for _ in 0..STATUS_ROUND_TRIPS {
        let begun = Instant::now();
        rpc.status()?;
        ns.push(begun.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    Ok(p50_us(&ns))
}

/// Per-stage durations (microseconds) of the sampled ETs, from the
/// daemons' own span rings.
#[derive(Debug, Default)]
struct Stages {
    client_queue: Vec<u64>,
    local_apply: Vec<u64>,
    transit: Vec<u64>,
    hold_back: Vec<u64>,
    certify: Vec<u64>,
    visibility: Vec<u64>,
    /// Origin `submit` → last site's `apply`.
    repl_lag: Vec<u64>,
    /// Origin `submit` → the last span any site recorded for the ET:
    /// its last apply, or its completion, decision or VTNC horizon
    /// becoming visible at the last site.
    lifecycle: Vec<u64>,
    sampled: u64,
    /// Sampled ETs whose submit, or whose delivery at one of the three
    /// sites, the rings no longer held.
    incomplete: u64,
}

/// Scrapes every site's span ring once and attributes the last
/// [`SPAN_SAMPLE`] traced update ETs stage by stage.
fn scrape_spans(cluster: &Cluster, out: &LoadOut) -> io::Result<Stages> {
    let mut sample: Vec<u64> = out
        .clients
        .iter()
        .flat_map(|c| c.traced_ets.iter().copied())
        .collect();
    // ET ids come from one counter, so the largest are the latest.
    sample.sort_unstable();
    let sample = &sample[sample.len().saturating_sub(SPAN_SAMPLE)..];

    // One dump per site, grouped by ET. VTNC horizons carry no ET: a
    // timeline takes, per site and stage, the first one at or past the
    // ET's version. Horizons only ever advance, so that one is found by
    // bisection and `merge_timeline` is handed it alone, not the ring.
    let mut by_et: Vec<HashMap<u64, Vec<RawSpan>>> = Vec::new();
    let mut horizons: Vec<[Vec<RawSpan>; 2]> = Vec::new();
    for site in 0..SITES {
        let (_, spans) = cluster.client(site)?.spans(SPAN_QUERY_ALL)?;
        let mut grouped: HashMap<u64, Vec<RawSpan>> = HashMap::new();
        let mut site_horizons = [Vec::new(), Vec::new()];
        for span in spans {
            match span.2.et {
                Some(et) => grouped.entry(et.raw()).or_default().push(span),
                None => site_horizons[usize::from(span.2.stage == SpanStage::VtncCert)].push(span),
            }
        }
        by_et.push(grouped);
        horizons.push(site_horizons);
    }

    let mut stages = Stages {
        sampled: sample.len() as u64,
        ..Stages::default()
    };
    for &et in sample {
        let of_et = |s: usize| by_et[s].get(&et).map_or(&[][..], Vec::as_slice);
        let version = (0..SITES)
            .flat_map(&of_et)
            .filter_map(|span| span.2.version)
            .max();
        let per_site: Vec<(SiteId, Vec<RawSpan>)> = (0..SITES)
            .map(|s| {
                let mut spans = of_et(s).to_vec();
                for stage in &horizons[s] {
                    let at = stage.partition_point(|h| h.2.version < version);
                    spans.extend(stage.get(at).filter(|_| version.is_some()));
                }
                spans.sort_unstable_by_key(|&(seq, ..)| seq);
                (SiteId(s as u64), spans)
            })
            .collect();
        let timeline = merge_timeline(&per_site, EtId(et));
        let submit = timeline.iter().find(|s| s.rec.stage == SpanStage::Submit);
        let at = |stage: SpanStage| timeline.iter().filter(move |s| s.rec.stage == stage);
        let (Some(submit), SITES) = (submit, at(SpanStage::Deliver).count()) else {
            stages.incomplete += 1;
            continue;
        };
        // A COMPE abort that overtakes its MSet suppresses the apply at
        // that site; such an ET has no replication lag to speak of.
        if at(SpanStage::Apply).count() == SITES {
            let last_apply = at(SpanStage::Apply).map(|s| s.micros).max().unwrap_or(0);
            stages
                .repl_lag
                .push(last_apply.saturating_sub(submit.micros));
        }
        let last = timeline.iter().map(|s| s.micros).max().unwrap_or(0);
        stages.lifecycle.push(last.saturating_sub(submit.micros));
        for (label, us) in critical_path(&timeline) {
            let Some(us) = us else { continue };
            // Per-peer edges read "s1 transit"; fold the peers together.
            let edge = label.rsplit(' ').next().unwrap_or(&label);
            match (label.as_str(), edge) {
                ("client queue", _) => stages.client_queue.push(us),
                ("local apply", _) => stages.local_apply.push(us),
                (_, "transit") => stages.transit.push(us),
                (_, "hold-back") => stages.hold_back.push(us),
                (_, "certify") => stages.certify.push(us),
                (_, "visibility") => stages.visibility.push(us),
                _ => {}
            }
        }
    }
    Ok(stages)
}

/// Mean of the central 80 % of `values` (0 if empty). The span rings
/// stamp whole microseconds, so a median of short stages would read as
/// the same small integer run after run; this moves with the data.
fn trimmed_mean(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    let cut = values.len() / 10;
    let kept = &values[cut..values.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<u64>() as f64 / kept.len() as f64
}

/// Runs the traced variant of `cfg` and reports the per-layer metrics.
pub fn run_traced(cfg: &RunConfig) -> io::Result<Outcome> {
    let w = cfg.workload;
    let (mut cluster, _) = Cluster::start(&cfg.esrd, &cfg.out_dir, w.method)?;
    let status_rtt = status_rtt_us(&cluster)?;

    let phases = Phases {
        measure_secs: cfg.seconds,
        tracing: true,
    };
    let plans = load::plans(w, cfg.seed);
    let mut out = load::drive(&mut cluster, w, &plans, Extent::Timed(phases))?;
    let mut checked = fold_clients(cfg, &mut out);
    let mut sum = Summary::default();
    sum.add(&out, phases);
    sum.sort();
    let texts = settle_and_check(&cluster, &mut checked, "after the traced load")?;
    let mut stages = scrape_spans(&cluster, &out)?;
    drop(cluster);

    let recovery = recovery_phase(cfg, &plans, &mut checked)?;
    let mut probe_spans = Recorder::new(Instant::now());
    let probed = probe::run(w, cfg.seed, &cfg.out_dir, &mut probe_spans)?;
    write_trace(
        &cfg.out_dir.join(format!("trace-{}.json", w.name)),
        w.name,
        &[
            ("client-a", &out.clients[0].spans),
            ("client-b", &out.clients[1].spans),
            ("probe", &probe_spans),
        ],
    )?;

    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // client: the driver's own view.
    let (_, cv) = window_stats(&sum.windows);
    // Tracing overhead: each traced window against the mean of the
    // untraced windows either side of it, so that a throughput trend
    // over the run (COMPE's state grows) cancels out.
    let ratios: Vec<f64> = (1..sum.windows.len().saturating_sub(1))
        .filter(|&k| sum.window_traced[k] && !sum.window_traced[k - 1] && !sum.window_traced[k + 1])
        .map(|k| 2.0 * sum.windows[k] / (sum.windows[k - 1] + sum.windows[k + 1]).max(1.0))
        .collect();
    let ops = sum.ops().max(1) as f64;
    let updates = sum.updates().max(1) as f64;
    // Both tails at the highest percentile the smaller sample supports.
    let (update_ns, read_ns) = (pooled(&sum.update_ns), pooled(&sum.read_ns));
    let pct = [&update_ns, &read_ns]
        .iter()
        .filter_map(|s| supported_tail(s))
        .map(|(pct, _)| pct)
        .fold(f64::INFINITY, f64::min);
    let at = |sorted: &[u64]| {
        if sorted.is_empty() || !pct.is_finite() {
            return 0.0;
        }
        quantile_sorted(sorted, pct / 100.0) as f64 / 1e3
    };
    m.set("client.update_tail_us", at(&update_ns));
    m.set("client.read_tail_us", at(&read_ns));
    m.set("client.tail_pct", if pct.is_finite() { pct } else { 0.0 });
    m.set("client.window_cv", cv);
    m.set("client.cpu_us_per_op", out.driver.cpu_us() as f64 / ops);
    m.set("client.stale_read_per_1k", sum.per_1k_queries(sum.stale));
    m.set("client.read_retry_per_1k", sum.per_1k_queries(sum.rejected));
    if !sum.decide_ns.is_empty() {
        notes.push(Note::new(
            "client.decide_p50_us",
            p50_us(&sum.decide_ns),
            "us",
        ));
    }
    if cv > 0.1 {
        notes.push(Note::new("client.unresolved", 1.0, "flag"));
    }

    // net, runtime.ctrl, runtime.daemon: the daemons' own counters,
    // cumulative since boot, so divided by every operation since boot.
    let all_ops: f64 = out
        .clients
        .iter()
        .map(|c| (c.updates + c.queries) as f64)
        .sum();
    let all_updates: f64 = out.clients.iter().map(|c| c.updates as f64).sum();
    let total = |name: &str| -> f64 { texts.iter().map(|t| prom::sum(t, name)).sum() };
    let merged = texts.join("\n");
    m.set("net.rpc.status_rtt_p50_us", status_rtt);
    m.set(
        "net.reactor.wakeups_per_op",
        total("esr_reactor_wakeups_total") / all_ops.max(1.0),
    );
    m.set(
        "net.reactor.poll_mean_us",
        prom::hist_mean(&merged, "esr_reactor_poll_micros"),
    );
    m.set(
        "net.link.sends_per_update",
        total("esr_link_sends_total") / all_updates.max(1.0),
    );
    m.set(
        "net.link.retransmits_per_update",
        total("esr_link_retransmits_total") / all_updates.max(1.0),
    );
    m.set(
        "net.link.ack_batch_mean",
        prom::hist_mean(&merged, "esr_ack_batch_size"),
    );
    m.set("net.link.queue_depth_max", out.queue_depth_max as f64);
    m.set("runtime.ctrl.elections", total("esr_elections_total"));
    m.set(
        "runtime.daemon.apply_mean_us",
        prom::hist_mean(&merged, "esr_apply_latency_micros"),
    );
    m.set(
        "runtime.daemon.rpc_mean_us",
        prom::hist_mean(&merged, "esr_rpc_latency_micros"),
    );

    // runtime.daemon: the processes over the measured phase.
    let cpu: Vec<f64> = out.daemons.iter().map(|d| d.cpu_us() as f64).collect();
    let cpu_total: f64 = cpu.iter().sum();
    let stime: f64 = out.daemons.iter().map(|d| d.stime_us as f64).sum();
    let over = |f: fn(&crate::procfs::ProcSample) -> u64| -> f64 {
        out.daemons.iter().map(|d| f(d) as f64).sum()
    };
    for (site, us) in cpu.iter().enumerate() {
        m.set(&format!("runtime.daemon.cpu_us_per_op.s{site}"), us / ops);
    }
    m.set("runtime.daemon.sys_share", stime / cpu_total.max(1.0));
    m.set(
        "runtime.daemon.write_syscalls_per_update",
        over(|d| d.write_syscalls) / updates,
    );
    m.set(
        "runtime.daemon.ctx_switches_per_op",
        over(|d| d.ctx_switches) / ops,
    );
    m.set(
        "runtime.daemon.write_bytes_per_update",
        over(|d| d.write_chars) / updates,
    );
    m.set(
        "runtime.daemon.disk_bytes_per_update",
        over(|d| d.disk_bytes) / updates,
    );
    m.set(
        "runtime.daemon.rss_growth_b_per_op",
        over(|d| d.rss_bytes) / ops,
    );

    m.set(
        "runtime.daemon.recover_us_per_update",
        recovery.serve_us / recovery.replayed,
    );
    m.set(
        "runtime.daemon.converge_us_per_update",
        recovery.converge_us / recovery.replayed,
    );

    // runtime.spans: where an update's time went, by the daemons' spans.
    m.set(
        "runtime.spans.client_queue_us",
        trimmed_mean(&mut stages.client_queue),
    );
    m.set(
        "runtime.spans.local_apply_us",
        trimmed_mean(&mut stages.local_apply),
    );
    m.set(
        "runtime.spans.transit_us",
        trimmed_mean(&mut stages.transit),
    );
    m.set(
        "runtime.spans.hold_back_us",
        trimmed_mean(&mut stages.hold_back),
    );
    m.set(
        "runtime.spans.repl_lag_us",
        trimmed_mean(&mut stages.repl_lag),
    );
    m.set(
        "runtime.spans.lifecycle_us",
        trimmed_mean(&mut stages.lifecycle),
    );
    // ORDUP has no completion plane, so these two exist on the other
    // methods only.
    if !stages.certify.is_empty() {
        let certify = trimmed_mean(&mut stages.certify);
        notes.push(Note::new("runtime.spans.certify_us", certify, "us"));
        let visibility = trimmed_mean(&mut stages.visibility);
        notes.push(Note::new("runtime.spans.visibility_us", visibility, "us"));
    }
    let lag_tail = supported_tail(&stages.repl_lag).map_or(0.0, |(_, us)| us as f64);
    m.set("runtime.spans.repl_lag_tail_us", lag_tail);
    m.set("runtime.spans.sampled_ets", stages.sampled as f64);
    m.set("runtime.spans.ring_drops", stages.incomplete as f64);

    // The in-process probes, and whether they add up.
    m.set("replica.wire.encode_ns", probed.encode_ns);
    m.set("replica.wire.decode_ns", probed.decode_ns);
    m.set("replica.wire.bytes_per_frame", probed.bytes_per_frame);
    m.set("storage.queue.enqueue_ns", probed.enqueue_ns);
    m.set("storage.queue.ack_ns", probed.ack_ns);
    m.set("runtime.journal.record_ns", probed.journal_record_ns);
    m.set(
        "runtime.journal.bytes_per_record",
        probed.journal_bytes_per_record,
    );
    m.set(
        "runtime.journal.replay_ns_per_record",
        probed.journal_replay_ns_per_record,
    );
    m.set("runtime.ctrl.submit_step_ns", probed.submit_step_ns);
    m.set("runtime.ctrl.peer_step_ns", probed.peer_step_ns);
    m.set("runtime.ctrl.effects_per_submit", probed.effects_per_submit);
    m.set(
        "runtime.ctrl.recover_ns_per_record",
        probed.recover_ns_per_record,
    );
    m.set("replica.site.deliver_ns", probed.deliver_ns);
    m.set("replica.site.deliver_batch_ns", probed.deliver_batch_ns);
    m.set("replica.site.query_ns", probed.query_ns);
    m.set("probe.sum_us_per_update", probed.sum_us_per_update);
    m.set("probe.sum_us_per_read", probed.sum_us_per_read);
    let explained = sum.updates() as f64 * probed.sum_us_per_update
        + sum.reads() as f64 * probed.sum_us_per_read;
    m.set("probe.coverage_pct", 100.0 * explained / cpu_total.max(1.0));
    m.set("probe.span_cost_ns", probed.span_cost_ns);
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        1.0 - median(&ratios)
    };
    m.set("trace.overhead_pct", 100.0 * overhead);

    Ok(Outcome {
        metrics: m,
        notes,
        attempted: checked.attempted,
        failed: checked.failures.len() as u64,
        failures: checked.failures,
    })
}
