//! One benchmark run: a workload, a seed, a length, tracing on or off.
//!
//! Untraced (`--trace 0`): every measured second is a round on a fresh
//! cluster of its own, warm-up → calibrated load slices → quiesce →
//! oracle; then idle clusters to time set-up. Reports the end-to-end
//! metrics.
//!
//! Traced (`--trace 1`, `layers.rs`): one fresh cluster → the same load
//! with every second measured window traced → quiesce → oracle →
//! scrape the daemons' metrics and span rings → the recovery phase on a
//! cluster of its own (`kill -9` site 2, respawn, oracle again) →
//! in-process layer probes. Reports the per-layer metrics and writes
//! the driver's spans.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use esr_core::ids::ObjectId;
use esr_core::value::Value;

use crate::calib::Reference;
use crate::cluster::{Cluster, SITES};
use crate::load::{self, Class, Extent, LoadOut, Phases, CLIENTS};
use crate::metrics::Metrics;
use crate::oracle::{self, Ledger};
use crate::plan::{Plan, Workload};
use crate::stats::{median, quantile_sorted, supported_tail, window_stats};
use crate::{layers, prom};

/// Clusters booted per run to time set-up; the median is reported.
const SETUP_REPEATS: usize = 15;

/// How long the reference is measured before each of them.
const SETUP_REFERENCE_SPAN: Duration = Duration::from_millis(16);

/// Measured seconds an untraced run spends on one cluster before it
/// boots the next. Two clusters booted from the same binary differ in
/// throughput for as long as they live (where the kernel put their
/// pages, which ports they drew, their hash seeds): the medians of five
/// clusters measured for six seconds each, one after the other, lay
/// between 16 700 and 20 300 ops/s on `commu-update`, while the thirty
/// slices of any one of them pin its own median down to 2 %. More
/// seconds on a cluster do not average that out; more clusters do.
const ROUND_SECS: u64 = 1;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    pub trace: bool,
    /// Perturb the expected state so the oracle must fire.
    pub self_test: bool,
    /// The `esrd` binary under test.
    pub esrd: PathBuf,
    /// Where results, traces and the clusters' directories go.
    pub out_dir: PathBuf,
}

/// A figure worth printing that `BENCHMARK.json` does not list:
/// defined on one workload only, or a flag.
#[derive(Debug)]
pub struct Note {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Note {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub notes: Vec<Note>,
    /// Operations begun.
    pub attempted: u64,
    /// Client errors plus oracle violations (one per line of
    /// `failures`).
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Latencies and counts of the measured phases of a run. Times are
/// calibrated (`calib.rs`): each is multiplied by the speed of the
/// window it was measured in, which makes it the time the reference
/// box would have taken. A traced run's windows have speed 1.
#[derive(Default)]
pub struct Summary {
    /// Client operations completed per second, window by window.
    pub windows: Vec<f64>,
    /// The same as the clock read it, uncalibrated.
    pub raw_windows: Vec<f64>,
    /// The box's speed in each window.
    pub speeds: Vec<f64>,
    /// Was window `k` a traced one (operations *begun* in it)?
    pub window_traced: Vec<bool>,
    /// Per client, ascending once [`Summary::sort`] has run.
    pub update_ns: [Vec<u64>; CLIENTS],
    pub read_ns: [Vec<u64>; CLIENTS],
    pub decide_ns: Vec<u64>,
    /// CPU the three daemons used, microseconds.
    pub daemon_cpu_us: f64,
    pub queries: u64,
    /// Admitted queries that were charged at least one unit.
    pub stale: u64,
    /// `admitted = false` replies.
    pub rejected: u64,
}

impl Summary {
    /// Adds the measured phase of one load run.
    pub fn add(&mut self, out: &LoadOut, phases: Phases) {
        let mut counts = vec![0u64; out.windows.len()];
        for (c, client) in out.clients.iter().enumerate() {
            // Samples and windows both ascend in time.
            let mut k = 0;
            for x in &client.samples {
                while k < out.windows.len() && x.end_ns > out.windows[k].end_ns {
                    k += 1;
                }
                let Some(window) = out.windows.get(k) else {
                    break;
                };
                if x.end_ns < window.start_ns {
                    continue;
                }
                let lat_ns = (x.lat_ns as f64 * window.speed) as u64;
                match x.class {
                    Class::Update => self.update_ns[c].push(lat_ns),
                    Class::Read => self.read_ns[c].push(lat_ns),
                    Class::Decide => {
                        self.decide_ns.push(lat_ns);
                        continue; // part of an update, not an operation
                    }
                }
                counts[k] += 1;
            }
            self.queries += client.queries;
            self.stale += client.stale;
            self.rejected += client.rejected;
        }
        let last = out.windows.len().saturating_sub(1);
        let (mut clock_s, mut reference_s) = (0.0, 0.0);
        for (k, (window, &count)) in out.windows.iter().zip(&counts).enumerate() {
            let secs = (window.end_ns - window.start_ns) as f64 / 1e9;
            clock_s += secs;
            reference_s += secs * window.speed;
            self.windows.push(count as f64 / (secs * window.speed));
            self.raw_windows.push(count as f64 / secs);
            self.speeds.push(window.speed);
            self.window_traced
                .push(phases.tracing && (last - k).is_multiple_of(2));
        }
        // The daemons' CPU is read once around the whole phase, so it
        // is calibrated by the phase's mean speed.
        let cpu_us: u64 = out.daemons.iter().map(|d| d.cpu_us()).sum();
        self.daemon_cpu_us += cpu_us as f64 * reference_s / clock_s.max(f64::MIN_POSITIVE);
    }

    /// Sorts the latency samples; call once, after the last `add`.
    pub fn sort(&mut self) {
        for v in self.update_ns.iter_mut().chain(&mut self.read_ns) {
            v.sort_unstable();
        }
        self.decide_ns.sort_unstable();
    }

    pub fn updates(&self) -> u64 {
        self.update_ns.iter().map(|v| v.len() as u64).sum()
    }

    pub fn reads(&self) -> u64 {
        self.read_ns.iter().map(|v| v.len() as u64).sum()
    }

    /// Operations completed in the measured phases.
    pub fn ops(&self) -> u64 {
        self.updates() + self.reads()
    }

    /// `n` per 1 000 queries.
    pub fn per_1k_queries(&self, n: u64) -> f64 {
        1e3 * n as f64 / self.queries.max(1) as f64
    }
}

/// Median of sorted nanosecond latencies, in microseconds (0 if none).
pub fn p50_us(sorted_ns: &[u64]) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    quantile_sorted(sorted_ns, 0.5) as f64 / 1e3
}

/// The clients' median latencies, averaged. Client A is attached to
/// the coordinator and client B to a follower, and the two see
/// different latencies (183 against 133 µs on `commu-update`): the
/// median of the pooled sample sits between two humps and jumps from
/// one to the other with the clients' share of the operations (118 µs
/// in one run, 164 µs in the next). A client without samples is left
/// out.
pub fn clients_p50_us(sorted_ns: &[Vec<u64>; CLIENTS]) -> f64 {
    let medians: Vec<f64> = sorted_ns
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| p50_us(v))
        .collect();
    if medians.is_empty() {
        return 0.0;
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Both clients' samples as one ascending sample.
pub fn pooled(sorted_ns: &[Vec<u64>; CLIENTS]) -> Vec<u64> {
    let mut all = sorted_ns.concat();
    all.sort_unstable();
    all
}

/// `(percentile, microseconds)` of the highest percentile the sample
/// supports, `(0, 0)` when it supports none.
pub fn tail_us(sorted_ns: &[u64]) -> (f64, f64) {
    supported_tail(sorted_ns).map_or((0.0, 0.0), |(pct, ns)| (pct, ns as f64 / 1e3))
}

/// What is known of a cluster's correctness after its load: client
/// errors folded into failures, and the state the replicas must hold.
#[derive(Default)]
pub struct Checked {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub expected: BTreeMap<ObjectId, Value>,
}

impl Checked {
    /// Adds another cluster's attempts and failures to this tally.
    pub fn absorb(&mut self, mut other: Checked) {
        self.attempted += other.attempted;
        self.failures.append(&mut other.failures);
    }
}

/// Folds the clients' results: their errors and budget violations
/// become failures, their ledgers the expected replica state.
pub fn fold_clients(cfg: &RunConfig, out: &mut LoadOut) -> Checked {
    let mut failures = Vec::new();
    let mut ledger = Ledger::new(cfg.workload.method);
    let mut attempted = 0;
    for (i, c) in out.clients.iter_mut().enumerate() {
        attempted += c.attempted;
        if let Some(e) = c.error.take() {
            failures.push(format!("client {i}: operation {} failed: {e}", c.attempted));
        }
        if c.over_limit > 0 {
            failures.push(format!(
                "client {i}: {} admitted queries were charged more than epsilon = {}",
                c.over_limit, cfg.workload.epsilon
            ));
        }
        ledger.merge(std::mem::replace(
            &mut c.ledger,
            Ledger::new(cfg.workload.method),
        ));
    }
    let mut expected = ledger.expected();
    if cfg.self_test {
        oracle::perturb(&mut expected);
    }
    Checked {
        attempted,
        failures,
        expected,
    }
}

/// Quiesces the cluster, then checks replicas against `expected` and
/// that no election ran. Returns the daemons' metrics text.
pub fn settle_and_check(
    cluster: &Cluster,
    checked: &mut Checked,
    when: &str,
) -> io::Result<Vec<String>> {
    cluster.quiesce(Duration::from_millis(2))?;
    checked.failures.extend(oracle::check(
        &cluster.snapshots()?,
        &checked.expected,
        when,
    ));
    let texts = cluster.metrics()?;
    let elections: f64 = texts
        .iter()
        .map(|t| prom::sum(t, "esr_elections_total"))
        .sum();
    if elections > 0.0 {
        checked
            .failures
            .push(format!("{when}: {elections} elections ran under load"));
    }
    Ok(texts)
}

/// Update ETs journalled before the restart of the recovery phase.
/// Fixed, so the journal replayed is the same size on every run; and
/// small, because a coordinator that has completed more than ~131 000
/// ETs greets a restarted peer with a `StartView` frame over 1 MiB,
/// which this `esrd`'s reactor never finishes reading (see README,
/// "Findings").
pub const RECOVERY_UPDATES: u64 = 20_000;

/// Kill-and-restart rounds per recovery phase; the median is
/// reported. The restarts are not alike: each re-announces the replayed
/// applies through the site's durable queue to the coordinator, which
/// is never compacted and is read back at the next boot, so every
/// restart takes about a tenth longer than the one before (README,
/// "Findings"). The median of nine is the fifth restart or thereabouts.
/// Fewer restarts, or the quickest of them, would hold less of that
/// growth, and spread twice as widely from run to run.
const RECOVERY_REPEATS: usize = 9;

/// How the restarted site came back.
pub struct Recovery {
    /// Respawn → the site answers `status` (journal replayed, serving).
    pub serve_us: f64,
    /// Respawn → every site settled with drained queues.
    pub converge_us: f64,
    /// Journal records the site replayed (its own counter is checked
    /// against the updates acknowledged).
    pub replayed: f64,
}

/// The recovery phase, on a cluster of its own: journal
/// [`RECOVERY_UPDATES`] of the workload's updates, quiesce, check,
/// `kill -9` the pure follower, respawn it, time its way back, check
/// again. Failures and attempts are added to `checked`.
pub fn recovery_phase(
    cfg: &RunConfig,
    plans: &[Plan],
    checked: &mut Checked,
) -> io::Result<Recovery> {
    let w = cfg.workload;
    let (mut cluster, _) = Cluster::start(&cfg.esrd, &cfg.out_dir, w.method)?;
    let quota = RECOVERY_UPDATES / CLIENTS as u64;
    let mut out = load::drive(&mut cluster, w, plans, Extent::Updates(quota))?;
    let mut phase = fold_clients(cfg, &mut out);
    settle_and_check(&cluster, &mut phase, "recovery phase, before the kill")?;

    let victim = SITES - 1;
    let acked: u64 = out.clients.iter().map(|c| c.updates).sum();
    let (mut serve_us, mut converge_us) = (Vec::new(), Vec::new());
    for round in 1..=RECOVERY_REPEATS {
        cluster.kill(victim);
        let respawned = Instant::now();
        cluster.respawn(victim)?;
        cluster.client(victim)?.status()?;
        serve_us.push(respawned.elapsed().as_secs_f64() * 1e6);
        cluster.quiesce(Duration::from_millis(2))?;
        converge_us.push(respawned.elapsed().as_secs_f64() * 1e6);
        let when = format!("recovery phase, after restart {round}");
        let texts = settle_and_check(&cluster, &mut phase, &when)?;
        let replayed = prom::sum(&texts[victim], "esr_recovery_replays_total");
        if replayed != acked as f64 {
            phase.failures.push(format!(
                "{when}: site {victim} replayed {replayed} journal records, \
                 {acked} updates were acknowledged"
            ));
        }
    }
    checked.absorb(phase);
    Ok(Recovery {
        serve_us: median(&serve_us),
        converge_us: median(&converge_us),
        replayed: acked.max(1) as f64,
    })
}

fn run_end_to_end(cfg: &RunConfig) -> io::Result<Outcome> {
    let w = cfg.workload;
    let plans = load::plans(w, cfg.seed);
    let mut checked = Checked::default();
    let mut sum = Summary::default();
    // Set-up time is calibrated like the rest: each boot against the
    // reference measured just before it.
    let mut reference = Reference::start()?;
    let mut boot = || -> io::Result<(Cluster, f64, f64)> {
        let speed = reference.speed(SETUP_REFERENCE_SPAN)?;
        let (cluster, secs) = Cluster::start(&cfg.esrd, &cfg.out_dir, w.method)?;
        Ok((cluster, secs * speed, secs))
    };
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    for round in 0..cfg.seconds.div_ceil(ROUND_SECS) {
        let phases = Phases {
            measure_secs: ROUND_SECS.min(cfg.seconds - round * ROUND_SECS),
            tracing: false,
        };
        let (mut cluster, setup_s, raw_setup_s) = boot()?;
        setups.push(setup_s);
        raw_setups.push(raw_setup_s);
        let mut out = load::drive(&mut cluster, w, &plans, Extent::Timed(phases))?;
        let mut round_checked = fold_clients(cfg, &mut out);
        sum.add(&out, phases);
        let when = format!("after the load of round {}", round + 1);
        settle_and_check(&cluster, &mut round_checked, &when)?;
        checked.absorb(round_checked);
    }
    sum.sort();

    // Set-up time: the clusters above, then idle ones booted and torn
    // down only to be timed.
    while setups.len() < SETUP_REPEATS {
        let (idle, setup_s, raw_setup_s) = boot()?;
        setups.push(setup_s);
        raw_setups.push(raw_setup_s);
        drop(idle);
    }

    let mut m = Metrics::default();
    let (tput, cv) = window_stats(&sum.windows);
    m.set("setup_s", median(&setups));
    m.set("tput_ops_s", tput);
    m.set("update_p50_us", clients_p50_us(&sum.update_ns));
    m.set("read_p50_us", clients_p50_us(&sum.read_ns));
    m.set("cpu_us_per_op", sum.daemon_cpu_us / sum.ops().max(1) as f64);

    // Reported, not gated: what the clock read before calibration, each
    // client's own medians, tails at the highest percentile each
    // sample supports, and how much the slices disagreed.
    let (update_pct, update_tail) = tail_us(&pooled(&sum.update_ns));
    let (read_pct, read_tail) = tail_us(&pooled(&sum.read_ns));
    let mut notes = vec![
        Note::new("box_speed", median(&sum.speeds), "ratio"),
        Note::new("tput_raw_ops_s", median(&sum.raw_windows), "ops/s"),
        Note::new("setup_raw_s", median(&raw_setups), "s"),
        Note::new("update_p50_us.a", p50_us(&sum.update_ns[0]), "us"),
        Note::new("update_p50_us.b", p50_us(&sum.update_ns[1]), "us"),
        Note::new("read_p50_us.a", p50_us(&sum.read_ns[0]), "us"),
        Note::new("read_p50_us.b", p50_us(&sum.read_ns[1]), "us"),
        Note::new("update_tail_us", update_tail, "us"),
        Note::new("update_tail_pct", update_pct, "%"),
        Note::new("read_tail_us", read_tail, "us"),
        Note::new("read_tail_pct", read_pct, "%"),
        Note::new("window_cv", cv, "ratio"),
        Note::new(
            "stale_read_per_1k",
            sum.per_1k_queries(sum.stale),
            "permille",
        ),
        Note::new(
            "read_retry_per_1k",
            sum.per_1k_queries(sum.rejected),
            "permille",
        ),
    ];
    // A traced run flags itself at 0.1 over one-second windows; a
    // slice is a seventh as long, so its count is 2.6 times as noisy.
    if cv > 0.25 {
        notes.push(Note::new("unresolved", 1.0, "flag"));
    }
    Ok(Outcome {
        metrics: m,
        notes,
        attempted: checked.attempted,
        failed: checked.failures.len() as u64,
        failures: checked.failures,
    })
}

/// Runs `cfg` and reports what it measured and whether it was correct.
pub fn run(cfg: &RunConfig) -> io::Result<Outcome> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    if cfg.trace {
        layers::run_traced(cfg)
    } else {
        run_end_to_end(cfg)
    }
}
