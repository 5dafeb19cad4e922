//! In-process layer probes: the workload's own updates replayed
//! single-threaded through the public surface of each layer, one span
//! per call.
//!
//! The path replay is a miniature three-site executor. It feeds each
//! planned update to a real [`NodeCore`] as the origin daemon would,
//! performs the effects against real [`ApplyJournal`]s and
//! [`FileQueue`]s, carries every sent frame through the wire codec to
//! its destination core, and keeps going until no site has anything
//! left to send — so the completion, VTNC and decision traffic an
//! update causes is on its bill too. What it leaves out is what is not
//! a library call: sockets, the reactor, the scheduler. The sum of its
//! spans against the CPU the live daemons used is the "do the numbers
//! add up" figure.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use esr_core::divergence::{EpsilonSpec, InconsistencyCounter};
use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::MSet;
use esr_replica::site::QueryOutcome;
use esr_replica::wire::{decode_frame, encode_frame, Frame};
use esr_runtime::{ApplyJournal, Effect, NodeCore, NodeEvent, RtMethod, SiteState};
use esr_storage::stable_queue::{FileQueue, StableQueue};

use crate::cluster::SITES;
use crate::plan::{Kind, Plan, Workload, PLAN_LEN};
use crate::trace::Recorder;

/// Planned updates replayed.
pub const PROBE_UPDATES: usize = 20_000;
/// MSets per `deliver_batch` call — the coalescing headroom esrd does
/// not use.
const BATCH: usize = 64;

/// The first [`PROBE_UPDATES`] updates of client A's plan as stamped
/// MSets (with their decisions), and as many planned read sets.
struct Inputs {
    updates: Vec<(MSet, Option<bool>)>,
    read_sets: Vec<Vec<ObjectId>>,
}

fn inputs(w: &Workload, seed: u64) -> Inputs {
    let plan = Plan::generate(w, seed, 0, PLAN_LEN);
    let mut updates = Vec::with_capacity(PROBE_UPDATES);
    let mut read_sets = Vec::with_capacity(PROBE_UPDATES);
    // A plan holds fewer updates (or queries) than the probe wants on
    // the lopsided mixes; going round again repeats keys, never stamps.
    for i in (0..plan.len()).cycle() {
        if updates.len() == PROBE_UPDATES && read_sets.len() == PROBE_UPDATES {
            break;
        }
        let (kind, keys, vals) = plan.op(i);
        let objects = keys.iter().map(|&k| ObjectId(u64::from(k)));
        if !kind.is_update() {
            if read_sets.len() < PROBE_UPDATES {
                read_sets.push(objects.collect());
            }
            continue;
        }
        if updates.len() == PROBE_UPDATES {
            continue;
        }
        let n = updates.len() as u64;
        let ts = VersionTs::new(n + 1, ClientId(0));
        let ops = objects
            .zip(vals)
            .map(|(o, &v)| {
                let op = match kind {
                    Kind::Write => Operation::Write(Value::Int(v)),
                    Kind::Blind => Operation::TimestampedWrite(ts, Value::Int(v)),
                    _ => Operation::Incr(v),
                };
                ObjectOp::new(o, op)
            })
            .collect();
        let mut mset = MSet::new(EtId(n + 1), SiteId(0), ops);
        if w.method == RtMethod::Ordup {
            mset = mset.sequenced(SeqNo(n));
        }
        let decision = match kind {
            Kind::IncrCommit => Some(true),
            Kind::IncrAbort => Some(false),
            _ => None,
        };
        updates.push((mset, decision));
    }
    Inputs { updates, read_sets }
}

fn fresh_state(method: RtMethod, site: usize) -> SiteState {
    SiteState::new(method, SiteId(site as u64))
}

/// One site of the in-process executor: its core, its journal, and its
/// durable queue toward every peer.
struct Site {
    core: NodeCore,
    journal: ApplyJournal,
    links: Vec<Option<FileQueue>>,
}

/// The three sites plus the frames in flight between them.
struct Executor {
    sites: Vec<Site>,
    /// `(to, entry id at the sender, from, encoded frame, is it an
    /// MSet)`.
    wire: VecDeque<(usize, u64, usize, Bytes, bool)>,
    /// Effects returned by `ClientSubmit` steps.
    submit_effects: u64,
}

/// Span names `(encode, decode, step)` for a frame on the wire:
/// updates apart from the control traffic they cause.
fn frame_names(is_mset: bool) -> (&'static str, &'static str, &'static str) {
    if is_mset {
        (
            "wire.encode.mset",
            "wire.decode.mset",
            "ctrl.peer_step.mset",
        )
    } else {
        ("wire.encode.ctl", "wire.decode.ctl", "ctrl.peer_step.ctl")
    }
}

impl Executor {
    fn new(method: RtMethod, dir: &Path) -> io::Result<Self> {
        let mut sites = Vec::new();
        for i in 0..SITES {
            let mut links = Vec::new();
            for j in 0..SITES {
                links.push(if i == j {
                    None
                } else {
                    Some(FileQueue::open(dir.join(format!("link-{i}-{j}.queue")))?)
                });
            }
            sites.push(Site {
                core: NodeCore::fresh(
                    fresh_state(method, i),
                    method,
                    SiteId(i as u64),
                    SITES,
                    None,
                ),
                journal: ApplyJournal::open(dir.join(format!("site-{i}.journal")))?,
                links,
            });
        }
        Ok(Self {
            sites,
            wire: VecDeque::new(),
            submit_effects: 0,
        })
    }

    /// Performs a step's effects at `site`, as `Daemon::perform` does.
    fn perform(
        &mut self,
        site: usize,
        effects: Vec<Effect>,
        rec: &mut Recorder,
        root: u32,
        op: u64,
    ) {
        for effect in effects {
            match effect {
                Effect::Journal(mset) => {
                    let journal = &mut self.sites[site].journal;
                    rec.time("journal.record", root, op, || journal.record(&mset));
                }
                Effect::Send { to, frame } => {
                    let to = to.raw() as usize;
                    let is_mset = matches!(frame, Frame::MSet(_));
                    let (encode, ..) = frame_names(is_mset);
                    let bytes = rec.time(encode, root, op, || encode_frame(&frame));
                    let Some(queue) = self.sites[site].links[to].as_mut() else {
                        continue;
                    };
                    let id = rec.time("queue.enqueue", root, op, || queue.enqueue(bytes.clone()));
                    self.wire.push_back((to, id.0, site, bytes, is_mset));
                }
                // Trace and span effects go to in-memory rings in the
                // daemon; views and checkpoints do not occur here.
                _ => {}
            }
        }
    }

    /// Delivers frames until the cluster is quiet: decode, step,
    /// perform, then acknowledge at the sender.
    fn drain(&mut self, rec: &mut Recorder, root: u32, op: u64) {
        while let Some((to, entry, from, bytes, is_mset)) = self.wire.pop_front() {
            let (_, decode, step) = frame_names(is_mset);
            let Ok(frame) = rec.time(decode, root, op, || decode_frame(&bytes)) else {
                continue;
            };
            let core = &mut self.sites[to].core;
            let effects = rec.time(step, root, op, || core.step(NodeEvent::PeerFrame(frame)));
            self.perform(to, effects, rec, root, op);
            if let Some(queue) = self.sites[from].links[to].as_mut() {
                let id = esr_storage::stable_queue::EntryId(entry);
                rec.time("queue.ack", root, op, || queue.ack(id));
            }
        }
    }

    /// One update's whole life: the client's frame decoded at the
    /// origin, the submit step, and everything that follows from it at
    /// every site; for COMPE, the decision too.
    fn update(&mut self, mset: &MSet, decision: Option<bool>, rec: &mut Recorder) {
        let op = mset.et.raw();
        let root = rec.begin("probe.update", 0, op);
        let request = encode_frame(&Frame::Submit(mset.clone()));
        if let Ok(Frame::Submit(m)) =
            rec.time("wire.decode.submit", root, op, || decode_frame(&request))
        {
            let core = &mut self.sites[0].core;
            let effects = rec.time("ctrl.submit_step", root, op, || {
                core.step(NodeEvent::ClientSubmit(m))
            });
            self.submit_effects += effects.len() as u64;
            self.perform(0, effects, rec, root, op);
            self.drain(rec, root, op);
        }
        if let Some(commit) = decision {
            let core = &mut self.sites[0].core;
            let event = NodeEvent::ClientDecision {
                et: mset.et,
                commit,
            };
            let effects = rec.time("ctrl.decide_step", root, op, || core.step(event));
            self.perform(0, effects, rec, root, op);
            self.drain(rec, root, op);
        }
        rec.end(root);
    }
}

/// What the probes measured. Times are means in nanoseconds unless
/// named otherwise.
#[derive(Debug, Default)]
pub struct ProbeOut {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_frame: f64,
    pub enqueue_ns: f64,
    pub ack_ns: f64,
    pub journal_record_ns: f64,
    pub journal_bytes_per_record: f64,
    pub journal_replay_ns_per_record: f64,
    pub submit_step_ns: f64,
    pub peer_step_ns: f64,
    pub effects_per_submit: f64,
    pub recover_ns_per_record: f64,
    pub deliver_ns: f64,
    pub deliver_batch_ns: f64,
    pub query_ns: f64,
    /// Every layer call one update causes at the three sites, summed.
    pub sum_us_per_update: f64,
    /// Request decode + query + reply encode.
    pub sum_us_per_read: f64,
    /// What one empty span costs (each probe span includes it once).
    pub span_cost_ns: f64,
}

fn mean_of(durations: &[u64]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    durations.iter().sum::<u64>() as f64 / durations.len() as f64
}

/// Removes the probe's scratch directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs every probe for `w` under `seed`, recording into `rec`.
pub fn run(w: &Workload, seed: u64, out_dir: &Path, rec: &mut Recorder) -> io::Result<ProbeOut> {
    let scratch = Scratch(out_dir.join(format!("probe-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;
    let Inputs { updates, read_sets } = inputs(w, seed);
    let n = updates.len() as f64;
    let mut out = ProbeOut::default();

    // The clock reads around a span, by themselves.
    let calibration = 100_000;
    let started = Instant::now();
    let mut blank = Recorder::new(started);
    for _ in 0..calibration {
        blank.time("blank", 0, 0, || ());
    }
    out.span_cost_ns = started.elapsed().as_nanos() as f64 / f64::from(calibration);

    // The update path, end to end across the three sites.
    let mut exec = Executor::new(w.method, &scratch.0)?;
    for (mset, decision) in &updates {
        exec.update(mset, *decision, rec);
    }
    out.effects_per_submit = exec.submit_effects as f64 / n;
    let journal_path = scratch.0.join(format!("site-{}.journal", SITES - 1));
    out.journal_bytes_per_record = std::fs::metadata(&journal_path)?.len() as f64
        / exec.sites[SITES - 1].journal.entries() as f64;
    let per_update: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent != 0 && s.name != "probe.update")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    out.sum_us_per_update = per_update as f64 / n / 1e3;
    out.encode_ns = rec.mean_ns("wire.encode.mset");
    let mut decodes = rec.durations("wire.decode.submit");
    decodes.extend(rec.durations("wire.decode.mset"));
    out.decode_ns = mean_of(&decodes);
    out.bytes_per_frame = updates
        .iter()
        .map(|(m, _)| encode_frame(&Frame::MSet(m.clone())).len())
        .sum::<usize>() as f64
        / n;
    out.enqueue_ns = rec.mean_ns("queue.enqueue");
    out.ack_ns = rec.mean_ns("queue.ack");
    out.journal_record_ns = rec.mean_ns("journal.record");
    out.submit_step_ns = rec.mean_ns("ctrl.submit_step");
    out.peer_step_ns = rec.mean_ns("ctrl.peer_step.mset");

    // Recovery: the follower's journal read back, then replayed into a
    // fresh core — what a restarted esrd does before it serves.
    let id = rec.begin("journal.replay", 0, 0);
    let replayed = ApplyJournal::open(&journal_path)?.replay();
    rec.end(id);
    let records = replayed.len().max(1) as f64;
    out.journal_replay_ns_per_record = rec.mean_ns("journal.replay") / records;
    let follower = SiteId(SITES as u64 - 1);
    let state = fresh_state(w.method, SITES - 1);
    rec.time("ctrl.recover", 0, 0, || {
        NodeCore::recover(state, w.method, follower, SITES, None, 0, replayed)
    });
    out.recover_ns_per_record = rec.mean_ns("ctrl.recover") / records;

    // The method's state machine alone: one at a time, then batched.
    let mut single = fresh_state(w.method, 1);
    for (mset, _) in &updates {
        let mset = mset.clone();
        rec.time("site.deliver", 0, mset.et.raw(), || single.deliver(mset));
    }
    out.deliver_ns = rec.mean_ns("site.deliver");
    let mut batched = fresh_state(w.method, 1);
    for chunk in updates.chunks(BATCH) {
        let msets: Vec<MSet> = chunk.iter().map(|(m, _)| m.clone()).collect();
        rec.time("site.deliver_batch", 0, 0, || batched.deliver_batch(msets));
    }
    out.deliver_batch_ns = rec.durations("site.deliver_batch").iter().sum::<u64>() as f64 / n;

    // The read path on the state the replay left at a follower (with
    // its completions, horizons and decisions applied, as in the live
    // cluster): request decode, query, reply encode.
    let replica = &mut exec.sites[1].core.state;
    for (i, read_set) in read_sets.iter().enumerate() {
        let op = (1 << 62) | i as u64;
        let root = rec.begin("probe.read", 0, op);
        let request = encode_frame(&Frame::Query {
            read_set: read_set.clone(),
            epsilon_limit: w.epsilon,
        });
        let decoded = rec.time("wire.decode.query", root, op, || decode_frame(&request));
        if let Ok(Frame::Query {
            read_set,
            epsilon_limit,
        }) = decoded
        {
            let mut counter = InconsistencyCounter::new(EpsilonSpec::bounded(epsilon_limit));
            let outcome: QueryOutcome = rec.time("site.query", root, op, || {
                replica.query(&read_set, &mut counter)
            });
            rec.time("wire.encode.reply", root, op, || {
                encode_frame(&Frame::QueryOk(outcome))
            });
        }
        rec.end(root);
    }
    out.query_ns = rec.mean_ns("site.query");
    out.sum_us_per_read = (rec.mean_ns("wire.decode.query")
        + rec.mean_ns("site.query")
        + rec.mean_ns("wire.encode.reply"))
        / 1e3;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WORKLOADS;

    #[test]
    fn inputs_are_dense_and_complete() {
        for w in &WORKLOADS {
            let Inputs { updates, read_sets } = inputs(w, 42);
            assert_eq!(updates.len(), PROBE_UPDATES, "{}", w.name);
            assert_eq!(read_sets.len(), PROBE_UPDATES, "{}", w.name);
            assert!(updates
                .iter()
                .enumerate()
                .all(|(i, (m, _))| m.et == EtId(i as u64 + 1)));
            assert!(updates.iter().all(|(m, _)| m.ops.len() == w.width()));
            let decided = updates.iter().filter(|(_, d)| d.is_some()).count();
            assert_eq!(decided > 0, w.method == RtMethod::Compe, "{}", w.name);
        }
    }

    #[test]
    fn executor_converges_like_a_cluster() {
        // The probe's executor is only worth timing if it does what the
        // daemons do: after the replay all three cores hold the same,
        // settled state.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for w in &WORKLOADS {
            let scratch =
                Scratch(dir.join(format!("probe-test-{}-{}", w.name, std::process::id())));
            std::fs::create_dir_all(&scratch.0).unwrap();
            let mut exec = Executor::new(w.method, &scratch.0).unwrap();
            let mut rec = Recorder::new(Instant::now());
            let Inputs { updates, .. } = inputs(w, 7);
            for (mset, decision) in updates.iter().take(300) {
                exec.update(mset, *decision, &mut rec);
            }
            let reference = exec.sites[0].core.state.snapshot();
            assert!(!reference.is_empty(), "{}", w.name);
            for site in &exec.sites {
                assert_eq!(site.core.state.snapshot(), reference, "{}", w.name);
                assert!(site.core.state.settled(), "{}", w.name);
                assert_eq!(site.journal.entries(), 300, "{}", w.name);
                assert!(
                    site.links.iter().flatten().all(|q| q.is_empty()),
                    "{}",
                    w.name
                );
            }
            assert!(
                rec.durations("ctrl.peer_step.mset").len() == 600,
                "{}",
                w.name
            );
        }
    }
}
