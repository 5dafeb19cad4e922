//! The load: two closed-loop clients, one connection and one
//! outstanding request each, and the main thread that times the phases
//! and samples `/proc` around the measured one.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::MSet;
use esr_runtime::{RpcClient, RtMethod};

use crate::calib::Reference;
use crate::cluster::{self, Cluster, SITES};
use crate::oracle::Ledger;
use crate::plan::{Kind, Plan, Workload, PLAN_LEN};
use crate::procfs::ProcSample;
use crate::prom;
use crate::trace::Recorder;

/// Client threads: A on site 0 (the coordinator), B on site 1 (a
/// follower). Fixed, so results compare across machines.
pub const CLIENTS: usize = 2;

/// What a latency sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An update ET: send → `SubmitOk` (COMPE: through `DecisionOk`).
    Update,
    /// A query ET: first send → admitted reply, retries included.
    Read,
    /// The `decide` round trip alone (COMPE).
    Decide,
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the load started.
    pub end_ns: u64,
    pub lat_ns: u64,
    pub class: Class,
}

/// How long a load run lasts.
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    /// Warm-up, then a measured phase of whole seconds.
    Timed(Phases),
    /// Each client sends this many of its planned updates (its planned
    /// queries are skipped) and stops: a journal of known size for the
    /// recovery phase. A cluster too slow to take them within
    /// [`FILL_LIMIT`] is stopped there, so that a crawling box cannot
    /// overrun the time one run may take.
    Updates(u64),
}

/// Discarded lead-in of every timed load run.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Longest an [`Extent::Updates`] run may take.
const FILL_LIMIT: Duration = Duration::from_secs(8);

/// An untraced measured second is five slices of load, each followed
/// by a drain and a measurement of the reference (`calib.rs`): the
/// box's speed changes by half within seconds, and a slice is timed
/// against the reference measured either side of it.
const SLICES_PER_SEC: u64 = 5;
const LOAD_SPAN: Duration = Duration::from_millis(150);
/// After the clients have parked: the daemons finish propagating.
const DRAIN_SPAN: Duration = Duration::from_millis(5);
const REFERENCE_SPAN: Duration = Duration::from_millis(40);

/// Phase lengths of a timed load run, after [`WARMUP`].
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Measured phase; whole seconds.
    pub measure_secs: u64,
    /// Traced run: one uninterrupted load in one-second windows, MSets
    /// carry a trace context and the driver records its spans in every
    /// second window, counted back from the last; the windows between
    /// stay untraced and give the overhead. Untraced run: slices of
    /// load, each calibrated against the reference.
    pub tracing: bool,
}

/// A stretch of the measured phase with its own throughput figure.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Nanoseconds since the load started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The box's speed over the window as a share of the reference
    /// box's (`calib.rs`); 1 in a traced run, which is not calibrated.
    pub speed: f64,
}

/// Driver-side stamps, shared by the clients exactly as `ProcCluster`
/// shares them: ET ids from 1, the ORDUP sequence from 0, RITU version
/// times 1, 2, 3, … (dense, which VTNC certification relies on).
struct Stamps {
    et: AtomicU64,
    seq: AtomicU64,
    version: AtomicU64,
}

struct Control {
    start: Instant,
    /// Nanoseconds since `start` at which measuring began (0 = still
    /// warming up).
    measure_start_ns: AtomicU64,
    stop: AtomicBool,
    extent: Extent,
    /// Raised between the load slices of a calibrated run: a client
    /// that sees it parks before its next operation. It publishes no
    /// data (`Relaxed`); parking itself goes through `parked`.
    hold: AtomicBool,
    /// Clients parked now.
    parked: Mutex<usize>,
    /// Signalled when a client parks and when `hold` is lowered.
    turn: Condvar,
}

impl Control {
    /// A client's side of `hold`: waits until it is lowered or the run
    /// stops (polled, since `stop` is raised without a signal).
    fn park(&self) {
        let mut parked = self.parked.lock().expect("a client panicked while parking");
        *parked += 1;
        self.turn.notify_all();
        while self.hold.load(Ordering::Relaxed) && !self.stop.load(Ordering::Relaxed) {
            let wait = self.turn.wait_timeout(parked, Duration::from_millis(5));
            parked = wait.expect("a client panicked while parking").0;
        }
        *parked -= 1;
    }

    /// Raises `hold` and waits until every client has parked, or one
    /// has ended (which fails the run elsewhere).
    fn hold_clients(&self, ended: &dyn Fn() -> usize) {
        self.hold.store(true, Ordering::Relaxed);
        let mut parked = self.parked.lock().expect("a client panicked while parking");
        while *parked < CLIENTS && ended() == 0 {
            let wait = self.turn.wait_timeout(parked, Duration::from_millis(1));
            parked = wait.expect("a client panicked while parking").0;
        }
    }

    fn release_clients(&self) {
        let _parked = self.parked.lock().expect("a client panicked while parking");
        self.hold.store(false, Ordering::Relaxed);
        self.turn.notify_all();
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn traced_now(&self) -> bool {
        let from = self.measure_start_ns.load(Ordering::Relaxed);
        let Extent::Timed(phases) = self.extent else {
            return false;
        };
        if !phases.tracing || from == 0 {
            return false;
        }
        let window = self.now_ns().saturating_sub(from) / 1_000_000_000;
        let last = phases.measure_secs - 1;
        window <= last && (last - window).is_multiple_of(2)
    }
}

/// What one client did.
pub struct ClientOut {
    pub samples: Vec<Sample>,
    pub ledger: Ledger,
    /// Update ETs sent with tracing on, in order.
    pub traced_ets: Vec<u64>,
    pub spans: Recorder,
    pub updates: u64,
    pub queries: u64,
    /// Admitted queries that were charged at least one unit.
    pub stale: u64,
    /// `admitted = false` replies.
    pub rejected: u64,
    /// Admitted queries charged more than their epsilon (must be 0).
    pub over_limit: u64,
    /// Operations begun; one more than completed if the last one failed.
    pub attempted: u64,
    pub error: Option<io::Error>,
}

/// Everything a load run produced.
pub struct LoadOut {
    pub clients: Vec<ClientOut>,
    /// The measured phase, in order: the load slices of an untraced
    /// run, the one-second windows of a traced one.
    pub windows: Vec<Window>,
    /// Per-daemon resource use over the measured phase.
    pub daemons: Vec<ProcSample>,
    /// The driver's own resource use over the measured phase.
    pub driver: ProcSample,
    /// Deepest link queue seen by the mid-run metric polls (traced
    /// runs only).
    pub queue_depth_max: u64,
}

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Runs `f`, inside a span of the client's own when `traced`.
fn call<T>(
    spans: &mut Recorder,
    traced: bool,
    name: &'static str,
    root: u32,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    if traced {
        spans.time(name, root, op, f)
    } else {
        f()
    }
}

fn run_client(
    index: usize,
    rpc: &mut RpcClient,
    w: &Workload,
    plan: &Plan,
    stamps: &Stamps,
    ctl: &Control,
    out: &mut ClientOut,
) -> io::Result<()> {
    let origin = SiteId(index as u64);
    let mut next = 0usize;
    let mut query_no = 0u64;
    while !ctl.stop.load(Ordering::Relaxed) {
        if ctl.hold.load(Ordering::Relaxed) {
            ctl.park();
            continue;
        }
        let (kind, keys, vals) = plan.op(next % plan.len());
        next += 1;
        if let Extent::Updates(quota) = ctl.extent {
            if out.updates >= quota {
                break;
            }
            if !kind.is_update() {
                continue;
            }
        }
        out.attempted += 1;
        let traced = ctl.traced_now();
        let begun = Instant::now();
        if kind.is_update() {
            let et = EtId(stamps.et.fetch_add(1, Ordering::Relaxed));
            let mut stamp = 0;
            let ops: Vec<ObjectOp> = match kind {
                Kind::Blind => {
                    stamp = stamps.version.fetch_add(1, Ordering::Relaxed) + 1;
                    let ts = VersionTs::new(stamp, ClientId(index as u64));
                    keys.iter()
                        .zip(vals)
                        .map(|(&k, &v)| {
                            let op = Operation::TimestampedWrite(ts, Value::Int(v));
                            ObjectOp::new(ObjectId(u64::from(k)), op)
                        })
                        .collect()
                }
                Kind::Write => vec![ObjectOp::new(
                    ObjectId(u64::from(keys[0])),
                    Operation::Write(Value::Int(vals[0])),
                )],
                _ => vec![ObjectOp::new(
                    ObjectId(u64::from(keys[0])),
                    Operation::Incr(vals[0]),
                )],
            };
            let mut mset = MSet::new(et, origin, ops);
            if w.method == RtMethod::Ordup {
                stamp = stamps.seq.fetch_add(1, Ordering::Relaxed);
                mset = mset.sequenced(SeqNo(stamp));
            }
            let root = if traced {
                mset = mset.traced(unix_micros());
                out.traced_ets.push(et.raw());
                out.spans.begin("client.update", 0, et.raw())
            } else {
                0
            };
            let spans = &mut out.spans;
            call(spans, traced, "rpc.submit", root, et.raw(), || {
                rpc.submit(mset)
            })?;
            if matches!(kind, Kind::IncrCommit | Kind::IncrAbort) {
                let commit = kind == Kind::IncrCommit;
                let decide_begun = Instant::now();
                call(spans, traced, "rpc.decide", root, et.raw(), || {
                    rpc.decide(et, commit)
                })?;
                out.samples.push(Sample {
                    end_ns: ctl.start.elapsed().as_nanos() as u64,
                    lat_ns: decide_begun.elapsed().as_nanos() as u64,
                    class: Class::Decide,
                });
            }
            if traced {
                out.spans.end(root);
            }
            out.samples.push(Sample {
                end_ns: ctl.start.elapsed().as_nanos() as u64,
                lat_ns: begun.elapsed().as_nanos() as u64,
                class: Class::Update,
            });
            out.updates += 1;
            out.ledger.ack(kind, keys, vals, stamp);
        } else {
            let read_set: Vec<ObjectId> = keys.iter().map(|&k| ObjectId(u64::from(k))).collect();
            // Queries have no ET id; their spans share a driver-minted
            // one that cannot collide with an update's.
            query_no += 1;
            let op = (1 << 62) | ((index as u64) << 56) | query_no;
            let root = if traced {
                out.spans.begin("client.query", 0, op)
            } else {
                0
            };
            // A query refused for want of epsilon is retried at once
            // until admitted: the wait for propagation and completion
            // is then part of its latency.
            loop {
                let outcome = call(&mut out.spans, traced, "rpc.query", root, op, || {
                    rpc.query(&read_set, w.epsilon)
                })?;
                if outcome.admitted {
                    out.stale += u64::from(outcome.charged >= 1);
                    out.over_limit += u64::from(outcome.charged > w.epsilon);
                    break;
                }
                out.rejected += 1;
                if ctl.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            if traced {
                out.spans.end(root);
            }
            out.samples.push(Sample {
                end_ns: ctl.start.elapsed().as_nanos() as u64,
                lat_ns: begun.elapsed().as_nanos() as u64,
                class: Class::Read,
            });
            out.queries += 1;
        }
    }
    Ok(())
}

fn sample_daemons(cluster: &Cluster) -> io::Result<Vec<ProcSample>> {
    (0..SITES)
        .map(|s| ProcSample::read(cluster.pid(s)))
        .collect()
}

/// The clients' plans under `seed`: everything the seed decides, fixed
/// before any clock starts.
pub fn plans(w: &Workload, seed: u64) -> Vec<Plan> {
    (0..CLIENTS)
        .map(|c| Plan::generate(w, seed, c as u64, PLAN_LEN))
        .collect()
}

/// Sets the flag when dropped: however the code holding it ends — by
/// return, error or panic — whoever polls the flag is told.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs `clients` on threads of their own and `main` on this one, then
/// raises `stop` and waits for every client to end. `main` is handed a
/// count of the clients that have ended already (by return or panic):
/// in a timed run any is one too many. A client that has not ended
/// [`cluster::WAIT_LIMIT`] after `stop`, or when the run is
/// interrupted, is blocked on a daemon that no longer answers:
/// `abandon` must make its call fail. Panics, once every thread has
/// ended, if a client panicked.
fn supervise<C>(
    ctx: &mut C,
    stop: &AtomicBool,
    clients: Vec<Box<dyn FnOnce() + Send + '_>>,
    main: impl FnOnce(&C, &dyn Fn() -> usize) -> io::Result<()>,
    abandon: impl Fn(&mut C),
) -> io::Result<()> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients.into_iter().map(|c| scope.spawn(c)).collect();
        let ended = || handles.iter().filter(|h| h.is_finished()).count();
        let result = {
            let _stop = SetOnDrop(stop);
            main(ctx, &ended)
        };
        let deadline = Instant::now() + cluster::WAIT_LIMIT;
        while ended() < handles.len() {
            if Instant::now() >= deadline || cluster::check_interrupt().is_err() {
                abandon(ctx);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        result
    })
}

/// Runs `w` against `cluster` for `extent`, each client following its
/// plan, and returns what happened. A client error ends the run early
/// and is reported in its [`ClientOut`].
pub fn drive(
    cluster: &mut Cluster,
    w: &Workload,
    plans: &[Plan],
    extent: Extent,
) -> io::Result<LoadOut> {
    let mut rpcs = (0..CLIENTS)
        .map(|c| cluster.client(c))
        .collect::<io::Result<Vec<_>>>()?;
    // Polled mid-run for the link-queue depth; connected now so the
    // polls cost the daemons one request each, not a connection.
    let mut pollers = if matches!(extent, Extent::Timed(p) if p.tracing) {
        (0..SITES)
            .map(|s| cluster.client(s))
            .collect::<io::Result<Vec<_>>>()?
    } else {
        Vec::new()
    };
    let stamps = Stamps {
        et: AtomicU64::new(1),
        seq: AtomicU64::new(0),
        version: AtomicU64::new(0),
    };
    let ctl = Control {
        start: Instant::now(),
        measure_start_ns: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        extent,
        hold: AtomicBool::new(false),
        parked: Mutex::new(0),
        turn: Condvar::new(),
    };
    let mut outs: Vec<ClientOut> = (0..CLIENTS)
        .map(|_| ClientOut {
            samples: Vec::with_capacity(1 << 18),
            ledger: Ledger::new(w.method),
            traced_ets: Vec::new(),
            spans: Recorder::new(ctl.start),
            updates: 0,
            queries: 0,
            stale: 0,
            rejected: 0,
            over_limit: 0,
            attempted: 0,
            error: None,
        })
        .collect();

    let mut windows = Vec::new();
    let mut before = (Vec::new(), ProcSample::default());
    let mut after = before.clone();
    let mut queue_depth_max = 0;
    let clients = rpcs
        .iter_mut()
        .zip(plans)
        .zip(&mut outs)
        .enumerate()
        .map(|(index, ((rpc, plan), out))| {
            let (stamps, ctl) = (&stamps, &ctl);
            let client = move || {
                if let Err(e) = run_client(index, rpc, w, plan, stamps, ctl, out) {
                    out.error = Some(e);
                }
            };
            Box::new(client) as Box<dyn FnOnce() + Send>
        })
        .collect();
    let main = |cluster: &Cluster, ended: &dyn Fn() -> usize| {
        let Extent::Timed(phases) = extent else {
            // The clients stop by themselves, at their quota.
            let deadline = Instant::now() + FILL_LIMIT;
            while ended() < CLIENTS && Instant::now() < deadline {
                cluster::pause(Duration::from_millis(2))?;
            }
            return Ok(());
        };
        if !phases.tracing {
            // Calibrated: the reference, then slices of load with the
            // reference after each; a slice's speed is the mean of the
            // two measurements around it.
            let mut reference = Reference::start()?;
            cluster::pause(WARMUP)?;
            ctl.hold_clients(ended);
            cluster::pause(DRAIN_SPAN)?;
            let mut speed = reference.speed(REFERENCE_SPAN)?;
            before = (
                sample_daemons(cluster)?,
                ProcSample::read(std::process::id())?,
            );
            for _ in 0..phases.measure_secs * SLICES_PER_SEC {
                if ended() > 0 {
                    break;
                }
                let start_ns = ctl.now_ns();
                ctl.release_clients();
                cluster::pause(LOAD_SPAN)?;
                ctl.hold_clients(ended);
                let end_ns = ctl.now_ns();
                cluster::pause(DRAIN_SPAN)?;
                let speed_after = reference.speed(REFERENCE_SPAN)?;
                windows.push(Window {
                    start_ns,
                    end_ns,
                    speed: (speed + speed_after) / 2.0,
                });
                speed = speed_after;
            }
            after = (
                sample_daemons(cluster)?,
                ProcSample::read(std::process::id())?,
            );
            return Ok(());
        }
        cluster::pause(WARMUP)?;
        before = (
            sample_daemons(cluster)?,
            ProcSample::read(std::process::id())?,
        );
        let measure_start_ns = ctl.now_ns();
        ctl.measure_start_ns
            .store(measure_start_ns, Ordering::Relaxed);
        let end = Instant::now() + Duration::from_secs(phases.measure_secs);
        // A client that ends before the phase does has failed, and the
        // run with it.
        while Instant::now() < end && ended() == 0 {
            let left = end.saturating_duration_since(Instant::now());
            cluster::pause(left.min(Duration::from_millis(200)))?;
            for poller in &mut pollers {
                let depth = prom::gauge_max(&poller.metrics()?, "esr_link_queue_depth");
                queue_depth_max = queue_depth_max.max(depth);
            }
        }
        windows.extend((0..phases.measure_secs).map(|k| Window {
            start_ns: measure_start_ns + k * 1_000_000_000,
            end_ns: measure_start_ns + (k + 1) * 1_000_000_000,
            speed: 1.0,
        }));
        after = (
            sample_daemons(cluster)?,
            ProcSample::read(std::process::id())?,
        );
        Ok(())
    };
    supervise(cluster, &ctl.stop, clients, main, |cluster| {
        for site in 0..SITES {
            cluster.kill(site);
        }
    })?;
    Ok(LoadOut {
        clients: outs,
        windows,
        daemons: after
            .0
            .iter()
            .zip(&before.0)
            .map(|(a, b)| a.since(b))
            .collect(),
        driver: after.1.since(&before.1),
        queue_depth_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A client that panics has ended, as far as the run is concerned:
    /// the other client is stopped, the wait ends, and the panic comes
    /// out of `supervise` for the caller's `Cluster` to unwind through.
    #[test]
    fn a_panicking_client_ends_the_run_instead_of_hanging_it() {
        let stop = AtomicBool::new(false);
        let clients: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| panic!("client bug")),
            Box::new(|| wait_for(&stop)),
        ];
        let main = |_: &(), ended: &dyn Fn() -> usize| {
            while ended() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        };
        let run = || supervise(&mut (), &stop, clients, main, |()| {});
        assert!(catch_unwind(AssertUnwindSafe(run)).is_err());
        assert!(stop.load(Ordering::Relaxed));
    }

    #[test]
    fn clients_are_stopped_when_main_fails_or_panics() {
        for panics in [false, true] {
            let stop = AtomicBool::new(false);
            let clients: Vec<Box<dyn FnOnce() + Send + '_>> =
                vec![Box::new(|| wait_for(&stop)), Box::new(|| wait_for(&stop))];
            let main = |_: &(), _: &dyn Fn() -> usize| {
                assert!(!panics, "harness bug");
                Err(io::Error::other("sampling failed"))
            };
            let run = || supervise(&mut (), &stop, clients, main, |()| {});
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(result) => assert!(!panics && result.is_err()),
                Err(_) => assert!(panics),
            }
            assert!(stop.load(Ordering::Relaxed));
        }
    }
}
