//! The six workloads and their seeded operation plans.
//!
//! A plan fixes everything the seed decides — which object each
//! operation touches, whether it reads or updates, the delta or value
//! it carries, and (COMPE) whether the update will be aborted — before
//! the clock starts. What depends on the run itself (ET ids, ORDUP
//! sequence numbers, RITU version stamps) is minted at send time.

use esr_runtime::RtMethod;
use esr_sim::rng::DetRng;
use esr_workload::{KeyChooser, KeyDist};

/// Planned operations per client. A client that outruns its plan
/// starts it again: the keys repeat, the stamps do not.
pub const PLAN_LEN: usize = 1 << 16;

/// What one planned operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A query ET over the operation's keys.
    Query,
    /// `Incr(val)` on each key.
    Incr,
    /// `Write(val)` on each key (ORDUP: order-sensitive against `Incr`).
    Write,
    /// `TimestampedWrite(ts, val)` on each key, one `ts` for the ET.
    Blind,
    /// `Incr(val)` followed by a commit decision.
    IncrCommit,
    /// `Incr(val)` followed by an abort decision.
    IncrAbort,
}

impl Kind {
    pub fn is_update(self) -> bool {
        self != Kind::Query
    }
}

/// How a workload's update ETs are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Single-op `Incr`.
    Incr,
    /// Single-op `Write` or `Incr`, half each.
    WriteIncr,
    /// Sixteen timestamped blind writes to distinct objects; queries
    /// read sixteen objects too.
    Blind16,
    /// Single-op `Incr`, then `decide`; one in ten aborts.
    IncrDecide,
}

/// One benchmark workload. All run on three sites with two closed-loop
/// clients.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub method: RtMethod,
    pub objects: u64,
    pub dist: KeyDist,
    /// Queries per 1024 planned operations.
    pub queries_per_1024: u64,
    /// Epsilon budget every query carries.
    pub epsilon: u64,
    pub shape: Shape,
}

const ZIPF: KeyDist = KeyDist::Zipf(0.99);

/// The benchmark's workloads; `BENCHMARK.json` carries the reason each
/// exists.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "commu-update",
        method: RtMethod::Commu,
        objects: 4096,
        dist: ZIPF,
        // One read in 64, so that read latency is defined on the
        // update-bound workload too; the update path still does 98 % of
        // the work.
        queries_per_1024: 16,
        epsilon: u64::MAX,
        shape: Shape::Incr,
    },
    Workload {
        name: "commu-read95",
        method: RtMethod::Commu,
        objects: 4096,
        dist: ZIPF,
        queries_per_1024: 973,
        epsilon: u64::MAX,
        shape: Shape::Incr,
    },
    Workload {
        name: "commu-strict50",
        method: RtMethod::Commu,
        objects: 256,
        dist: ZIPF,
        queries_per_1024: 512,
        epsilon: 0,
        shape: Shape::Incr,
    },
    Workload {
        name: "ordup-mixed",
        method: RtMethod::Ordup,
        objects: 4096,
        dist: ZIPF,
        queries_per_1024: 512,
        epsilon: u64::MAX,
        shape: Shape::WriteIncr,
    },
    Workload {
        name: "ritumv-wide16",
        method: RtMethod::RituMv,
        objects: 65_536,
        dist: KeyDist::Uniform,
        queries_per_1024: 205,
        epsilon: u64::MAX,
        shape: Shape::Blind16,
    },
    Workload {
        name: "compe-abort10",
        method: RtMethod::Compe,
        objects: 4096,
        dist: ZIPF,
        queries_per_1024: 205,
        epsilon: u64::MAX,
        shape: Shape::IncrDecide,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Objects per operation, updates and queries alike.
    pub fn width(&self) -> usize {
        match self.shape {
            Shape::Blind16 => 16,
            _ => 1,
        }
    }
}

/// One client's planned operations, flattened: operation `i` owns
/// `keys[i * width..][..width]` and the matching `vals`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub width: usize,
    pub kinds: Vec<Kind>,
    pub keys: Vec<u32>,
    pub vals: Vec<i64>,
}

impl Plan {
    /// The plan of client `client` under `seed`: a pure function of its
    /// arguments.
    pub fn generate(w: &Workload, seed: u64, client: u64, len: usize) -> Plan {
        let mut rng = DetRng::new(seed).fork(client + 1);
        let chooser = KeyChooser::new(w.objects, w.dist);
        let width = w.width();
        let mut plan = Plan {
            width,
            kinds: Vec::with_capacity(len),
            keys: Vec::with_capacity(len * width),
            vals: Vec::with_capacity(len * width),
        };
        for _ in 0..len {
            let kind = if rng.below(1024) < w.queries_per_1024 {
                Kind::Query
            } else {
                match w.shape {
                    Shape::Incr => Kind::Incr,
                    Shape::WriteIncr if rng.chance(0.5) => Kind::Write,
                    Shape::WriteIncr => Kind::Incr,
                    Shape::Blind16 => Kind::Blind,
                    Shape::IncrDecide if rng.below(10) == 0 => Kind::IncrAbort,
                    Shape::IncrDecide => Kind::IncrCommit,
                }
            };
            plan.kinds.push(kind);
            if width == 1 {
                plan.keys.push(chooser.pick(&mut rng).raw() as u32);
            } else {
                plan.keys.extend(
                    chooser
                        .pick_distinct(&mut rng, width)
                        .into_iter()
                        .map(|o| o.raw() as u32),
                );
            }
            // Positive deltas and values: an object touched by a
            // surviving update never reads as the untouched default 0.
            plan.vals
                .extend((0..width).map(|_| 1 + rng.below(9) as i64));
        }
        plan
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Keys and values of operation `i`.
    pub fn op(&self, i: usize) -> (Kind, &[u32], &[i64]) {
        let at = i * self.width;
        (
            self.kinds[i],
            &self.keys[at..at + self.width],
            &self.vals[at..at + self.width],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in &WORKLOADS {
            let a = Plan::generate(w, 42, 0, 2048);
            assert_eq!(a, Plan::generate(w, 42, 0, 2048), "{}", w.name);
            assert_ne!(a, Plan::generate(w, 7, 0, 2048), "{}", w.name);
            assert_ne!(
                a,
                Plan::generate(w, 42, 1, 2048),
                "{}: clients differ",
                w.name
            );
            assert_eq!(a.len(), 2048);
            assert_eq!(a.keys.len(), 2048 * w.width());
        }
    }

    #[test]
    fn mixes_follow_the_specification() {
        let share = |w: &Workload, pred: fn(Kind) -> bool| {
            let p = Plan::generate(w, 1, 0, 1 << 14);
            p.kinds.iter().filter(|k| pred(**k)).count() as f64 / p.len() as f64
        };
        let w = |n| Workload::by_name(n).unwrap();
        assert!((share(w("commu-read95"), |k| k == Kind::Query) - 0.95).abs() < 0.01);
        assert!((share(w("commu-strict50"), |k| k == Kind::Query) - 0.50).abs() < 0.02);
        assert!((share(w("ritumv-wide16"), Kind::is_update) - 0.80).abs() < 0.02);
        assert!(share(w("commu-update"), Kind::is_update) > 0.97);
        let aborts = share(w("compe-abort10"), |k| k == Kind::IncrAbort);
        let commits = share(w("compe-abort10"), |k| k == Kind::IncrCommit);
        assert!((aborts / (aborts + commits) - 0.10).abs() < 0.02);
        let writes = share(w("ordup-mixed"), |k| k == Kind::Write);
        let incrs = share(w("ordup-mixed"), |k| k == Kind::Incr);
        assert!((writes - incrs).abs() < 0.03 && writes > 0.2);
    }

    #[test]
    fn wide_operations_touch_distinct_objects_in_range() {
        let w = Workload::by_name("ritumv-wide16").unwrap();
        let p = Plan::generate(w, 3, 1, 512);
        for i in 0..p.len() {
            let (_, keys, vals) = p.op(i);
            let mut k = keys.to_vec();
            k.sort_unstable();
            k.dedup();
            assert_eq!(k.len(), 16);
            assert!(keys.iter().all(|&k| u64::from(k) < w.objects));
            assert!(vals.iter().all(|&v| (1..=9).contains(&v)));
        }
    }
}
