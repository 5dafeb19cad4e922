//! Stateless sleep-set DFS over the model's transition system.
//!
//! The explorer enumerates schedules by depth-first search with
//! *replay*: a search node is identified by its transition prefix, and
//! the world is rebuilt from scratch for each visit (no `Clone` on
//! protocol state, no hashing of states). Reduction uses classic
//! sleep sets (Godefroid): after exploring transition `t` at a node,
//! `t` is added to the sleep set of its later siblings and stays
//! asleep while independent transitions execute — pruning the
//! commuted reorderings of independent steps without ever pruning a
//! distinguishable trace. Two transitions are independent iff they
//! target different nodes and don't share a fault budget
//! ([`Tx::independent`]).
//!
//! A node's sleep set depends only on its prefix and its earlier
//! siblings' transitions, never on what their subtrees held, so the
//! subtrees below a fixed depth are independent searches: they run on
//! every available thread, and their results are taken in DFS order, up
//! to the first task that failed or stopped. A sweep that fits its
//! budget reports what one thread would have, statistics included. One
//! that runs out is not deterministic: the threads share the budget, so
//! which subtrees finish before it is spent depends on their scheduling
//! — the sweep is `BudgetExceeded`, or fails on a subtree that DFS order
//! reaches before the first one cut short.
//!
//! Every terminal state (work done, queues drained) is judged by the
//! safety oracles plus the recovery-idempotence pass
//! ([`super::oracles::check_terminal`]); the first failure, in DFS
//! order, fails the sweep with the offending schedule.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use esr_replica::node::NodeInstruments;

use super::oracles::{self, ModelFinding};
use super::{instruments, ModelCfg, Tx, World};

/// Search nodes this deep are the units the threads share.
const SPLIT_DEPTH: usize = 2;

/// Statistics from a completed (clean) sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Distinct terminal states judged.
    pub executions: u64,
    /// Search-tree nodes visited (each costs one prefix replay).
    pub states: u64,
    /// Nodes whose entire enabled set was asleep (pruned subtrees).
    pub sleep_pruned: u64,
    /// Longest schedule executed.
    pub max_depth: usize,
}

impl SweepStats {
    fn absorb(&mut self, other: &SweepStats) {
        self.executions += other.executions;
        self.sleep_pruned += other.sleep_pruned;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// A failed execution: the schedule that produced it and what the
/// oracles saw.
#[derive(Debug, Clone)]
pub struct ModelFailure {
    /// The transition sequence from the initial state.
    pub schedule: Vec<Tx>,
    /// The oracle findings at (or after) the terminal state.
    pub findings: Vec<ModelFinding>,
}

/// Outcome of a sweep.
pub enum Sweep {
    /// Every explored execution satisfied every oracle.
    Clean(SweepStats),
    /// Some execution failed an oracle.
    Failed(Box<ModelFailure>),
    /// The state budget ran out before the sweep finished.
    BudgetExceeded(SweepStats),
}

/// `Ok(true)`: the subtree was fully explored; `Ok(false)`: the search
/// stopped first (budget, or an earlier subtree failed); `Err`: the
/// first oracle failure.
type Outcome = Result<bool, Box<ModelFailure>>;

/// One subtree of the sweep: a prefix and the sleep set it starts with.
struct Task {
    prefix: Vec<Tx>,
    sleep: Vec<Tx>,
}

/// Which pairs of transitions the sleep sets treat as commuting.
pub type Independence = fn(&Tx, &Tx, &ModelCfg) -> bool;

/// What the threads share.
struct Search<'a> {
    cfg: &'a ModelCfg,
    max_states: u64,
    states: AtomicU64,
    /// The lowest task that failed: later ones need not finish.
    failed: AtomicUsize,
}

/// Exhaustively explores `cfg` within a budget of `max_states` search
/// nodes.
pub fn explore(cfg: &ModelCfg, max_states: u64) -> Sweep {
    let search = Search {
        cfg,
        max_states,
        states: AtomicU64::new(0),
        failed: AtomicUsize::new(usize::MAX),
    };
    let mut tasks = Vec::new();
    let mut stats = SweepStats::default();
    search.split(&instruments(cfg), &mut Vec::new(), &[], &mut tasks);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, SweepStats, Outcome)>> = Mutex::new(Vec::new());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(tasks.len()) {
            scope.spawn(|| {
                // Each thread's own series: no counter is shared.
                let obs = instruments(cfg);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let mut prefix = task.prefix.clone();
                    let mut task_stats = SweepStats::default();
                    let outcome = search.dfs(&obs, &mut prefix, &task.sleep, &mut task_stats, i);
                    if outcome.is_err() {
                        search.failed.fetch_min(i, Ordering::Relaxed);
                    }
                    if let Ok(mut r) = results.lock() {
                        r.push((i, task_stats, outcome));
                    }
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap_or_default();
    results.sort_by_key(|(i, _, _)| *i);
    stats.states = search.states.load(Ordering::Relaxed);
    for (_, task_stats, outcome) in results {
        stats.absorb(&task_stats);
        match outcome {
            Err(failure) => return Sweep::Failed(failure),
            // Where one thread would have stopped: no later task's
            // failure counts.
            Ok(false) => return Sweep::BudgetExceeded(stats),
            Ok(true) => {}
        }
    }
    Sweep::Clean(stats)
}

/// Visits every state a single-threaded sleep-set search under
/// `independent` reaches, without judging any: sleep sets prune
/// transitions, never a reachable state, so two sound relations visit
/// the same set — what lets a test check one against the other.
pub fn visit(cfg: &ModelCfg, independent: Independence, each: &mut impl FnMut(&World)) {
    fn dfs(
        cfg: &ModelCfg,
        obs: &[Arc<NodeInstruments>],
        independent: Independence,
        prefix: &mut Vec<Tx>,
        sleep: &[Tx],
        each: &mut impl FnMut(&World),
    ) {
        let world = replay(cfg, obs, prefix);
        each(&world);
        for (t, child_sleep) in children(cfg, independent, world.enabled(), sleep) {
            prefix.push(t);
            dfs(cfg, obs, independent, prefix, &child_sleep, each);
            prefix.pop();
        }
    }
    dfs(cfg, &instruments(cfg), independent, &mut Vec::new(), &[], each);
}

/// Rebuilds the world at `prefix`, its nodes reporting to `obs`.
fn replay<'a>(cfg: &'a ModelCfg, obs: &'a [Arc<NodeInstruments>], prefix: &[Tx]) -> World<'a> {
    let mut world = World::new(cfg, obs);
    for tx in prefix {
        world.execute(*tx);
    }
    world
}

/// The transitions to explore below a node, each with its child's
/// sleep set: sleeping siblings stay asleep under `t` only while
/// independent of it.
fn children(
    cfg: &ModelCfg,
    independent: Independence,
    enabled: Vec<Tx>,
    sleep: &[Tx],
) -> Vec<(Tx, Vec<Tx>)> {
    let mut done: Vec<Tx> = Vec::new();
    let mut out = Vec::new();
    for t in enabled {
        if sleep.contains(&t) {
            continue;
        }
        let child_sleep: Vec<Tx> = sleep
            .iter()
            .chain(done.iter())
            .filter(|s| independent(s, &t, cfg))
            .copied()
            .collect();
        out.push((t, child_sleep));
        done.push(t);
    }
    out
}

impl Search<'_> {
    /// Expands the top of the tree, in DFS order, into the tasks the
    /// threads share: every node at [`SPLIT_DEPTH`], and every node
    /// above it that has nothing to expand (a terminal, or all asleep).
    fn split(
        &self,
        obs: &[Arc<NodeInstruments>],
        prefix: &mut Vec<Tx>,
        sleep: &[Tx],
        tasks: &mut Vec<Task>,
    ) {
        let enabled = replay(self.cfg, obs, prefix).enabled();
        if prefix.len() == SPLIT_DEPTH || enabled.iter().all(|t| sleep.contains(t)) {
            tasks.push(Task {
                prefix: prefix.clone(),
                sleep: sleep.to_vec(),
            });
            return;
        }
        self.states.fetch_add(1, Ordering::Relaxed);
        for (t, child_sleep) in children(self.cfg, Tx::independent, enabled, sleep) {
            prefix.push(t);
            self.split(obs, prefix, &child_sleep, tasks);
            prefix.pop();
        }
    }

    fn dfs(
        &self,
        obs: &[Arc<NodeInstruments>],
        prefix: &mut Vec<Tx>,
        sleep: &[Tx],
        stats: &mut SweepStats,
        task: usize,
    ) -> Outcome {
        let visited = self.states.fetch_add(1, Ordering::Relaxed);
        if visited >= self.max_states || self.failed.load(Ordering::Relaxed) < task {
            return Ok(false);
        }
        let mut world = replay(self.cfg, obs, prefix);
        let enabled = world.enabled();
        if enabled.is_empty() {
            debug_assert!(world.is_terminal(), "stuck non-terminal state");
            stats.executions += 1;
            stats.max_depth = stats.max_depth.max(prefix.len());
            let findings = oracles::check_terminal(self.cfg, &mut world);
            if !findings.is_empty() {
                return Err(Box::new(ModelFailure {
                    schedule: prefix.clone(),
                    findings,
                }));
            }
            return Ok(true);
        }
        let explore = children(self.cfg, Tx::independent, enabled, sleep);
        if explore.is_empty() {
            stats.sleep_pruned += 1;
            return Ok(true);
        }
        for (t, child_sleep) in explore {
            prefix.push(t);
            let complete = self.dfs(obs, prefix, &child_sleep, stats, task)?;
            prefix.pop();
            if !complete {
                return Ok(false);
            }
        }
        Ok(true)
    }
}
