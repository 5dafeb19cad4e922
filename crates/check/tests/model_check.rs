//! `esr-model` end-to-end: the eight control-plane canaries must be
//! caught and the unmutated protocol must sweep clean for every method
//! (every terminal's traces pass the certifier — it is one of the
//! terminal oracles).

use std::collections::BTreeSet;

use esr_check::model::canary::{canary_cfg, expose, CTRL_CANARIES};
use esr_check::model::explore::{explore, visit, Independence, Sweep};
use esr_check::model::{ModelCfg, Tx};
use esr_replica::node::Host;
use esr_runtime::state::RtMethod;

const METHODS: [RtMethod; 5] = [
    RtMethod::Ordup,
    RtMethod::Commu,
    RtMethod::Ritu,
    RtMethod::RituMv,
    RtMethod::Compe,
];

/// Search-node budget for one sweep. The standard 3-site config stays
/// well inside this (see the printed stats); hitting it is a failure.
const BUDGET: u64 = 200_000_000;

/// Bounded budget for the view-change configs' disarmed sweeps: large
/// enough to cover (with margin) the search prefix within which the
/// armed hunts catch both view-change canaries, small enough to keep
/// the debug-profile run under a minute.
const VC_BOUNDED_BUDGET: u64 = 500_000;

/// Budget for the crash-enriched COMMU view-change sweep in the
/// ignored tier: the crash-free space is ~9.8M states and restoring
/// one volatile-loss crash was measured past 30M, so give it ample
/// headroom.
const VC_ENRICHED_BUDGET: u64 = 150_000_000;

#[test]
fn ctrl_canaries_are_caught() {
    for case in &CTRL_CANARIES {
        let failure = expose(case, BUDGET).unwrap_or_else(|| {
            panic!("canary {} escaped the exhaustive sweep", case.name)
        });
        assert!(
            failure.findings.iter().any(|f| f.oracle == case.oracle),
            "canary {} caught, but not by `{}`: {:?}",
            case.name,
            case.oracle,
            failure.findings
        );
        println!(
            "canary {}: caught by `{}` after schedule of {} transitions",
            case.name,
            case.oracle,
            failure.schedule.len()
        );
    }
}

#[test]
fn canary_free_configs_sweep_clean_at_canary_size() {
    // The exact configurations the canary hunts use must be clean when
    // no defect is armed — otherwise "caught" proves nothing. The
    // view-change canaries share one disarmed config —
    // `ModelCfg::view_change(Commu)` — whose exhaustive clean sweep is
    // multi-minute release work done by the CI model lane (`esr-check
    // --model` sweeps that exact config); here it gets a bounded pass
    // (no violation within the budget) so the debug-profile test suite
    // stays fast, while the five method-plane configs must still sweep
    // clean outright.
    for case in &CTRL_CANARIES {
        let mut cfg = canary_cfg(case);
        cfg.canary = None;
        let budget = if case.needs_view_change {
            VC_BOUNDED_BUDGET
        } else {
            BUDGET
        };
        match explore(&cfg, budget) {
            Sweep::Clean(stats) => println!(
                "{} canary-size sweep clean: {} executions, {} states",
                case.name, stats.executions, stats.states
            ),
            Sweep::Failed(failure) => panic!(
                "{} canary-size sweep failed: {:?}\nschedule: {:?}",
                case.name, failure.findings, failure.schedule
            ),
            Sweep::BudgetExceeded(stats) if case.needs_view_change => println!(
                "{} canary-size sweep clean within bounded budget: \
                 {} executions, {} states (exhausted by the CI model lane)",
                case.name, stats.executions, stats.states
            ),
            Sweep::BudgetExceeded(stats) => {
                panic!("{} canary-size sweep blew budget: {stats:?}", case.name)
            }
        }
    }
}

/// The full two-update sweeps, split into single-fault passes (one
/// crash XOR one dup per execution; the crash×dup cross-product is
/// exhausted at canary size above). Most of an hour in release on two
/// cores, so CI runs this through `esr-check`; locally:
/// `cargo test -p esr-check --release --test model_check -- --ignored`.
#[test]
#[ignore = "full sweep; run in release via esr-check or -- --ignored"]
fn standard_configs_sweep_clean() {
    for method in METHODS {
        for (crashes, dups) in [(1, 0), (0, 1)] {
            let mut cfg = ModelCfg::standard(method);
            cfg.max_crashes = crashes;
            cfg.max_dups = dups;
            match explore(&cfg, BUDGET) {
                Sweep::Clean(stats) => println!(
                    "{method:?} ({crashes} crash, {dups} dup) sweep clean: \
                     {} executions, {} states, {} pruned, depth {}",
                    stats.executions, stats.states, stats.sleep_pruned, stats.max_depth
                ),
                Sweep::Failed(failure) => panic!(
                    "{method:?} ({crashes} crash, {dups} dup) sweep failed: {:?}\nschedule: {:?}",
                    failure.findings, failure.schedule
                ),
                Sweep::BudgetExceeded(stats) => {
                    panic!("{method:?} ({crashes} crash, {dups} dup) sweep blew budget: {stats:?}")
                }
            }
        }
    }
}

/// The per-method view-change sweeps: one update racing one pinned
/// suspicion, for every method — then once more for COMMU with the
/// crash budget restored (one `AfterAck` volatile loss at a
/// non-role-holder), so completion evidence consumed-then-lost *during*
/// an election is exhausted too. The CI model lane exhausts COMMU's
/// crash-free sweep (the canary-discipline config); this ignored tier
/// adds the method-plane evidence variants — ORDUP sequence holds,
/// RITU-MV horizons, COMPE decisions — crossing a handoff. A couple of
/// minutes per method plus tens of minutes for the crash-enriched pass,
/// in release:
/// `cargo test -p esr-check --release --test model_check -- --ignored`.
#[test]
#[ignore = "full sweep; run in release via -- --ignored"]
fn view_change_configs_sweep_clean() {
    let judge = |label: &str, cfg: &ModelCfg, budget: u64| match explore(cfg, budget) {
        Sweep::Clean(stats) => println!(
            "{label} view-change sweep clean: {} executions, {} states, \
             {} pruned, depth {}",
            stats.executions, stats.states, stats.sleep_pruned, stats.max_depth
        ),
        Sweep::Failed(failure) => panic!(
            "{label} view-change sweep failed: {:?}\nschedule: {:?}",
            failure.findings, failure.schedule
        ),
        Sweep::BudgetExceeded(stats) => {
            panic!("{label} view-change sweep blew budget: {stats:?}")
        }
    };
    for method in METHODS {
        judge(&format!("{method:?}"), &ModelCfg::view_change(method), BUDGET);
    }
    let mut enriched = ModelCfg::view_change(RtMethod::Commu);
    enriched.max_crashes = 1;
    judge("Commu crash-enriched", &enriched, VC_ENRICHED_BUDGET);
}

/// The sleep sets treat a delivery's ack on the sender's link as
/// commuting with the sender's appends, which read it into a cursor
/// record: the two orders leave different records, so the reduction
/// explores fewer journal states than the exact relation
/// ([`Tx::independent_of_acks`]) — on a crash-free sweep it does miss
/// some, which only the terminal recovery pass reads. With a crash in
/// the budget, the crash's own orders reach every one of them: the set
/// of journal states — cursor records included — that the two relations
/// visit on the COMPE 1-update, 1-crash configuration is the same. A
/// minute in release (the exact relation visits ~1.5 M states):
/// `cargo test -p esr-check --release --test model_check -- --ignored`.
#[test]
#[ignore = "exact-relation sweep; run in release via -- --ignored"]
fn the_reduction_reaches_every_journal_state_with_a_crash_in_the_budget() {
    let mut cfg = ModelCfg::standard(RtMethod::Compe);
    cfg.workload.truncate(1);
    cfg.decisions.truncate(1);
    cfg.max_dups = 0;
    let journals = |independent: Independence| {
        let mut seen = BTreeSet::new();
        visit(&cfg, independent, &mut |world| {
            let nodes = world.nodes.iter();
            let records = nodes.map(|n| n.host.journal().expect("a memory journal decodes"));
            seen.insert(format!("{:?}", records.collect::<Vec<_>>()));
        });
        seen
    };
    let (reduced, exact) = (journals(Tx::independent), journals(Tx::independent_of_acks));
    assert!(reduced.iter().any(|j| j.contains("Cursors")), "the sweep records cursors");
    assert_eq!(reduced, exact);
}
