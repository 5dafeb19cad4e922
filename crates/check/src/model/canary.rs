//! Seeded control-plane defects the explorer must catch before a
//! clean sweep counts (the PR-2 canary discipline applied to
//! `esr-model`).
//!
//! Each case arms one [`CtrlCanary`] variant inside the *same*
//! `NodeCore` the daemon runs, then asserts the explorer finds at
//! least one execution where an oracle fires. A canary that survives
//! the sweep means the checker has a blind spot — the sweep result is
//! then meaningless and the binary fails.

use esr_core::ids::EtId;
use esr_runtime::ctrl::CtrlCanary;
use esr_runtime::state::RtMethod;

use super::explore::{explore, ModelFailure, Sweep};
use super::ModelCfg;

/// One seeded-defect self-test.
pub struct CtrlCanaryCase {
    /// Stable name, printed by the binary.
    pub name: &'static str,
    /// The defect to arm.
    pub canary: CtrlCanary,
    /// The method whose control plane the defect corrupts.
    pub method: RtMethod,
    /// The oracle expected to fire (a failure via any oracle still
    /// counts as caught, but the expected one documents the defect's
    /// signature).
    pub oracle: &'static str,
    /// Does the defect only manifest across a coordinator handoff?
    /// When set, the hunt configuration grants one `Suspect` budget so
    /// the explorer can drive a view change.
    pub needs_view_change: bool,
}

/// The nine control-plane defect hunts: the original five classes, the
/// two failover defects a view-change protocol can smuggle in — a
/// demoted coordinator that keeps acting, and a handoff that swallows
/// in-flight completions — a decision left only in a link queue a crash
/// empties, and the lost completion again under RITU, whose overwrite
/// site shares COMMU's lock-counters.
pub const CTRL_CANARIES: [CtrlCanaryCase; 9] = [
    CtrlCanaryCase {
        name: "lost-completion-after-crash",
        canary: CtrlCanary::LostCompletionOnRestart,
        method: RtMethod::Commu,
        oracle: "settled",
        needs_view_change: false,
    },
    CtrlCanaryCase {
        name: "lost-ritu-completion-after-crash",
        canary: CtrlCanary::LostCompletionOnRestart,
        method: RtMethod::Ritu,
        oracle: "settled",
        needs_view_change: false,
    },
    CtrlCanaryCase {
        name: "double-applied-journal-suffix",
        canary: CtrlCanary::DoubleReplayedSuffix,
        method: RtMethod::Commu,
        oracle: "convergence",
        needs_view_change: false,
    },
    CtrlCanaryCase {
        name: "stale-vtnc-cert",
        canary: CtrlCanary::StaleVtncCert,
        method: RtMethod::RituMv,
        oracle: "vtnc-visibility",
        needs_view_change: false,
    },
    CtrlCanaryCase {
        name: "non-idempotent-compe-decision-replay",
        canary: CtrlCanary::DecisionReplayReapplies,
        method: RtMethod::Compe,
        oracle: "convergence",
        needs_view_change: false,
    },
    CtrlCanaryCase {
        name: "reordered-hello-epoch",
        canary: CtrlCanary::HelloEpochPinned,
        method: RtMethod::Commu,
        oracle: "settled",
        needs_view_change: false,
    },
    CtrlCanaryCase {
        name: "split-brain-double-coordinator",
        canary: CtrlCanary::SplitBrainCoordinator,
        method: RtMethod::Commu,
        oracle: "split-brain",
        needs_view_change: true,
    },
    CtrlCanaryCase {
        name: "completion-lost-in-handoff",
        canary: CtrlCanary::HandoffDropsCompletions,
        method: RtMethod::Commu,
        oracle: "settled",
        needs_view_change: true,
    },
    CtrlCanaryCase {
        name: "volatile-compe-decision",
        canary: CtrlCanary::VolatileDecision,
        method: RtMethod::Compe,
        oracle: "settled",
        needs_view_change: false,
    },
];

/// The (smaller) configuration a canary hunt runs on: one update is
/// enough to manifest every seeded defect, which keeps each hunt well
/// inside the exhaustive budget.
pub fn canary_cfg(case: &CtrlCanaryCase) -> ModelCfg {
    // The failover defects need an election to manifest, so their
    // hunts run on the exact view-change sweep configuration; the
    // others use the standard configuration cut to one update.
    let mut cfg = if case.needs_view_change {
        ModelCfg::view_change(case.method)
    } else {
        let mut cfg = ModelCfg::standard(case.method);
        cfg.workload.truncate(1);
        cfg.decisions.truncate(1);
        cfg
    };
    cfg.decisions.retain(|(et, _)| *et == EtId(1));
    cfg.canary = Some(case.canary);
    cfg
}

/// Hunts for the defect: explores the canary configuration and
/// returns the first failing execution, or `None` if the sweep came
/// back clean (the canary escaped — a checker bug).
pub fn expose(case: &CtrlCanaryCase, max_states: u64) -> Option<Box<ModelFailure>> {
    let cfg = canary_cfg(case);
    match explore(&cfg, max_states) {
        Sweep::Failed(failure) => Some(failure),
        Sweep::Clean(_) | Sweep::BudgetExceeded(_) => None,
    }
}
