//! Terminal-state safety oracles for the control-plane model.
//!
//! Judged at every terminal state the explorer reaches (all work
//! submitted and decided, every link queue drained), twice: once
//! as-is, and once more after crash-recovering every site — including
//! the acting coordinator — and draining again, the
//! recovery-idempotence pass. The convergence oracle follows Perrin et
//! al.'s update consistency: once delivery quiesces, every replica
//! must equal the reference produced by one sequential application of
//! the workload.
//!
//! Everything that is a property of a site's history of MSet
//! applications — ORDUP order, VTNC visibility, one COMPE outcome per
//! ET, one completion announcement per incarnation, cross-site
//! agreement — is judged by [`certify`] over each node's current
//! incarnation trace, at every terminal and again after recovery; its
//! findings keep their clause names.
//!
//! Since views made the coordinator role movable, two more oracles
//! guard the handoff itself: at most one site may hold the coordinator
//! role for its installed view (`split-brain`), and the views a site
//! boots into and installs may only advance (`view-monotonicity`).

use std::collections::BTreeMap;

use esr_core::ids::{ObjectId, SiteId};
use esr_core::value::Value;
use esr_replica::mset::MSet;
use esr_runtime::state::SiteState;

use super::{ModelCfg, World};
use crate::certify::{certify, SiteTrace};

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct ModelFinding {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// What it saw.
    pub detail: String,
}

fn finding(oracle: &'static str, detail: String) -> ModelFinding {
    ModelFinding { oracle, detail }
}

/// The reference snapshot: one sequential, fault-free application of
/// the workload (and decisions) to a single fresh site.
pub fn reference_snapshot(cfg: &ModelCfg) -> BTreeMap<ObjectId, Value> {
    let mut s = SiteState::new(cfg.method, SiteId(1_000));
    for m in &cfg.workload {
        s.site_mut().deliver(m, &mut Vec::new());
    }
    for &(et, commit) in &cfg.decisions {
        if commit {
            s.site_mut().commit(et);
        } else {
            s.site_mut().abort(et);
        }
    }
    s.snapshot()
}

/// Full terminal judgment: safety oracles, then the
/// recovery-idempotence pass: crash + recover every site — the acting
/// coordinator included — drain, re-judge. The pass is staggered
/// (coordinator first, then the followers) because completion counts
/// and decisions are volatile by design: the rebooted coordinator
/// relearns them from follower re-announcements, and the rebooted
/// followers from the refreshed coordinator's snapshot. Crashing every
/// site at once would genuinely erase the decisions.
pub fn check_terminal(cfg: &ModelCfg, world: &mut World<'_>) -> Vec<ModelFinding> {
    let mut findings = check_safety(cfg, world, "");
    let coordinator = world
        .nodes
        .iter()
        .position(|n| n.node.core().coord.is_some())
        .unwrap_or(0);
    world.crash_recover(coordinator);
    if !world.drain() {
        findings.push(finding(
            "recovery-drain",
            "cluster failed to quiesce after coordinator recovery".into(),
        ));
        return findings;
    }
    for site in 0..cfg.sites {
        if site != coordinator {
            world.crash_recover(site);
        }
    }
    if !world.drain() {
        findings.push(finding(
            "recovery-drain",
            "cluster failed to quiesce after terminal-state recovery".into(),
        ));
        return findings;
    }
    findings.extend(check_safety(cfg, world, "post-recovery "));
    findings
}

/// The safety oracles at a quiescent state.
pub fn check_safety(cfg: &ModelCfg, world: &World<'_>, phase: &str) -> Vec<ModelFinding> {
    let mut findings = Vec::new();
    let reference = reference_snapshot(cfg);

    for (i, node) in world.nodes.iter().enumerate() {
        let core = node.node.core();
        // Perrin-style update consistency: quiesced replicas converge
        // to the sequential reference.
        let snap = core.state.snapshot();
        if snap != reference {
            findings.push(finding(
                "convergence",
                format!("{phase}site {i} snapshot {snap:?} != reference {reference:?}"),
            ));
        }
        // Nothing may be left held back, locked, or at risk once the
        // control plane has quiesced.
        if !core.state.settled() {
            findings.push(finding(
                "settled",
                format!("{phase}site {i} not settled at quiescence"),
            ));
        }
        // View changes: the coordinator role belongs to exactly the
        // site its installed view elects — a node holding a CoordCore
        // anywhere else (or an elected node without one) is the
        // split-brain double-coordinator failure mode.
        let elected = esr_runtime::ctrl::coordinator_of(core.view, cfg.sites);
        let holds_role = core.coord.is_some();
        if holds_role != (elected == SiteId(i as u64)) {
            findings.push(finding(
                "split-brain",
                format!(
                    "{phase}site {i} at view {} {} the coordinator role, \
                     but that view elects site {}",
                    core.view,
                    if holds_role { "holds" } else { "lacks" },
                    elected.raw()
                ),
            ));
        }
        // The recorded view only advances; a regression would
        // let a demoted coordinator resurrect an old incarnation.
        let views = node.view_history();
        if views.windows(2).any(|w| w[0] >= w[1]) {
            findings.push(finding(
                "view-monotonicity",
                format!("{phase}site {i} recorded a non-increasing view sequence {views:?}"),
            ));
        }
    }

    // The histories of MSet applications, per site and across sites.
    let traces: Vec<SiteTrace> = world
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| SiteTrace {
            site: i as u64,
            dropped: 0,
            events: node.host.events().iter().map(|(_, e)| e.clone()).collect(),
        })
        .collect();
    for f in certify(cfg.method, &traces) {
        findings.push(finding(f.check, format!("{phase}{}", f.located())));
    }

    // RITU-MV liveness floor: with every install report delivered, the
    // coordinator must have certified the full dense prefix.
    if cfg.method == esr_runtime::state::RtMethod::RituMv {
        let expected = cfg
            .workload
            .iter()
            .filter_map(MSet::max_version)
            .map(|v| v.time)
            .max();
        // The role may have moved: read the horizon from the acting
        // coordinator's ledger — the highest-view node holding a
        // CoordCore (a split-brain pair is flagged by its own oracle
        // above).
        let horizon = world
            .nodes
            .iter()
            .map(|n| n.node.core())
            .filter(|core| core.coord.is_some())
            .max_by_key(|core| core.view)
            .and_then(|core| core.evidence().vtnc())
            .map(|v| v.time);
        if horizon < expected {
            findings.push(finding(
                "vtnc-horizon",
                format!("{phase}coordinator horizon {horizon:?} < expected {expected:?}"),
            ));
        }
    }

    findings
}
