//! The `esr-check` binary: canary hunt, then clean sweeps — `esr-model`,
//! the exhaustive control-plane explorer over the pure `NodeCore` step
//! function.
//!
//! ```text
//! esr-check [--model-budget N]
//! ```
//!
//! Phase 1 hunts the nine seeded control-plane defects (the two
//! failover defects — split-brain double-coordinator and
//! completion-lost-in-handoff — run with a one-suspicion budget so the
//! explorer can drive a view change). Phase 2 sweeps the canary-size
//! configuration (one update, crash + dup budgets) and the standard
//! two-update configuration (single-fault passes) clean for every
//! method, then the one-update view-change configuration for COMMU (the
//! other methods' failover sweeps are the ignored full tier of
//! `model_check.rs`). Exit code 0 means every canary was caught by its
//! expected oracle and every sweep was clean.

use std::process::ExitCode;

use esr_check::model;
use esr_check::model::explore::{explore, Sweep};
use esr_check::model::ModelCfg;
use esr_runtime::RtMethod;

/// Parses the command line into the per-sweep state budget.
fn parse_args() -> Result<u64, String> {
    let mut budget = 200_000_000;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model-budget" => {
                let v = it.next().ok_or("--model-budget needs a value")?;
                budget = v.parse().map_err(|e| format!("--model-budget: {e}"))?;
            }
            "--help" | "-h" => {
                println!("usage: esr-check [--model-budget N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(budget)
}

/// Runs one model sweep, printing the outcome. Returns `true` on a
/// clean exhaustive pass.
fn model_sweep(label: &str, cfg: &ModelCfg, budget: u64) -> bool {
    match explore(cfg, budget) {
        Sweep::Clean(stats) => {
            println!(
                "  [PASS] {label}: clean; {} executions, {} states, depth {}",
                stats.executions, stats.states, stats.max_depth
            );
            true
        }
        Sweep::Failed(failure) => {
            println!("  [FAIL] {label}: oracle failure");
            for f in &failure.findings {
                println!("         {}: {}", f.oracle, f.detail);
            }
            println!("         schedule: {:?}", failure.schedule);
            false
        }
        Sweep::BudgetExceeded(stats) => {
            println!(
                "  [FAIL] {label}: budget exceeded after {} states ({} executions)",
                stats.states, stats.executions
            );
            false
        }
    }
}

/// Control-plane canary hunts, then exhaustive clean sweeps
/// (canary-size with the full fault budget, standard size in
/// single-fault passes).
fn run_model(budget: u64) -> ExitCode {
    let mut ok = true;
    println!("== esr-model: control-plane canary hunt ==");
    for case in &model::canary::CTRL_CANARIES {
        match model::canary::expose(case, budget) {
            Some(failure) => {
                let by_expected = failure.findings.iter().any(|f| f.oracle == case.oracle);
                let caught = failure
                    .findings
                    .first()
                    .map(|f| f.oracle)
                    .unwrap_or("none");
                if by_expected {
                    println!(
                        "  [PASS] {}: caught by `{}` in a {}-transition schedule",
                        case.name,
                        case.oracle,
                        failure.schedule.len()
                    );
                } else {
                    println!(
                        "  [FAIL] {}: caught, but by `{caught}` instead of `{}`",
                        case.name, case.oracle
                    );
                    ok = false;
                }
            }
            None => {
                println!("  [FAIL] {}: escaped the exhaustive sweep", case.name);
                ok = false;
            }
        }
    }
    println!("== esr-model: clean sweeps ==");
    for method in RtMethod::ALL {
        let mut small = ModelCfg::standard(method);
        small.workload.truncate(1);
        small.decisions.retain(|(et, _)| small.workload.iter().any(|m| m.et == *et));
        ok &= model_sweep(&format!("{method:?} 1-update, crash+dup"), &small, budget);
        for (crashes, dups) in [(1usize, 0usize), (0, 1)] {
            let mut cfg = ModelCfg::standard(method);
            cfg.max_crashes = crashes;
            cfg.max_dups = dups;
            let label = format!("{method:?} 2-update, {crashes} crash {dups} dup");
            ok &= model_sweep(&label, &cfg, budget);
        }
    }
    // The failover sweep: one update racing one coordinator suspicion
    // (plus a volatile-loss crash), exercising the whole
    // view-change/handoff machinery under the split-brain and
    // view-monotonicity oracles and the certifier's
    // no-duplicate-complete clause. Run for COMMU
    // only: elections interleave so richly that one method is minutes
    // of search, and COMMU's config is the one the canary discipline
    // requires clean (both failover canaries hunt in it). The
    // method-plane evidence variants (ORDUP holds, RITU-MV horizons,
    // COMPE decisions crossing a handoff) are the ignored
    // `view_change_configs_sweep_clean` tier:
    // `cargo test -p esr-check --release --test model_check -- --ignored`.
    let vc = ModelCfg::view_change(RtMethod::Commu);
    ok &= model_sweep("Commu 1-update, view-change", &vc, budget);
    println!("== summary ==");
    if ok {
        println!("  verdict: CLEAN");
        ExitCode::SUCCESS
    } else {
        println!("  verdict: DEFECTS");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(budget) => run_model(budget),
        Err(e) => {
            eprintln!("esr-check: {e}");
            ExitCode::from(2)
        }
    }
}
