//! The `esr-check` binary: canary self-test, then clean sweep.
//!
//! ```text
//! esr-check [--schedules N] [--seed S] [--skip-canaries]
//! esr-check --model [--model-budget N]
//! ```
//!
//! Default mode — the schedule explorer: phase 1 proves the checker
//! catches every seeded defect class (two shim-level harnesses with
//! controls, three runtime fault injections). Phase 2 sweeps the
//! unmutated runtime across `N` schedules split over the five
//! replica-control methods, running the race and lock-order detectors
//! on every trace and the ESR oracles — the trace certifier among
//! them — on every run. Exit code 0 means
//! every canary was caught and the sweep was clean; the summary ends
//! with a digest that is a pure function of `(--seed, --schedules)`.
//!
//! `--model` runs `esr-model` instead: the exhaustive control-plane
//! explorer over the pure `NodeCore` step function. Phase 1 hunts the
//! seven seeded control-plane defects (the two failover defects —
//! split-brain double-coordinator and completion-lost-in-handoff —
//! run with a one-suspicion budget so the explorer can drive a view
//! change). Phase 2 sweeps the canary-size configuration (one update,
//! crash + dup budgets) and the standard two-update configuration
//! (single-fault passes) clean for every method, then the one-update
//! view-change configuration for COMMU (the other methods' failover
//! sweeps are the ignored full tier of `model_check.rs`).

use std::process::ExitCode;

use esr_check::canary::{self, RT_CANARIES};
use esr_check::explore::{run_scheduled, schedule_matrix};
use esr_check::model;
use esr_check::model::explore::{explore, Sweep};
use esr_check::model::ModelCfg;
use esr_check::oracles;
use esr_check::race::{LockOrderDetector, RaceDetector};
use esr_runtime::{RtCanary, RtMethod};

const METHODS: [RtMethod; 5] = [
    RtMethod::Ordup,
    RtMethod::Commu,
    RtMethod::Ritu,
    RtMethod::RituMv,
    RtMethod::Compe,
];

/// Schedules spent per runtime canary before declaring it missed.
const CANARY_BUDGET: u64 = 48;

struct Args {
    schedules: u64,
    seed: u64,
    skip_canaries: bool,
    model: bool,
    model_budget: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        schedules: 200,
        seed: 1,
        skip_canaries: false,
        model: false,
        model_budget: 40_000_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--schedules" => {
                let v = it.next().ok_or("--schedules needs a value")?;
                args.schedules = v.parse().map_err(|e| format!("--schedules: {e}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--skip-canaries" => args.skip_canaries = true,
            "--model" => args.model = true,
            "--model-budget" => {
                let v = it.next().ok_or("--model-budget needs a value")?;
                args.model_budget = v.parse().map_err(|e| format!("--model-budget: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: esr-check [--schedules N] [--seed S] [--skip-canaries]\n\
                     \x20      esr-check --model [--model-budget N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// FNV-1a, folded over the sweep's observable outcomes: same seed and
/// budget must print the same digest on every run.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn mix_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn run_canaries() -> bool {
    let mut ok = true;
    println!("== canary self-test ==");
    for t in canary::shim_self_tests() {
        println!(
            "  [{}] {}: {}",
            if t.pass { "PASS" } else { "FAIL" },
            t.name,
            t.detail
        );
        ok &= t.pass;
    }
    for case in &RT_CANARIES {
        match canary::expose(case, 0xC0FF_EE00, CANARY_BUDGET) {
            Some((n, findings)) => {
                println!(
                    "  [PASS] {}: flagged by `{}` after {n} schedule(s): {}",
                    case.name, case.oracle, findings[0]
                );
            }
            None => {
                println!(
                    "  [FAIL] {}: no `{}` finding in {CANARY_BUDGET} schedules",
                    case.name, case.oracle
                );
                ok = false;
            }
        }
    }
    ok
}

fn run_sweep(seed: u64, schedules: u64, digest: &mut Digest) -> u64 {
    println!("== clean sweep: {schedules} schedules over {} methods ==", METHODS.len());
    let mut findings_total = 0u64;
    let per_method = (schedules / METHODS.len() as u64).max(1);
    for (mi, &method) in METHODS.iter().enumerate() {
        let matrix = schedule_matrix(seed.wrapping_add(mi as u64 * 0x1000), per_method);
        let expected = oracles::expected_threads(method);
        let mut steps_sum = 0u64;
        let mut method_findings = 0u64;
        for spec in matrix {
            let explored = run_scheduled(spec, expected, || {
                oracles::run_workload(method, RtCanary::None)
            });
            steps_sum += explored.steps;
            digest.mix(explored.steps);
            if explored.forced_stop {
                method_findings += 1;
                println!(
                    "  [{method:?}] FORCED STOP under seed {:#x} ({:?}) after {} steps — \
                     schedule wedged or ran away",
                    spec.seed, spec.policy, explored.steps
                );
            }
            for f in oracles::check(&explored.value) {
                method_findings += 1;
                digest.mix_str(f.oracle);
                println!("  [{method:?}] oracle finding under seed {:#x}: {f}", spec.seed);
            }
            for f in RaceDetector::analyze(&explored.trace)
                .into_iter()
                .chain(LockOrderDetector::analyze(&explored.trace))
            {
                method_findings += 1;
                println!("  [{method:?}] trace finding under seed {:#x}: {f}", spec.seed);
            }
        }
        digest.mix(method_findings);
        println!(
            "  [{method:?}] {per_method} schedules, {steps_sum} scheduler steps, \
             {method_findings} finding(s)"
        );
        findings_total += method_findings;
    }
    findings_total
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

/// The `--model` mode: control-plane canary hunts, then exhaustive
/// clean sweeps (canary-size with the full fault budget, standard size
/// in single-fault passes).
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
    for method in METHODS {
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esr-check: {e}");
            return ExitCode::from(2);
        }
    };

    if args.model {
        return run_model(args.model_budget);
    }

    let canaries_ok = if args.skip_canaries {
        println!("== canary self-test skipped ==");
        true
    } else {
        run_canaries()
    };

    let mut digest = Digest::new();
    digest.mix(args.seed);
    digest.mix(args.schedules);
    let findings = run_sweep(args.seed, args.schedules, &mut digest);

    println!("== summary ==");
    println!(
        "  canaries: {}; sweep findings: {findings}; digest: {:016x}",
        if canaries_ok { "all caught" } else { "MISSED" },
        digest.0
    );
    if canaries_ok && findings == 0 {
        println!("  verdict: CLEAN");
        ExitCode::SUCCESS
    } else {
        println!("  verdict: DEFECTS");
        ExitCode::FAILURE
    }
}
