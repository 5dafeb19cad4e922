//! `esrbench`: the gating benchmark for a live three-site `esrd`
//! cluster. See `benchmark/README.md`.
//!
//! ```text
//! esrbench --workload W --seed N --seconds S --trace 0|1 [--self-test]
//! esrbench [all] [--seed N] [--seconds S] [--smoke]
//! esrbench compare A B
//! ```
//! The first two forms take `--esrd PATH` (the daemon binary, default
//! `target/release/esrd`) and `--out DIR` (default `benchmark/out`).

mod calib;
mod cluster;
mod compare;
mod cpu;
mod json;
mod layers;
mod load;
mod metrics;
mod oracle;
mod plan;
mod probe;
mod procfs;
mod prom;
mod run;
mod stats;
mod trace;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::SystemTime;

use json::{obj, Json};
use plan::{Workload, WORKLOADS};
use run::{Outcome, RunConfig};

const USAGE: &str = "usage: esrbench --workload <name> --seed <n> --seconds <n> --trace <0|1> \
                     [--self-test] [--esrd <path>] [--out <dir>]\n       \
                     esrbench [all] [--seed <n>] [--seconds <n>] [--smoke] [--esrd <path>] [--out <dir>]\n       \
                     esrbench compare <dir-a> <dir-b>";

fn usage_error(msg: &str) -> ! {
    eprintln!("esrbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Refuses to measure a daemon that is not the one the sources
/// describe: `esrd` must be newer than every file cargo recorded as
/// one of its inputs (the `.d` file beside it).
fn check_fresh(esrd: &Path) -> io::Result<()> {
    let stale =
        |why: String| io::Error::other(format!("{why}; run benchmark/run.sh, which builds it"));
    let built = std::fs::metadata(esrd)
        .and_then(|m| m.modified())
        .map_err(|e| stale(format!("{}: {e}", esrd.display())))?;
    let dep_file = esrd.with_extension("d");
    let deps = std::fs::read_to_string(&dep_file)
        .map_err(|e| stale(format!("{}: {e}", dep_file.display())))?;
    let inputs = deps.split_once(": ").map_or("", |(_, inputs)| inputs);
    for input in inputs.split_ascii_whitespace() {
        let modified = std::fs::metadata(input).and_then(|m| m.modified());
        if modified.unwrap_or(SystemTime::UNIX_EPOCH) > built {
            return Err(stale(format!("{} is older than {input}", esrd.display())));
        }
    }
    Ok(())
}

/// Prints a run: one `workload metric value unit` line per figure,
/// failures on stderr, then the result object as the last line.
fn report(cfg: &RunConfig, outcome: &Outcome) -> Json {
    let name = cfg.workload.name;
    for (d, v) in outcome.metrics.iter() {
        println!("{name} {} {v} {}", d.name, d.unit);
    }
    for n in &outcome.notes {
        println!("{name} {} {} {}", n.name, n.value, n.unit);
    }
    for f in &outcome.failures {
        eprintln!("FAIL {name}: {f}");
    }
    let result = obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{}", result.render());
    result
}

/// Runs `cfg`, prints it, and files the result under the output
/// directory as `<workload>.json` (untraced) or `<workload>.layers.json`.
fn run_and_file(cfg: &RunConfig) -> io::Result<bool> {
    let outcome = run::run(cfg)?;
    let mut result = report(cfg, &outcome);
    if let Json::Obj(members) = &mut result {
        members.insert("workload".into(), Json::Str(cfg.workload.name.into()));
        members.insert("seed".into(), Json::Num(cfg.seed as f64));
        members.insert("seconds".into(), Json::Num(cfg.seconds as f64));
        members.insert("trace".into(), Json::Num(f64::from(u8::from(cfg.trace))));
        let notes = outcome.notes.iter().map(|n| {
            let entry = obj([
                ("value", Json::Num(n.value)),
                ("unit", Json::Str(n.unit.into())),
            ]);
            (n.name.to_owned(), entry)
        });
        members.insert("notes".into(), Json::Obj(notes.collect()));
    }
    let suffix = if cfg.trace { "layers.json" } else { "json" };
    let path = cfg.out_dir.join(format!("{}.{suffix}", cfg.workload.name));
    std::fs::write(path, result.render() + "\n")?;
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().is_some_and(|a| a == "compare") {
        let dirs: Vec<PathBuf> = args.skip(1).map(PathBuf::from).collect();
        let [a, b] = dirs.as_slice() else {
            usage_error("compare takes two directories");
        };
        return match compare::compare(a, b, Path::new("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("esrbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `all`, which is also what no arguments at all mean: every
    // workload, untraced then traced.
    let all = args.next_if(|a| a == "all").is_some();

    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut self_test = false;
    let mut esrd = PathBuf::from("target/release/esrd");
    let mut out_dir = PathBuf::from("benchmark/out");
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        let number = |text: String| -> u64 {
            text.parse()
                .unwrap_or_else(|_| usage_error(&format!("{arg}: '{text}' is not a number")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::by_name(&name)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => seed = number(value()),
            "--seconds" => seconds = number(value()).max(1),
            "--trace" => trace = number(value()) != 0,
            "--self-test" => self_test = true,
            "--smoke" => seconds = 1,
            "--esrd" => esrd = PathBuf::from(value()),
            "--out" => out_dir = PathBuf::from(value()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    if all && workload.is_some() {
        usage_error("'all' runs every workload; it takes no --workload");
    }

    cluster::install_signal_handlers();
    let cpu = match check_fresh(&esrd).and_then(|()| cpu::claim_one()) {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("esrbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "esrbench: driver and daemons on cpu {cpu}; no message delay is injected, so latency is \
         processor and loopback time only, in seconds of the reference box (README, \"Calibration\")"
    );
    let config = |workload, trace| RunConfig {
        workload,
        seed,
        seconds,
        trace,
        self_test,
        esrd: esrd.clone(),
        out_dir: out_dir.clone(),
    };
    // One workload one way, as the acceptance driver asks for it, or
    // every workload both ways.
    let runs: Vec<RunConfig> = match workload {
        Some(w) => vec![config(w, trace)],
        None => WORKLOADS
            .iter()
            .flat_map(|w| [config(w, false), config(w, true)])
            .collect(),
    };
    let mut all_correct = true;
    for cfg in &runs {
        match run_and_file(cfg) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("esrbench: {}: {e}", cfg.workload.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
