//! `esrbench compare A B`: the noise-aware regression check.
//!
//! `A` (the parent) and `B` (the change) are directories holding result
//! files of untraced runs — as many as were made, at least three per
//! workload and side, anywhere below the directory. One row is printed
//! per workload × end-to-end metric with both medians and quartiles
//! and a verdict against the bound `BENCHMARK.json` fixes:
//!
//! - `unresolved`: either side's interquartile range exceeds the bound
//!   (as a share of its median), so the runs cannot tell;
//! - `worse` / `better`: B's median is worse / better than A's by more
//!   than the bound;
//! - `same`: anything else.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::plan::WORKLOADS;
use crate::stats::{iqr_share, median, quartiles};

/// Runs needed per workload and side before a median means anything.
const MIN_RUNS: usize = 3;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn gates(doc: &Json) -> Option<Vec<Gate>> {
    doc.get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some(Gate {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                higher_is_better: match m.get("better")?.as_str()? {
                    "higher" => true,
                    "lower" => false,
                    _ => return None,
                },
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// `workload → metric → one value per untraced run found below `dir`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(dir: &Path, runs: &mut Runs) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, runs)?;
            continue;
        }
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        // Anything that is not an untraced result (traces, layer
        // results, stray files) is passed over.
        let Some(doc) = Json::parse(&std::fs::read_to_string(&path)?) else {
            continue;
        };
        let (Some(workload), Some(0.0), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("trace").and_then(Json::as_f64),
            doc.get("metrics").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (name, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(())
}

/// `v` with about four significant digits.
fn short(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 10.0 => format!("{v:.2}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

/// The verdict on one metric of one workload.
pub fn verdict(gate: &Gate, a: &[f64], b: &[f64]) -> &'static str {
    let spread = |v: &[f64]| iqr_share(v).unwrap_or(f64::INFINITY);
    if spread(a) > gate.bound || spread(b) > gate.bound {
        return "unresolved";
    }
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse, as a share of A.
    let worse_by = if gate.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs();
    if worse_by > gate.bound {
        "worse"
    } else if worse_by < -gate.bound {
        "better"
    } else {
        "same"
    }
}

/// Prints the comparison table; `Ok(false)` when any row reads `worse`.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> io::Result<bool> {
    let doc = Json::parse(&std::fs::read_to_string(benchmark_json)?)
        .ok_or_else(|| invalid(format!("{} is not JSON", benchmark_json.display())))?;
    let gates = gates(&doc)
        .ok_or_else(|| invalid(format!("{}: bad end_to_end list", benchmark_json.display())))?;
    let (mut runs_a, mut runs_b) = (Runs::new(), Runs::new());
    collect(a, &mut runs_a)?;
    collect(b, &mut runs_b)?;

    println!(
        "{:<15} {:<27} {:>5} {:>30} {:>30}  verdict",
        "workload", "metric", "bound", "A: median [q1, q3] (n)", "B: median [q1, q3] (n)"
    );
    let mut no_worse = true;
    for w in &WORKLOADS {
        for gate in &gates {
            let values = |runs: &Runs, side: &Path| -> io::Result<Vec<f64>> {
                let v = runs
                    .get(w.name)
                    .and_then(|m| m.get(&gate.name))
                    .cloned()
                    .unwrap_or_default();
                if v.len() < MIN_RUNS {
                    return Err(invalid(format!(
                        "{}: {} runs of {} report {}, need at least {MIN_RUNS}",
                        side.display(),
                        v.len(),
                        w.name,
                        gate.name
                    )));
                }
                Ok(v)
            };
            let (va, vb) = (values(&runs_a, a)?, values(&runs_b, b)?);
            let cell = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v).unwrap_or([f64::NAN; 3]);
                let (m, q1, q3) = (short(median(v)), short(q1), short(q3));
                format!("{m} [{q1}, {q3}] ({})", v.len())
            };
            let verdict = verdict(gate, &va, &vb);
            no_worse &= verdict != "worse";
            println!(
                "{:<15} {:<27} {:>4.0}% {:>30} {:>30}  {verdict}",
                w.name,
                format!("{} [{}]", gate.name, gate.unit),
                gate.bound * 100.0,
                cell(&va),
                cell(&vb),
            );
        }
    }
    Ok(no_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher_is_better: bool) -> Gate {
        Gate {
            name: "m".into(),
            unit: "us".into(),
            higher_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5];
        let up20 = [120.0, 121.0, 119.0, 120.5];
        let up5 = [105.0, 106.0, 104.0, 105.5];
        assert_eq!(verdict(&gate(false), &base, &up20), "worse");
        assert_eq!(verdict(&gate(true), &base, &up20), "better");
        assert_eq!(verdict(&gate(false), &up20, &base), "better");
        assert_eq!(verdict(&gate(false), &base, &up5), "same");
        // A side whose quartiles are wider apart than the bound cannot
        // resolve a difference of that size.
        let noisy = [80.0, 100.0, 125.0, 140.0];
        assert_eq!(verdict(&gate(false), &base, &noisy), "unresolved");
        assert_eq!(verdict(&gate(false), &noisy, &up20), "unresolved");
    }

    #[test]
    fn reads_result_sets_and_flags_a_regression() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        let gates_doc = r#"{"end_to_end": [
            {"name": "tput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#;
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("BENCHMARK.json"), gates_doc).unwrap();
        for (side, scale) in [("a", 1.0), ("b", 0.8)] {
            for run in 0..3 {
                let dir = root.join(side).join(format!("run{run}"));
                std::fs::create_dir_all(&dir).unwrap();
                for w in &WORKLOADS {
                    let doc = format!(
                        r#"{{"workload": "{}", "trace": 0, "metrics": {{"tput_ops_s": {{"value": {}, "unit": "ops/s"}}}}}}"#,
                        w.name,
                        scale * (1000.0 + f64::from(run))
                    );
                    std::fs::write(dir.join(format!("{}.json", w.name)), doc).unwrap();
                }
                // Layer results and traces in the same place are ignored.
                std::fs::write(
                    dir.join("x.layers.json"),
                    r#"{"workload": "x", "trace": 1}"#,
                )
                .unwrap();
                std::fs::write(dir.join("trace-x.json"), "not json").unwrap();
            }
        }
        let bench = root.join("BENCHMARK.json");
        assert!(compare(&root.join("a"), &root.join("a"), &bench).unwrap());
        assert!(!compare(&root.join("a"), &root.join("b"), &bench).unwrap());
        assert!(compare(&root.join("b"), &root.join("a"), &bench).unwrap());
        std::fs::remove_dir_all(root.join("b").join("run2")).unwrap();
        assert!(compare(&root.join("a"), &root.join("b"), &bench).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
