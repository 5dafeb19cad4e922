//! The driver's own spans: one per call it makes into a layer, kept in
//! memory and written out once when the traced run ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the id of the span that caused it
/// (0 = a root); spans of one request share `op` (the ET id for an
/// update).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log with a time origin of its own.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; returns its id (ids start at 1).
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Mean duration in nanoseconds of the spans called `name`
    /// (0 when there are none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            return 0.0;
        }
        d.iter().sum::<u64>() as f64 / d.len() as f64
    }
}

/// Writes the recorders as one JSON document: per recorder a `names`
/// table and `spans` rows of `[id, name, parent, op, start_ns, end_ns]`.
pub fn write_trace(path: &Path, workload: &str, logs: &[(&str, &Recorder)]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\": \"{workload}\", \"recorders\": [")?;
    for (i, (label, rec)) in logs.iter().enumerate() {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = String::new();
        for (id, s) in rec.spans().iter().enumerate() {
            let name = match names.iter().position(|n| *n == s.name) {
                Some(at) => at,
                None => {
                    names.push(s.name);
                    names.len() - 1
                }
            };
            let _ = write!(
                rows,
                "{}[{}, {name}, {}, {}, {}, {}]",
                if id > 0 { ",\n" } else { "" },
                id + 1,
                s.parent,
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        write!(
            out,
            "{}{{\"recorder\": \"{label}\", \"names\": [{}], \
             \"columns\": [\"id\", \"name\", \"parent\", \"op\", \"start_ns\", \"end_ns\"], \
             \"spans\": [\n{rows}]}}",
            if i > 0 { ",\n" } else { "" },
            names.join(", ")
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_and_serialize() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.begin("update", 0, 7);
        let v = rec.time("rpc.submit", root, 7, || 5);
        rec.end(root);
        assert_eq!(v, 5);
        let [parent, child] = rec.spans() else {
            panic!("two spans expected")
        };
        assert_eq!((parent.parent, child.parent, child.op), (0, 1, 7));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        assert_eq!(rec.durations("rpc.submit").len(), 1);
        assert_eq!(rec.mean_ns("absent"), 0.0);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write_trace(&path, "w", &[("client-a", &rec), ("probe", &rec)]).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let recs = doc.get("recorders").unwrap().as_arr().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("spans").unwrap().as_arr().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
