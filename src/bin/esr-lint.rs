//! `esr-lint`: token-level determinism lint for the simulation and
//! replica-control crates.
//!
//! The simulator's reproducibility contract (same seed ⇒ same trace)
//! and the explorer's schedule replay both die silently the moment
//! wall-clock time, an OS-seeded RNG, or hash-order iteration leaks
//! into a deterministic path. The borrow checker cannot see that, so
//! this lint scans the source:
//!
//! * **nondeterministic-time** — `SystemTime` and `Instant::now` are
//!   rejected in `crates/sim` and `crates/replica` — which holds the
//!   pure control-plane step machine `ctrl.rs` (simulated time comes
//!   from `VirtualClock`; the step function is replayed verbatim by
//!   `esr-model`, so *any* ambient input breaks the checker's fidelity
//!   guarantee).
//! * **thread-rng** — `thread_rng`/`ThreadRng`/`from_entropy` likewise
//!   (randomness comes from `DetRng` seeds).
//! * **protocol scope** (`crates/net`) — the transport may read real
//!   time for I/O deadlines (`Instant::now` is allowed: reactor wait
//!   timeouts and retransmit backoff are wall-clock by nature), but
//!   protocol-*state* decisions must not depend on `SystemTime` or
//!   ambient randomness, so those tokens are banned. The reactor's
//!   retransmit backoff is deliberately jitter-free (deterministic
//!   doubling, 20 ms → 1 s), so no allowlist entry is needed today;
//!   adding jitter later requires an explicit
//!   `// lint: allow(thread-rng)` at the draw site.
//! * **hashmap-iteration** — iterating a `HashMap` inside a function
//!   whose name suggests a snapshot/serialization path (`snapshot*`,
//!   `serialize*`, `to_bytes*`, `encode*`, `digest*`) in any workspace
//!   crate: hash order varies per process, so anything user-visible or
//!   compared across replicas must round through a `BTreeMap` (see
//!   `esr_storage::store::to_btree`).
//!
//! A finding is suppressed by a `// lint: allow(<rule>)` comment on the
//! same line or the line directly above. Exit status is non-zero when
//! any finding survives.

use std::fmt;
use std::path::{Path, PathBuf};

/// Paths where wall-clock and OS randomness are banned outright.
const TIME_RNG_SCOPES: [&str; 2] = ["crates/sim/src", "crates/replica/src"];

/// Paths where protocol state must stay deterministic but I/O timing
/// is real: `SystemTime` and ambient RNGs are banned, `Instant::now`
/// is not (readiness-wait deadlines and retransmit backoff legitimately read the
/// monotonic clock).
const PROTOCOL_SCOPES: [&str; 1] = ["crates/net/src"];

/// Function-name prefixes marking snapshot/serialization paths.
const SNAPSHOT_FNS: [&str; 5] = ["snapshot", "serialize", "to_bytes", "encode", "digest"];

#[derive(Debug)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Strips `//` comments and the contents of string literals so tokens
/// inside them don't trip the scan (the allowlist is read separately).
fn code_of(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Is `needle` present as a whole token (not a substring of a larger
/// identifier)?
fn has_token(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before = code[..at].chars().next_back();
        let after = code[at + needle.len()..].chars().next();
        let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !word(before) && !word(after) {
            return true;
        }
        start = at + needle.len();
    }
    false
}

fn allowed(lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    lines[idx].contains(&marker) || (idx > 0 && lines[idx - 1].contains(&marker))
}

/// Names of local bindings and fields declared with a `HashMap` type in
/// this file (token-level: `foo: HashMap<`, `foo = HashMap::new`,
/// `foo: FastIdMap<`, `foo: Vec<HashMap<`).
fn hashmap_names(lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for raw in lines {
        let code = code_of(raw);
        for decl in ["HashMap<", "HashMap::new", "FastIdMap<", "Vec<HashMap<"] {
            if let Some(pos) = code.find(decl) {
                let head = &code[..pos];
                let head = head.trim_end_matches([':', '=', ' ', '\t']).trim_end();
                let name: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty()
                    && !name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    && name != "type"
                {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// The name of the function a `fn` line declares, if any.
fn fn_name(code: &str) -> Option<String> {
    let pos = code.find("fn ")?;
    if pos > 0 {
        let prev = code[..pos].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
    }
    let rest = &code[pos + 3..];
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

fn scan_file(path: &Path, content: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = content.lines().collect();
    let loc = path.to_string_lossy();
    let in_time_scope = TIME_RNG_SCOPES.iter().any(|s| loc.contains(s));
    let in_protocol_scope = PROTOCOL_SCOPES.iter().any(|s| loc.contains(s));

    // Pass 1: banned time / RNG tokens. The full deterministic scope
    // bans every ambient input; the protocol scope tolerates the
    // monotonic clock (I/O deadlines) but nothing else.
    type Ban = (&'static str, &'static str, &'static str);
    const FULL_BANS: [Ban; 5] = [
        (
            "SystemTime",
            "nondeterministic-time",
            "use the simulator's VirtualClock",
        ),
        (
            "Instant::now",
            "nondeterministic-time",
            "use the simulator's VirtualClock",
        ),
        ("thread_rng", "thread-rng", "use a seeded DetRng"),
        ("ThreadRng", "thread-rng", "use a seeded DetRng"),
        ("from_entropy", "thread-rng", "use a seeded DetRng"),
    ];
    const PROTOCOL_BANS: [Ban; 4] = [
        (
            "SystemTime",
            "nondeterministic-time",
            "protocol state must not read wall-clock time; \
             derive versions from client-supplied timestamps",
        ),
        ("thread_rng", "thread-rng", "seed any jitter explicitly"),
        ("ThreadRng", "thread-rng", "seed any jitter explicitly"),
        ("from_entropy", "thread-rng", "seed any jitter explicitly"),
    ];
    let bans: &[Ban] = if in_time_scope {
        &FULL_BANS
    } else if in_protocol_scope {
        &PROTOCOL_BANS
    } else {
        &[]
    };
    for (i, raw) in lines.iter().enumerate() {
        let code = code_of(raw);
        for (token, rule, hint) in bans {
            if has_token(&code, token) && !allowed(&lines, i, rule) {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule,
                    message: format!("`{token}` in a deterministic scope; {hint}"),
                });
            }
        }
    }

    // Pass 2: HashMap iteration inside snapshot/serialization
    // functions. Tracks brace depth to know which function a line
    // belongs to.
    let maps = hashmap_names(&lines);
    let mut fn_stack: Vec<(String, i64)> = Vec::new();
    let mut depth: i64 = 0;
    for (i, raw) in lines.iter().enumerate() {
        let code = code_of(raw);
        if let Some(name) = fn_name(&code) {
            fn_stack.push((name, depth));
        }
        let in_snapshot_fn = fn_stack
            .last()
            .is_some_and(|(n, _)| SNAPSHOT_FNS.iter().any(|p| n.starts_with(p)));
        if in_snapshot_fn {
            let iterates_map = maps.iter().any(|m| {
                [".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".drain("]
                    .iter()
                    .any(|call| code.contains(&format!("{m}{call}")))
                    || code.contains(&format!("in &{m}"))
                    || code.contains(&format!("in &mut {m}"))
            }) || code.contains("HashMap::iter")
                || code.contains("HashMap::keys")
                || code.contains("HashMap::values");
            if iterates_map && !allowed(&lines, i, "hashmap-iteration") {
                let fname = fn_stack.last().map(|(n, _)| n.as_str()).unwrap_or("?");
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "hashmap-iteration",
                    message: format!(
                        "HashMap iteration inside `{fname}` feeds a snapshot/serialization \
                         path; hash order is nondeterministic — collect through a BTreeMap"
                    ),
                });
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while fn_stack.last().is_some_and(|(_, d)| depth <= *d) {
                        fn_stack.pop();
                    }
                }
                _ => {}
            }
        }
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_owned());
    let root = PathBuf::from(root);
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Err(e) = walk(&crates_dir, &mut files) {
        eprintln!("esr-lint: cannot walk {}: {e}", crates_dir.display());
        return std::process::ExitCode::from(2);
    }
    files.sort();

    let mut findings = Vec::new();
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(content) => scan_file(f, &content, &mut findings),
            Err(e) => {
                eprintln!("esr-lint: cannot read {}: {e}", f.display());
                return std::process::ExitCode::from(2);
            }
        }
    }

    if findings.is_empty() {
        println!("esr-lint: {} files clean", files.len());
        std::process::ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("esr-lint: {} finding(s) in {} files", findings.len(), files.len());
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(path: &str, content: &str) -> Vec<String> {
        let mut out = Vec::new();
        scan_file(Path::new(path), content, &mut out);
        out.iter().map(|f| format!("{}:{}", f.rule, f.line)).collect()
    }

    #[test]
    fn flags_wall_clock_in_sim() {
        let hits = scan_str(
            "crates/sim/src/clock.rs",
            "fn now() -> u64 {\n    let t = std::time::Instant::now();\n    0\n}\n",
        );
        assert_eq!(hits, ["nondeterministic-time:2"]);
    }

    #[test]
    fn allows_monotonic_clock_in_net() {
        // The transport owns real I/O deadlines: Instant::now is fine.
        let hits = scan_str(
            "crates/net/src/lib.rs",
            "fn now() { let _ = std::time::Instant::now(); }\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn allows_wall_clock_outside_all_scopes() {
        let hits = scan_str(
            "crates/workload/src/lib.rs",
            "fn now() { let _ = std::time::SystemTime::now(); }\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn flags_wall_clock_and_rng_in_net() {
        let hits = scan_str(
            "crates/net/src/reactor.rs",
            "fn stamp() {\n    let t = SystemTime::now();\n    let r = thread_rng();\n}\n",
        );
        assert_eq!(hits, ["nondeterministic-time:2", "thread-rng:3"]);
    }

    #[test]
    fn flags_entropy_seeding_in_net() {
        let hits = scan_str(
            "crates/net/src/link.rs",
            "fn jitter() {\n    let rng = SmallRng::from_entropy();\n}\n",
        );
        assert_eq!(hits, ["thread-rng:2"]);
    }

    #[test]
    fn pure_step_machine_bans_even_monotonic_time() {
        let hits = scan_str(
            "crates/replica/src/ctrl.rs",
            "fn step() {\n    let t = std::time::Instant::now();\n}\n",
        );
        assert_eq!(hits, ["nondeterministic-time:2"]);
    }

    #[test]
    fn flags_thread_rng() {
        let hits = scan_str(
            "crates/replica/src/x.rs",
            "fn pick() {\n    let mut rng = thread_rng();\n}\n",
        );
        assert_eq!(hits, ["thread-rng:2"]);
    }

    #[test]
    fn allow_comment_suppresses() {
        let hits = scan_str(
            "crates/sim/src/x.rs",
            "// lint: allow(nondeterministic-time)\nlet t = SystemTime::now();\n",
        );
        assert!(hits.is_empty());
        let hits = scan_str(
            "crates/sim/src/x.rs",
            "let t = SystemTime::now(); // lint: allow(nondeterministic-time)\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn comment_and_string_tokens_ignored() {
        let hits = scan_str(
            "crates/sim/src/x.rs",
            "// SystemTime is banned here\nlet s = \"thread_rng\";\n",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn flags_hashmap_iteration_in_snapshot() {
        let src = "\
struct S { values: HashMap<u64, u64> }
impl S {
    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.values.iter().map(|(k, v)| (*k, *v)).collect()
    }
}
";
        let hits = scan_str("crates/storage/src/x.rs", src);
        assert_eq!(hits, ["hashmap-iteration:4"]);
    }

    #[test]
    fn hashmap_iteration_outside_snapshot_ok() {
        let src = "\
struct S { values: HashMap<u64, u64> }
impl S {
    fn apply_all(&mut self) {
        for (_k, v) in &mut self.values { *v += 1; }
    }
}
";
        assert!(scan_str("crates/storage/src/x.rs", src).is_empty());
    }

    #[test]
    fn btree_snapshot_is_clean() {
        let src = "\
struct S { values: BTreeMap<u64, u64> }
impl S {
    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.values.iter().map(|(k, v)| (*k, *v)).collect()
    }
}
";
        assert!(scan_str("crates/storage/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_fn_scoping_ends_at_brace() {
        let src = "\
struct S { m: HashMap<u64, u64> }
impl S {
    fn snapshot(&self) -> usize { self.m.len() }
    fn tally(&self) -> usize {
        self.m.iter().count()
    }
}
";
        assert!(scan_str("crates/storage/src/x.rs", src).is_empty());
    }
}
