//! `esrctl` — command-line client for a running `esrd` site daemon.
//!
//! ```text
//! esrctl --dir /tmp/cluster --site 0 status
//! esrctl --dir /tmp/cluster --site 0 submit --et 1 7 incr 5
//! esrctl --dir /tmp/cluster --site 0 query 7
//! esrctl --dir /tmp/cluster --site 0 decide 1 commit
//! esrctl --dir /tmp/cluster --site 0 metrics
//! esrctl --dir /tmp/cluster --site 0 trace
//! ```
//!
//! Talks the client plane of the wire protocol via
//! [`esr_runtime::RpcClient`]: submit update ETs, run bounded-epsilon
//! queries, dump replica snapshots, scrape the site's metrics and typed
//! event ring, and issue COMPE decisions. ET/sequence stamping is the
//! caller's job (`--et`, `--seq`): the daemons are deliberately
//! stamp-agnostic.

use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use esr_core::ids::{ClientId, EtId, ObjectId, SeqNo, SiteId, VersionTs};
use esr_core::op::{ObjectOp, Operation};
use esr_core::value::Value;
use esr_replica::mset::MSet;
use esr_runtime::RpcClient;

const USAGE: &str = "\
usage: esrctl --dir <path> --site <i> <command>
commands:
  status
  snapshot
  checkpoint
  metrics
  trace
  spans <et> [--skeleton]
      scrapes every site's event ring (discovered from the cluster
      directory; --site is ignored) and prints the ET's merged causal
      timeline plus a critical-path latency breakdown; --skeleton
      drops timestamps for deterministic comparison
  query <object>... [--epsilon <n>]
  submit --et <n> [--seq <n>] [--client <id> --req <n>] <object> <op> <args>
      ops: write <int> | incr <n> | decr <n> | mul <n>
           | tswrite <time> <client> <int>
      --client/--req identify the request for exactly-once retries:
      a resubmit with the same pair returns the original et
  decide <et> <commit|abort>";

fn fail(msg: &str) -> ! {
    eprintln!("esrctl: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("bad {what}: '{s}'")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<PathBuf> = None;
    let mut site: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();

    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = it.next().map(PathBuf::from),
            "--site" => site = it.next().map(|s| parse(&s, "--site")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => rest.push(a),
        }
    }

    let dir = dir.unwrap_or_else(|| fail("--dir is required"));
    let Some((command, args)) = rest.split_first() else {
        fail("no command given")
    };

    // `spans` is cluster-wide: it scrapes every discoverable site's
    // ring, so it needs no --site.
    if command == "spans" {
        if let Err(e) = cmd_spans(&dir, args) {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("esrctl: {e}");
                exit(1);
            }
        }
        return;
    }

    let site = SiteId(site.unwrap_or_else(|| fail("--site is required")));
    let mut client = RpcClient::connect_dir(&dir, site, Duration::from_secs(5))
        .unwrap_or_else(|e| {
            eprintln!("esrctl: cannot reach site {}: {e}", site.raw());
            exit(1);
        });

    let result = run(&mut client, command, args);
    if let Err(e) = result {
        // A reader that stops early (`esrctl trace | head`) closes our
        // stdout; that is not an error.
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            return;
        }
        eprintln!("esrctl: {e}");
        exit(1);
    }
}

/// Every site that has published an address file under `dir`, in id
/// order — the cluster membership as far as a client can see it.
fn discover_sites(dir: &std::path::Path) -> Vec<SiteId> {
    let mut sites: Vec<u64> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    name.strip_prefix("site-")?
                        .strip_suffix(".addr")?
                        .parse()
                        .ok()
                })
                .collect()
        })
        .unwrap_or_default();
    sites.sort_unstable();
    sites.dedup();
    sites.into_iter().map(SiteId).collect()
}

/// `esrctl spans <et> [--skeleton]`: scrape every site's event ring and
/// print the merged causal timeline with its critical-path breakdown.
fn cmd_spans(dir: &std::path::Path, args: &[String]) -> std::io::Result<()> {
    let mut skeleton = false;
    let mut et: Option<u64> = None;
    for a in args {
        match a.as_str() {
            "--skeleton" => skeleton = true,
            s => et = Some(parse(s, "et")),
        }
    }
    let et = et.unwrap_or_else(|| fail("spans needs <et>"));
    let sites = discover_sites(dir);
    if sites.is_empty() {
        fail("no site address files found in --dir (cluster not up?)");
    }
    let mut per_site = Vec::new();
    for site in sites {
        let mut client = RpcClient::connect_dir(dir, site, Duration::from_secs(5))?;
        let (dropped, spans) = client.spans(et)?;
        if dropped > 0 {
            // Overflow makes the merge honest-but-partial; say so.
            eprintln!("({site} event ring dropped {dropped} older events)");
        }
        per_site.push((site, spans));
    }
    let timeline = esr_runtime::merge_timeline(&per_site, EtId(et));
    if timeline.is_empty() {
        println!("no spans for et{et}");
        return Ok(());
    }
    let mut out = std::io::stdout().lock();
    write!(out, "{}", esr_runtime::render_timeline(&timeline, skeleton))
}

fn run(client: &mut RpcClient, command: &str, args: &[String]) -> std::io::Result<()> {
    match command {
        "status" => {
            let s = client.status()?;
            // New fields append after the originals: CI's proc-smoke
            // greps `settled=true outbound_pending=0` verbatim.
            println!(
                "settled={} outbound_pending={} epoch={} view={} coordinator={} \
                 ckpt_seq={} ckpt_covered={}",
                s.settled,
                s.outbound_pending,
                s.epoch,
                s.view,
                s.coordinator,
                s.ckpt_seq,
                s.ckpt_covered
            );
        }
        "checkpoint" => {
            let (seq, covered) = client.checkpoint()?;
            println!("checkpoint seq={seq} covered={covered}");
        }
        "snapshot" => {
            let mut out = std::io::stdout().lock();
            for (object, value) in client.snapshot()? {
                writeln!(out, "{}\t{:?}", object.raw(), value)?;
            }
        }
        "metrics" => {
            let mut out = std::io::stdout().lock();
            write!(out, "{}", client.metrics()?)?;
        }
        "trace" => {
            let (dropped, events) = client.trace()?;
            if dropped > 0 {
                eprintln!("(ring dropped {dropped} older events)");
            }
            // Wall stamps, shown relative to the oldest retained event
            // like the `spans` timeline.
            let base = events.iter().map(|e| e.1).min().unwrap_or(0);
            let mut out = std::io::stdout().lock();
            for (seq, micros, event) in events {
                writeln!(out, "{seq}\t+{:>8}us\t{event}", micros - base)?;
            }
        }
        "query" => {
            let mut epsilon = u64::MAX;
            let mut objects = Vec::new();
            let mut i = 0;
            while i < args.len() {
                if args[i] == "--epsilon" {
                    epsilon = parse(args.get(i + 1).map_or("", |s| s), "--epsilon");
                    i += 2;
                } else {
                    objects.push(ObjectId(parse(&args[i], "object id")));
                    i += 1;
                }
            }
            if objects.is_empty() {
                fail("query needs at least one object id");
            }
            let outcome = client.query(&objects, epsilon)?;
            println!("admitted={} charged={}", outcome.admitted, outcome.charged);
            for (object, value) in objects.iter().zip(outcome.values.iter()) {
                println!("{}\t{value:?}", object.raw());
            }
        }
        "submit" => {
            let mut et: Option<u64> = None;
            let mut seq: Option<u64> = None;
            let mut client_id: Option<u64> = None;
            let mut req: Option<u64> = None;
            let mut pos: Vec<&String> = Vec::new();
            let mut i = 0;
            while i < args.len() {
                match args[i].as_str() {
                    "--et" => {
                        et = Some(parse(args.get(i + 1).map_or("", |s| s), "--et"));
                        i += 2;
                    }
                    "--seq" => {
                        seq = Some(parse(args.get(i + 1).map_or("", |s| s), "--seq"));
                        i += 2;
                    }
                    "--client" => {
                        client_id = Some(parse(args.get(i + 1).map_or("", |s| s), "--client"));
                        i += 2;
                    }
                    "--req" => {
                        req = Some(parse(args.get(i + 1).map_or("", |s| s), "--req"));
                        i += 2;
                    }
                    _ => {
                        pos.push(&args[i]);
                        i += 1;
                    }
                }
            }
            let et = EtId(et.unwrap_or_else(|| fail("submit needs --et")));
            let (object, op) = parse_op(&pos);
            // Trace context: stamp the submit wall time so every
            // site's spans can attribute client queueing delay.
            let t0 = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0);
            let mut mset =
                MSet::new(et, SiteId(0), vec![ObjectOp::new(object, op)]).traced(t0);
            if let Some(s) = seq {
                mset = mset.sequenced(SeqNo(s));
            }
            match (client_id, req) {
                (Some(c), Some(r)) => mset = mset.from_client(ClientId(c), r),
                (None, None) => {}
                _ => fail("--client and --req go together"),
            }
            let accepted = client.submit(mset)?;
            println!("submitted et={}", accepted.raw());
        }
        "decide" => {
            let [et, verdict] = args else {
                fail("decide needs <et> <commit|abort>")
            };
            let commit = match verdict.as_str() {
                "commit" => true,
                "abort" => false,
                other => fail(&format!("bad decision '{other}'")),
            };
            let et = EtId(parse(et, "et"));
            client.decide(et, commit)?;
            println!("decided et={} commit={commit}", et.raw());
        }
        other => fail(&format!("unknown command '{other}'")),
    }
    Ok(())
}

fn parse_op(pos: &[&String]) -> (ObjectId, Operation) {
    let [object, op, args @ ..] = pos else {
        fail("submit needs <object> <op> <args>")
    };
    let object = ObjectId(parse(object, "object id"));
    let int = |i: usize, what: &str| -> i64 {
        parse(pos.get(i + 2).map_or("", |s| s.as_str()), what)
    };
    let operation = match op.as_str() {
        "write" => Operation::Write(Value::Int(int(0, "write value"))),
        "incr" => Operation::Incr(int(0, "incr amount")),
        "decr" => Operation::Decr(int(0, "decr amount")),
        "mul" => Operation::MulBy(int(0, "mul factor")),
        "tswrite" => {
            let time: u64 = parse(args.first().map_or("", |s| s.as_str()), "tswrite time");
            let client: u64 = parse(args.get(1).map_or("", |s| s.as_str()), "tswrite client");
            let value = int(2, "tswrite value");
            Operation::TimestampedWrite(
                VersionTs::new(time, ClientId(client)),
                Value::Int(value),
            )
        }
        other => fail(&format!("unknown op '{other}'")),
    };
    (object, operation)
}
