//! `esrd` — one ESR replica-control site as a real OS process.
//!
//! ```text
//! esrd --site 1 --sites 3 --method commu --dir /tmp/cluster
//! ```
//!
//! Boots [`esr_runtime::Daemon`] for the given site and serves forever:
//! peers and clients find it through the address file it publishes
//! under the cluster directory. Kill it with `SIGKILL` whenever you
//! like — that is the point — and it ends itself the same way when one
//! of its threads panics. On the next start it bumps its boot epoch,
//! replays its write-ahead journal, re-announces its applies to the
//! coordinator, and drains whatever its peers queued for it while it
//! was dead.

use std::path::PathBuf;
use std::process::exit;

use esr_core::ids::SiteId;
use esr_net::rpc::sys::raise_nofile_limit;
use esr_runtime::{Daemon, DaemonConfig, RtMethod};

/// Descriptor headroom requested at boot: the epoll-driven reactor
/// happily multiplexes thousands of client sockets on one thread, so
/// the default soft limit (often 1024) is the first thing to run out.
const WANT_NOFILE: u64 = 32_768;

const USAGE: &str = "usage: esrd --site <i> --sites <n> --method \
                     <ordup|commu|ritu|ritu-mv|compe> --dir <path> \
                     [--ckpt-bytes <n>]";

fn fail(msg: &str) -> ! {
    eprintln!("esrd: {msg}");
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    // A panic on any thread ends the process: main only parks, so a
    // dead reactor would otherwise leave the listener bound and every
    // client blocked on a daemon that can no longer answer. A dead
    // process is what the journal, the peers' links and a supervisor
    // recover from.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report(info);
        std::process::abort();
    }));

    let mut site: Option<u64> = None;
    let mut sites: Option<usize> = None;
    let mut method: Option<RtMethod> = None;
    let mut dir: Option<PathBuf> = None;
    let mut ckpt_bytes: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--site" => site = value("--site").parse().ok(),
            "--sites" => sites = value("--sites").parse().ok(),
            "--method" => {
                let name = value("--method");
                method = Some(
                    RtMethod::parse(&name)
                        .unwrap_or_else(|| fail(&format!("unknown method '{name}'"))),
                );
            }
            "--dir" => dir = Some(PathBuf::from(value("--dir"))),
            "--ckpt-bytes" => {
                let n = value("--ckpt-bytes");
                ckpt_bytes = Some(
                    n.parse()
                        .unwrap_or_else(|_| fail(&format!("bad --ckpt-bytes '{n}'"))),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag '{other}'")),
        }
    }

    let cfg = DaemonConfig {
        site: SiteId(site.unwrap_or_else(|| fail("--site is required"))),
        sites: sites.unwrap_or_else(|| fail("--sites is required")),
        method: method.unwrap_or_else(|| fail("--method is required")),
        dir: dir.unwrap_or_else(|| fail("--dir is required")),
        ckpt_bytes,
    };
    if (cfg.site.raw() as usize) >= cfg.sites {
        fail("--site must be < --sites");
    }

    match raise_nofile_limit(WANT_NOFILE) {
        Ok(limit) if limit < WANT_NOFILE => {
            eprintln!("esrd: fd limit capped at {limit}; heavy fan-in may exhaust it");
        }
        Err(e) => eprintln!("esrd: could not raise fd limit: {e}"),
        _ => {}
    }

    let site = cfg.site;
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("esrd: failed to start: {e}");
            exit(1);
        }
    };
    eprintln!(
        "esrd: site {} epoch {} listening on {}",
        site.raw(),
        daemon.epoch(),
        daemon.addr()
    );

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
