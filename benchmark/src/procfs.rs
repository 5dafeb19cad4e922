//! `/proc` readers: what a daemon cost the machine, seen from outside.

use std::io;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, fixed at 100 on Linux whatever the kernel's own HZ).
const TICKS_PER_SEC: u64 = 100;
/// Page size `/proc/<pid>/stat` counts resident memory in.
const PAGE_BYTES: u64 = 4096;

/// One process's cumulative resource use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User-mode CPU time, microseconds.
    pub utime_us: u64,
    /// Kernel-mode CPU time, microseconds.
    pub stime_us: u64,
    /// Resident set size, bytes.
    pub rss_bytes: u64,
    /// `write`-family system calls issued.
    pub write_syscalls: u64,
    /// Bytes passed to `write`-family calls (journal, queues, sockets).
    pub write_chars: u64,
    /// Bytes the process caused to be sent to the storage layer.
    pub disk_bytes: u64,
    /// Context switches, voluntary and involuntary, over all threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Reads the current counters of process `pid`.
    pub fn read(pid: u32) -> io::Result<Self> {
        let (utime_us, stime_us, rss_bytes) =
            parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat"))?)?;
        let (write_syscalls, write_chars, disk_bytes) =
            parse_io(&std::fs::read_to_string(format!("/proc/{pid}/io"))?)?;
        // `/proc/<pid>/status` counts the main thread only, and esrd's
        // main thread parks: the reactor thread does the work.
        let mut ctx_switches = 0;
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let status = std::fs::read_to_string(task?.path().join("status"))?;
            ctx_switches += parse_ctx_switches(&status)?;
        }
        Ok(Self {
            utime_us,
            stime_us,
            rss_bytes,
            write_syscalls,
            write_chars,
            disk_bytes,
            ctx_switches,
        })
    }

    /// CPU time, user plus kernel, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.utime_us + self.stime_us
    }

    /// Field-wise `self - earlier` (RSS may shrink, so it saturates).
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            utime_us: self.utime_us - earlier.utime_us,
            stime_us: self.stime_us - earlier.stime_us,
            rss_bytes: self.rss_bytes.saturating_sub(earlier.rss_bytes),
            write_syscalls: self.write_syscalls - earlier.write_syscalls,
            write_chars: self.write_chars - earlier.write_chars,
            disk_bytes: self.disk_bytes - earlier.disk_bytes,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

/// `(utime_us, stime_us, rss_bytes)` from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> io::Result<(u64, u64, u64)> {
    let rest = text.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15,
    // rss 24.
    let field = |n: usize| -> io::Result<u64> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("stat field"))
    };
    let us = |ticks: u64| ticks * (1_000_000 / TICKS_PER_SEC);
    Ok((us(field(14)?), us(field(15)?), field(24)? * PAGE_BYTES))
}

fn keyed(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
}

/// `(syscw, wchar, write_bytes)` from the text of `/proc/<pid>/io`.
pub fn parse_io(text: &str) -> io::Result<(u64, u64, u64)> {
    let get = |key| keyed(text, key).ok_or_else(|| bad("io"));
    Ok((get("syscw")?, get("wchar")?, get("write_bytes")?))
}

/// Voluntary plus involuntary context switches from the text of a
/// `/proc/<pid>/task/<tid>/status`.
pub fn parse_ctx_switches(text: &str) -> io::Result<u64> {
    let get = |key| keyed(text, key).ok_or_else(|| bad("status"));
    Ok(get("voluntary_ctxt_switches")? + get("nonvoluntary_ctxt_switches")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_hostile_command_names() {
        let text = "4242 (esrd (x) y) S 1 4242 4242 0 -1 4194304 301 0 0 0 \
                    17 5 0 0 20 0 3 0 123456 22222222 750 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(text).unwrap(),
            (170_000, 50_000, 750 * PAGE_BYTES)
        );
        assert!(parse_stat("no paren here").is_err());
        assert!(parse_stat("1 (x) S 1 2").is_err());
    }

    #[test]
    fn io_and_status_fields() {
        let io = "rchar: 10\nwchar: 2048\nsyscr: 3\nsyscw: 64\nread_bytes: 0\n\
                  write_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io(io).unwrap(), (64, 2048, 4096));
        assert!(parse_io("wchar: 1\n").is_err());
        let status = "Name:\tesrd\nvoluntary_ctxt_switches:\t120\n\
                      nonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_ctx_switches(status).unwrap(), 127);
        assert!(parse_ctx_switches("Name:\tesrd\n").is_err());
    }

    #[test]
    fn reads_this_process() {
        let s = ProcSample::read(std::process::id()).unwrap();
        assert!(s.rss_bytes > 0);
        assert!(s.ctx_switches > 0 || s.cpu_us() < 20_000);
        assert_eq!(s.since(&s), ProcSample::default());
    }
}
