//! Thin libc FFI for the epoll-driven reactor: an owned `epoll`
//! instance ([`Epoll`]), nonblocking `connect(2)`, `SO_ERROR` draining,
//! and `RLIMIT_NOFILE` raising for high fan-in benches.
//!
//! `std` already links libc on every supported target, so bare
//! `extern "C"` declarations resolve without adding a crate dependency
//! (the container is offline; external crates are shims). Constants are
//! Linux values — the reactor is only built and run there.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// `epoll` readable event.
pub const EPOLLIN: u32 = 0x001;
/// `epoll` writable event.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll` error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// `epoll` peer hung up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SO_ERROR: i32 = 4;
const EINPROGRESS: i32 = 115;
const EINTR: i32 = 4;
const RLIMIT_NOFILE: i32 = 7;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;

/// One readiness report (`struct epoll_event`, packed on x86-64 as
/// the kernel lays it out): what happened, and the token the socket was
/// registered with.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Reported events (`EPOLLIN` / `EPOLLOUT` / `EPOLLERR` / `EPOLLHUP`).
    pub events: u32,
    /// The token given at registration.
    pub token: u64,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

mod c {
    use super::{EpollEvent, Rlimit};

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
        pub fn getsockopt(fd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
}

/// A level-triggered `epoll` interest set, closed on drop.
#[derive(Debug)]
pub struct Epoll(OwnedFd);

impl Epoll {
    /// A fresh, empty interest set.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers.
        let fd = unsafe { c::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just opened by the call above and nothing
        // else owns it.
        Ok(Self(unsafe { OwnedFd::from_raw_fd(fd) }))
    }

    /// Registers `fd` for `events`, reported with `token`. Closing the
    /// descriptor takes it out of the set.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces the events a registered `fd` is watched for.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` is a live `struct epoll_event` for the length of
        // the call, which only reads it.
        if unsafe { c::epoll_ctl(self.0.as_raw_fd(), op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a registered descriptor is ready or `timeout_ms`
    /// elapses (`-1` = wait indefinitely), filling the front of
    /// `events`. Returns how many it filled; `EINTR` is retried
    /// internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(i32::MAX as usize) as i32;
        loop {
            // SAFETY: the kernel writes at most `max` events, and
            // `events` holds at least that many.
            let rc = unsafe { c::epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        }
    }
}

/// Starts a nonblocking TCP connect to `addr`. The returned stream is
/// *not* connected yet: wait for it to turn writable, then check
/// [`take_socket_error`] to learn whether the handshake succeeded.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    // sockaddr_in / sockaddr_in6, laid out by hand: family in native
    // order, port/flowinfo in network order.
    let mut sa = [0u8; 28];
    let (family, len): (u16, u32) = match addr {
        SocketAddr::V4(a) => {
            sa[2..4].copy_from_slice(&a.port().to_be_bytes());
            sa[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            sa[2..4].copy_from_slice(&a.port().to_be_bytes());
            sa[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    sa[0..2].copy_from_slice(&family.to_ne_bytes());

    let fd = unsafe {
        c::socket(
            i32::from(family),
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Wrap immediately so every error path below closes the descriptor.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let rc = unsafe { c::connect(fd, sa.as_ptr(), len) };
    if rc == 0 {
        return Ok(stream);
    }
    let err = io::Error::last_os_error();
    match err.raw_os_error() {
        Some(EINPROGRESS) | Some(EINTR) => Ok(stream),
        _ => Err(err),
    }
}

/// Drains the pending `SO_ERROR` from a socket that just reported write
/// readiness after [`connect_nonblocking`]: `Ok(())` means the
/// connection is established.
pub fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
    let mut err: i32 = 0;
    let mut len: u32 = 4;
    let rc = unsafe {
        c::getsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_ERROR,
            (&mut err as *mut i32).cast(),
            &mut len,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    if err != 0 {
        return Err(io::Error::from_raw_os_error(err));
    }
    Ok(())
}

/// Raises the soft (and, where privilege allows, hard) open-file limit
/// to at least `want` descriptors. Returns the resulting soft limit;
/// an already-sufficient limit is never lowered.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    if unsafe { c::getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur >= want {
        return Ok(lim.cur);
    }
    let raised = Rlimit {
        cur: want,
        max: lim.max.max(want),
    };
    if unsafe { c::setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
        return Ok(want);
    }
    // Unprivileged: the existing hard limit is the ceiling.
    let capped = Rlimit {
        cur: lim.max,
        max: lim.max,
    };
    if unsafe { c::setrlimit(RLIMIT_NOFILE, &capped) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(lim.max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    /// Waits on a fresh set holding only `fd`, watched for `events`.
    fn wait_for(fd: RawFd, events: u32, timeout_ms: i32) -> Option<EpollEvent> {
        let ep = Epoll::new().unwrap();
        ep.add(fd, events, 7).unwrap();
        let mut ready = [EpollEvent::default(); 4];
        let n = ep.wait(&mut ready, timeout_ms).unwrap();
        assert!(n <= 1);
        (n == 1).then(|| ready[0])
    }

    #[test]
    fn epoll_times_out_and_wakes_on_data() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 42).unwrap();
        let mut ready = [EpollEvent::default(); 4];
        let t0 = Instant::now();
        assert_eq!(ep.wait(&mut ready, 30).unwrap(), 0, "no data yet");
        assert!(t0.elapsed().as_millis() >= 25, "timeout honoured");
        tx.write_all(&[1]).unwrap();
        assert_eq!(ep.wait(&mut ready, 1000).unwrap(), 1);
        let (events, token) = (ready[0].events, ready[0].token);
        assert_eq!((events & EPOLLIN, token), (EPOLLIN, 42));
        // Level-triggered: the unread byte is reported again.
        assert_eq!(ep.wait(&mut ready, 0).unwrap(), 1);
        // A modified interest replaces the old one.
        ep.modify(rx.as_raw_fd(), EPOLLOUT, 43).unwrap();
        assert_eq!(ep.wait(&mut ready, 0).unwrap(), 1);
        let (events, token) = (ready[0].events, ready[0].token);
        assert_eq!((events & (EPOLLIN | EPOLLOUT), token), (EPOLLOUT, 43));
    }

    #[test]
    fn a_closed_descriptor_leaves_the_set() {
        let (tx, rx) = UnixStream::pair().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 1).unwrap();
        drop(tx);
        let mut ready = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut ready, 0).unwrap(), 1, "the hang-up is reported");
        drop(rx);
        assert_eq!(ep.wait(&mut ready, 0).unwrap(), 0, "closed, so gone");
    }

    #[test]
    fn nonblocking_connect_reaches_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();
        let ready = wait_for(stream.as_raw_fd(), EPOLLOUT, 5000).expect("writable");
        assert_ne!(ready.events & EPOLLOUT, 0);
        take_socket_error(&stream).unwrap();
        let (_peer, peer_addr) = listener.accept().unwrap();
        assert_eq!(peer_addr, stream.local_addr().unwrap());
    }

    #[test]
    fn nonblocking_connect_to_dead_port_reports_the_failure() {
        // Reserve a port, then free it so nothing is listening.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        match connect_nonblocking(&addr) {
            // Loopback may fail the connect synchronously...
            Err(_) => {}
            // ...or report the refusal through SO_ERROR on writability.
            Ok(stream) => {
                wait_for(stream.as_raw_fd(), EPOLLOUT, 5000).expect("a report");
                assert!(take_socket_error(&stream).is_err());
            }
        }
    }

    #[test]
    fn nofile_limit_is_at_least_queried() {
        let cur = raise_nofile_limit(64).unwrap();
        assert!(cur >= 64);
    }
}
