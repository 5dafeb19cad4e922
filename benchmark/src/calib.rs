//! The reference the timings are calibrated against.
//!
//! The box this benchmark gates on is a small virtual machine whose
//! speed changes under it: the same cluster runs at 80 000 operations a
//! second for twenty seconds, then at 50 000 for the next fifteen, the
//! CPU fully busy in both and the work per operation (context
//! switches, system calls, bytes) the same. Register arithmetic keeps
//! its pace meanwhile; socket round trips and walks over a few
//! megabytes of memory slow down together, so it is the memory system
//! the box shares with its neighbours. No run length the acceptance
//! driver can afford averages out a mode that outlasts a run. So every
//! load slice is followed by a short slice of a fixed piece of work of
//! the benchmark's own — a 64-byte ping-pong over a loopback TCP
//! connection between two threads of the driver, on the same CPU: the
//! system calls, soft interrupts and context switches an `RpcClient`
//! call to `esrd` is made of — and times are reported in the seconds of
//! a box on which that ping-pong runs at [`NOMINAL_RATE`]. The
//! reference shares no code with the program under test, so no change
//! to the program moves it.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Round trips a second of the reference box: about what the box the
/// benchmark was written on does in its fast minutes, so that
/// calibrated and raw figures are of one size.
pub const NOMINAL_RATE: f64 = 250_000.0;

/// Sub-slices one measurement is cut into; their median is reported,
/// so a heartbeat tick or the last of a draining queue does not count.
const SUB_SLICES: u32 = 8;

const FRAME: usize = 64;

/// A connected ping-pong pair; the echo side runs on a thread of its
/// own, which inherits the caller's CPU.
pub struct Reference {
    stream: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start() -> io::Result<Self> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut frame = [0u8; FRAME];
            while peer.read_exact(&mut frame).is_ok() && peer.write_all(&frame).is_ok() {}
        });
        Ok(Self {
            stream,
            echo: Some(echo),
        })
    }

    /// The box's speed now, as a share of the reference box's: round
    /// trips a second over `span`, the median of its sub-slices, ÷
    /// [`NOMINAL_RATE`].
    pub fn speed(&mut self, span: Duration) -> io::Result<f64> {
        let mut frame = [0u8; FRAME];
        let mut rates = Vec::new();
        for _ in 0..SUB_SLICES {
            let started = Instant::now();
            let mut trips = 0u32;
            while started.elapsed() < span / SUB_SLICES {
                self.stream.write_all(&frame)?;
                self.stream.read_exact(&mut frame)?;
                trips += 1;
            }
            rates.push(f64::from(trips) / started.elapsed().as_secs_f64());
        }
        Ok(median(&rates) / NOMINAL_RATE)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_runs_and_stops() {
        let mut reference = Reference::start().unwrap();
        let speed = reference.speed(Duration::from_millis(16)).unwrap();
        assert!(speed > 0.0 && speed.is_finite());
    }
}
