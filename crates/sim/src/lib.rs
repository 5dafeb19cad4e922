//! # esr-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the simulated distributed system: a virtual clock,
//! a deterministic event queue, seeded randomness and Lamport clocks.
//! Replica-control experiments run on this kernel so that
//! every run is exactly reproducible from its seed — adversarial message
//! reorderings and partition schedules included.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod event;
pub mod rng;
pub mod sched;
pub mod time;

pub use clock::LamportClock;
pub use event::EventQueue;
pub use rng::DetRng;
pub use sched::Scheduler;
pub use time::{Duration, VirtualTime};
