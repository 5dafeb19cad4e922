//! The benchmark's CPU layout: everything on one CPU.
//!
//! The driver — client threads, harness, reference, probes — and the
//! three daemons, which inherit the driver's affinity at `fork`, all
//! run on the highest CPU this process may use. The box this gates on
//! is a virtual machine with two CPUs, and waking a thread on the
//! *other* CPU of a virtual machine costs an inter-processor interrupt
//! through the hypervisor: 25–40 µs each way where a context switch on
//! one CPU costs 3 µs, and varying two-fold with what the host is
//! doing (README, "CPU layout"). Spread over both CPUs, a request is
//! four such wake-ups and little else; on one CPU the benchmark
//! measures the program. A second CPU must exist all the same: it is
//! left to the rest of the box.

use std::io;

/// Words in the affinity masks exchanged with the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The highest CPU in `allowed`.
fn highest(allowed: &Mask) -> Option<usize> {
    (0..MASK_WORDS * 64).rfind(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// Moves the calling thread — and so every thread and process it
/// starts later — onto the highest CPU it may run on, and returns
/// which that is. Fails when that is the only one.
pub fn claim_one() -> io::Result<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable array of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = highest(&allowed)
        .filter(|_| allowed.iter().map(|w| w.count_ones()).sum::<u32>() >= 2)
        .ok_or_else(|| {
            io::Error::other(
                "esrbench needs two CPUs: one for itself and the cluster, one left free",
            )
        })?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live array of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_allowed_cpu_is_chosen() {
        let mut allowed = [0u64; MASK_WORDS];
        assert_eq!(highest(&allowed), None);
        allowed[0] = 0b1011;
        assert_eq!(highest(&allowed), Some(3));
        allowed[1] = 0b1;
        assert_eq!(highest(&allowed), Some(64));
    }
}
