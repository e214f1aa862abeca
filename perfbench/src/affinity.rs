//! Moving the calling thread between CPUs (Linux).
//!
//! Each CPU of a shared host runs this code at its own speed, set by
//! whatever other tenants run beside it at that moment. A single-threaded
//! workload left on one CPU can spend a whole run on the slow one; rotating
//! it over every allowed CPU lets each run sample them all.

/// Bits in the kernel's `cpu_set_t`.
const SET_BITS: usize = 1024;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first; empty if the
/// kernel refused to say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; SET_BITS / 64];
    // SAFETY: `mask` is a live, writable buffer of exactly `cpusetsize`
    // bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_BITS)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`, one of [`allowed_cpus`]. Returns false
/// if the kernel refused.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; SET_BITS / 64];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly `cpusetsize`
    // bytes that the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_cpu_and_back() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "the calling thread may run somewhere");
        std::thread::spawn(move || {
            for &c in &cpus {
                assert!(pin_to(c), "CPU {c} is allowed");
                assert_eq!(allowed_cpus(), vec![c]);
            }
        })
        .join()
        .expect("the pinning thread ran to the end");
    }
}
