//! CPU placement of the benchmark's threads.

#![allow(unsafe_code)]

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to `cpu`. Returns `false` where that is not possible.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is an initialized buffer of exactly the size
        // passed, alive for the whole call, which only reads it; pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}
