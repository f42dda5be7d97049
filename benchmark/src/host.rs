//! A monitor of how fast the host runs while a phase is measured.
//!
//! This guest's CPUs slow down by 5-30 % for seconds to minutes at a time
//! (other tenants of the host), and every timing follows: across 130 runs
//! the median time of the fixed kernel below, sampled during the run,
//! correlated -0.9 with `commits_per_s`. The sample is reported beside the
//! metrics so that a disturbed run can be told from a slow program; it is
//! not used to correct anything, because the sampling threads share the
//! CPUs with the workload and so also see how busy *it* keeps them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::affinity;
use crate::gen::splitmix64;

/// A fixed piece of pure computation (about 0.7 ms on this host).
fn kernel() -> u64 {
    let mut s = 0x1234_5678u64;
    let mut acc = 0u64;
    for _ in 0..500_000 {
        acc ^= splitmix64(&mut s);
    }
    acc
}

/// Times [`kernel`] five times a second on each of the given CPUs (0.4 %
/// of each) until stopped.
pub struct HostMonitor {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<u64>>>,
}

impl HostMonitor {
    /// Starts one sampling thread per CPU.
    pub fn start(cpus: &[usize]) -> HostMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    affinity::pin_current_thread(cpu);
                    let mut samples = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let t0 = Instant::now();
                        std::hint::black_box(kernel());
                        samples.push(t0.elapsed().as_nanos() as u64);
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    samples
                })
            })
            .collect();
        HostMonitor { stop, threads }
    }

    /// Stops sampling; the median kernel time over all CPUs, in µs.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let mut all: Vec<u64> = self
            .threads
            .into_iter()
            .flat_map(|t| t.join().expect("monitor thread"))
            .collect();
        all.sort_unstable();
        crate::report::quantile(&all, 0.5) / 1e3
    }
}
