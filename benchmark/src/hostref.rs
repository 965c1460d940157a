//! The host-speed reference: a fixed kernel whose wall time says how fast
//! this host is running *right now*, so CPU-bound timings can be reported
//! at one reference speed.
//!
//! Why it exists: on the builder's sandbox (a 2-vCPU VM on a shared host)
//! the same engine pass takes 0.8 s or 1.4 s depending on what the
//! neighbours do, for minutes at a time. Ten 20-second runs spread by
//! 20-43 % (quartile distance over median) and two sets of ten, half an
//! hour apart, differed by 57-77 % — no regression bound survives that.
//! Nothing the guest can read tracks the slowdown (no steal time, CPU time
//! inflates with it, no performance counters). A kernel does, if it loads
//! the core the way the simulator does: cache-resident or load-latency-bound
//! loops barely moved (3-12 %) while the engine moved 40-80 %, but a
//! high-ILP loop (four independent shift chains, two table loads, a store
//! and an unpredictable branch per iteration — competing for issue ports
//! the way the engine's scan loops do) tracked it with correlation
//! 0.94-0.99. Dividing by it cut the spreads above to 4.5-13 % and the
//! drift between the two sets to 4.5-10 %.
//!
//! So: the kernel is sampled before and after every timed CPU-bound
//! operation (the host changes speed within a run, so each operation is
//! paired with its own samples), and `reference-speed time = wall × speed`,
//! `speed = NOMINAL_MS ÷ median sample`. Raw wall figures are reported
//! beside every corrected one. The kernel lives here, outside the code
//! under test, so no PR under test can change it; on another host
//! `NOMINAL_MS` only rescales every corrected number by one constant, which
//! cancels in any comparison.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats;

/// The kernel's median wall on the builder's sandbox with quiet neighbours.
pub const NOMINAL_MS: f64 = 1.75;

const TABLE_WORDS: usize = 1 << 18; // 1 MiB: past L1, inside L2
const ITERATIONS: usize = 300_000;

/// The reference kernel and its state (the table is kept between samples
/// so that a sample never pays for page faults).
pub struct RefKernel {
    table: Vec<u32>,
    chains: [u64; 4],
}

impl RefKernel {
    pub fn new() -> RefKernel {
        RefKernel {
            table: (0..TABLE_WORDS as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
            chains: [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                0x2545_F491_4F6C_DD1D,
            ],
        }
    }

    /// Runs the fixed work once; wall milliseconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let [mut a, mut b, mut c, mut d] = self.chains;
        let mut acc = 0u64;
        let table = &mut self.table[..];
        for _ in 0..ITERATIONS {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b ^= b << 11;
            b ^= b >> 9;
            b ^= b << 19;
            c ^= c << 15;
            c ^= c >> 5;
            c ^= c << 21;
            d ^= d << 7;
            d ^= d >> 11;
            d ^= d << 23;
            let i = (a as usize) % TABLE_WORDS;
            let j = (b as usize) % TABLE_WORDS;
            let (v, w) = (table[i], table[j]);
            if v > w {
                acc = acc.wrapping_add(c);
            } else {
                acc ^= d;
            }
            table[i] = w.wrapping_add(c as u32);
        }
        self.chains = [a ^ std::hint::black_box(acc), b, c, d];
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Nanoseconds this thread has spent on a CPU, by the scheduler's account
/// (`None` where `/proc` does not say). The account is only as fresh as the
/// last tick or context switch, so the thread yields first: that brings it
/// up to date.
fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Samples the kernel on a thread of its own, every [`Sampler::PERIOD`],
/// while work that cannot be interleaved with it runs: a child process busy
/// on every vCPU for seconds. Beside such a child the thread sometimes
/// waits for a vCPU, so a sample here is the CPU time the kernel took, not
/// its wall (a slow host inflates both alike). At 1.75 ms in every 50 the
/// sampler costs the child under 2 % of the machine. Over 40 cold
/// `repro fig10` passes on the builder's sandbox the raw wall spread by
/// 20 % (sets of ten: 12-36 %, their medians 18 % apart), the wall at
/// reference speed by 10 % (7-13 %, 8 % apart); samples taken only just
/// before and after the child were worse than no correction (54 %).
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Sampler {
    const PERIOD: Duration = Duration::from_millis(50);

    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut kernel = RefKernel::new();
            let mut samples_ms = Vec::new();
            loop {
                let cpu0 = thread_cpu_ns();
                let wall_ms = kernel.sample();
                let cpu_ms = cpu0.zip(thread_cpu_ns()).map(|(a, b)| (b - a) as f64 / 1e6);
                samples_ms.push(cpu_ms.unwrap_or(wall_ms));
                // Relaxed: the flag publishes nothing but itself.
                if stopped.load(Ordering::Relaxed) {
                    return samples_ms;
                }
                std::thread::sleep(Sampler::PERIOD);
            }
        });
        Sampler { stop, thread }
    }

    /// Stops the thread and returns its samples (at least one), in ms.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("the sampler thread does not panic")
    }
}

/// Host speed relative to the builder's quiet sandbox, from kernel samples
/// taken alongside the timed work: 1.0 there, below 1 on a slower or
/// busier host. `wall × speed` is the reference-speed time.
pub fn speed(samples_ms: &[f64]) -> f64 {
    NOMINAL_MS / stats::median(samples_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_the_same_work() {
        // Same state in, same state out: the work per sample is fixed.
        let (mut a, mut b) = (RefKernel::new(), RefKernel::new());
        assert!(a.sample() > 0.0 && b.sample() > 0.0);
        assert_eq!(a.chains, b.chains);
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn sampler_returns_a_sample_however_soon_it_is_stopped() {
        let samples = Sampler::start().finish();
        assert!(!samples.is_empty() && samples.iter().all(|ms| *ms > 0.0), "{samples:?}");
    }

    #[test]
    fn speed_is_nominal_over_median() {
        assert_eq!(speed(&[NOMINAL_MS, NOMINAL_MS * 2.0, NOMINAL_MS * 2.0]), 0.5);
    }
}
