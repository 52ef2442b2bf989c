//! Machine-speed calibration of end-to-end times.
//!
//! The benchmark runs on shared machines whose other tenants make the same
//! instructions take up to ~1.6× longer for seconds at a time, which swamps
//! the differences a benchmark must resolve. So every timed interval is
//! paired with runs of a fixed reference kernel, and end-to-end times are
//! reported at reference speed: measured time × [`REF_NOMINAL_S`] ÷ the
//! reference kernel's time around that interval. The kernel is part of the
//! benchmark, so no change to the program can move it; the raw,
//! uncalibrated figures are printed beside the calibrated ones.

use crate::stats::{mean, Summary};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reference-kernel time that defines "reference speed" (s): about what
/// the kernel takes on an idle core of the 2-vCPU machine the baseline was
/// taken on.
pub const REF_NOMINAL_S: f64 = 200e-6;

/// 4 MiB: spills out of L2 into the shared last-level cache, where the
/// other tenants' load lands. On the baseline machine this kernel's time
/// moved in proportion to the engine's tick time (log-log slope ~0.9),
/// while an L2-resident kernel moved only half as much.
const REF_WORDS: usize = 1 << 19;
/// Scattered updates per kernel run.
const REF_UPDATES: usize = 1 << 14;

/// Runs the reference kernel and turns its time into speed factors.
pub struct Calibrator {
    buf: Vec<u64>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            buf: vec![1; REF_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Xorshift-driven scattered read-modify-writes over the buffer.
    fn kernel_s(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.buf.len() - 1;
        let mut x = self.state;
        for i in 0..REF_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            self.buf[j] = self.buf[j].wrapping_add(x ^ self.buf[i & mask]);
        }
        self.state = std::hint::black_box(x);
        t.elapsed().as_secs_f64()
    }

    /// Factor that converts a time measured now into reference-speed time.
    /// The faster of two kernel runs is used, so one interrupt or
    /// preemption cannot pass for a slow machine.
    pub fn factor(&mut self) -> f64 {
        let t = self.kernel_s().min(self.kernel_s());
        REF_NOMINAL_S / t
    }
}

/// The line that shows a calibrated metric's uncalibrated median and the
/// speed factors applied to it.
pub fn note(metric: &str, raw: &[f64], factors: &[f64]) -> String {
    let f = Summary::of(factors);
    format!(
        "uncalibrated {metric} median {}; speed factor median {} (q1 {} q3 {}, n={})",
        Summary::of(raw).median,
        f.median,
        f.q1,
        f.q3,
        f.n
    )
}

/// Runs `work` while a sampler thread takes a speed factor every 20 ms,
/// and returns `work`'s result with the mean factor over its run. This is
/// for work done in other processes, such as shard workers, between which
/// no probe can be placed. The sampler shares the cores with that work,
/// and its probes are short and spaced out so that it costs the work ~2 %.
pub fn during<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut cal = Calibrator::new();
            let mut factors = vec![cal.factor()];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                factors.push(cal.factor());
            }
            factors
        });
        let out = work();
        stop.store(true, Ordering::Relaxed);
        let factors = sampler.join().expect("the sampler thread does not panic");
        (out, mean(&factors))
    })
}
