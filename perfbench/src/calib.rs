//! Core-speed calibration.  The machines this benchmark runs on are shared:
//! their memory hierarchy slows down and recovers within seconds as other
//! tenants come and go, and every timed operation slows with it.  A fixed
//! reference kernel — random read-modify-writes over a 256 KiB table that
//! the measured work has pushed out of the core's private caches — is timed
//! right before each measured operation and tracks that slowdown closely.
//! Each end-to-end time is reported scaled to the speed at which the kernel
//! takes `NOMINAL_US`; raw times are printed beside the scaled ones.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in microseconds, that defines the reference speed.
pub const NOMINAL_US: f64 = 60.0;
/// Kernel samples the running speed estimate is the median of.
const WINDOW: usize = 15;
/// 32 Ki words: 256 KiB.
const TABLE_WORDS: usize = 32 * 1024;
const STEPS: usize = 20_000;

pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
    recent: VecDeque<f64>,
    span: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with no samples yet: sample before the first `scale`.
    pub fn new() -> Self {
        Self {
            table: vec![0; TABLE_WORDS],
            state: 0x2545_F491_4F6C_DD1D,
            recent: VecDeque::new(),
            span: Vec::new(),
        }
    }

    /// Times one run of the kernel.  Called between measured operations,
    /// which evict the table from the core's private caches.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut acc = 0u64;
        let mut x = self.state;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (TABLE_WORDS - 1)];
            acc = acc.wrapping_add(*slot);
            *slot = acc;
        }
        self.state = black_box(x);
        let us = start.elapsed().as_secs_f64() * 1e6;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(us);
        self.span.push(us);
    }

    /// Median kernel time over the recent samples, in microseconds.
    pub fn kernel_us(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        crate::stats::median(&recent)
    }

    /// Factor that scales a time measured now to the reference speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_US / self.kernel_us().max(1e-3)
    }

    /// Starts a span: `span_scale` covers every sample taken from here on.
    pub fn begin_span(&mut self) {
        self.span.clear();
    }

    /// Scale over the samples of the current span (a longer operation).
    pub fn span_scale(&self) -> f64 {
        NOMINAL_US / crate::stats::median(&self.span).max(1e-3)
    }
}
