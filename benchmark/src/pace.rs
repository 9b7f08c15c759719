//! Host-speed reference. The sandbox's cores change clock speed for seconds
//! to minutes at a time (a fixed ALU loop reads 5.9 or 7.1 ms depending on
//! when it is run), which moves every wall-clock and CPU-time reading by up
//! to 20 % from one run to the next. A short, fixed, register-only kernel is
//! therefore timed before and after every measured interval, and the
//! interval is reported at **reference speed**: `raw × NOMINAL / kernel time
//! around it`. The kernel touches no memory, so contention for cache or
//! memory bandwidth — which it cannot see — is left in the reading as it is.
//! Raw readings are printed beside the normalised ones.

use std::time::Instant;

/// What the kernel reads on the host the benchmark was defined on, at its
/// base clock: the speed every reading is scaled to.
pub const NOMINAL_MS: f64 = 4.8;

const ITERATIONS: u64 = 2_000_000;

/// One timing of the kernel, in ms: a serial LCG chain, so it scales with
/// the core's clock and nothing else.
fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ITERATIONS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Brackets a sequence of measured intervals with kernel timings.
#[derive(Debug)]
pub struct Pace {
    last_ms: f64,
    /// Wall (= CPU: the kernel never blocks) seconds spent in the kernel.
    pub spent_s: f64,
}

impl Pace {
    pub fn start() -> Pace {
        let first = kernel_ms();
        Pace { last_ms: first, spent_s: first / 1e3 }
    }

    /// Closes the interval that began at the previous reading: times the
    /// kernel again and returns the factor that scales a raw reading of the
    /// interval to reference speed.
    pub fn factor(&mut self) -> f64 {
        let now = kernel_ms();
        let around = (self.last_ms + now) / 2.0;
        self.last_ms = now;
        self.spent_s += now / 1e3;
        NOMINAL_MS / around
    }
}
