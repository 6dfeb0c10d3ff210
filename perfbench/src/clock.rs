//! Host wall-clock and memory readings: the only place the benchmark touches
//! the host clock, so every timing in the crate goes through these types.

use std::hint::black_box;

// tdm-lint: allow(D2): the benchmark times calls into the model from outside; host time is its output and never feeds the simulation
type Clock = std::time::Instant;

/// Measures the host seconds elapsed since it was started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Clock);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Clock::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` once and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let value = f();
    (value, watch.seconds())
}

/// Splits one pass between two interleaved kinds of call (engine creations
/// and finishes, locality probes and records) with one clock read per
/// switch rather than one per call.
#[derive(Debug)]
pub struct SplitTimer {
    last: Clock,
    current: usize,
    totals: [f64; 2],
    reads: [u64; 2],
}

impl SplitTimer {
    /// Starts charging time to side `side` (0 or 1).
    pub fn start(side: usize) -> Self {
        SplitTimer {
            last: Clock::now(),
            current: side,
            totals: [0.0; 2],
            reads: [0; 2],
        }
    }

    /// From now on charges time to `side`; a no-op when already there.
    #[inline]
    pub fn switch(&mut self, side: usize) {
        if side != self.current {
            let now = Clock::now();
            self.totals[self.current] += (now - self.last).as_secs_f64();
            self.reads[self.current] += 1;
            self.last = now;
            self.current = side;
        }
    }

    /// Stops the timer and returns the seconds charged to each side, less
    /// `read_s` (the cost of one clock read, see [`clock_read_seconds`])
    /// for every read that closed one of its intervals.
    pub fn finish(mut self, read_s: f64) -> [f64; 2] {
        self.switch(1 - self.current);
        [0, 1].map(|side| (self.totals[side] - self.reads[side] as f64 * read_s).max(0.0))
    }
}

/// Host seconds one clock read costs, measured over a burst of reads.
pub fn clock_read_seconds() -> f64 {
    const READS: u32 = 100_000;
    let watch = Stopwatch::start();
    for _ in 0..READS {
        black_box(Clock::now());
    }
    watch.seconds() / f64::from(READS)
}

/// Peak resident set size of this process in MB (`VmHWM` in
/// `/proc/self/status`), or `None` where the file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
