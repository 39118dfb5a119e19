//! Host speed, read from a fixed reference kernel run beside the
//! workload.
//!
//! The hosts this benchmark runs on share their cores, caches and memory
//! with other tenants. The same binary on the same input runs up to 1.7×
//! slower for seconds to minutes at a time, while its CPU time still
//! equals its wall time, so neither more samples in a run nor CPU time
//! steady the end-to-end times. The benchmark therefore times a kernel of
//! its own before and after every sample (and between the legs of a long
//! one) and reports each sample's times at reference speed: scaled by the
//! kernel's reference time over its time across the sample.
//!
//! Other tenants slow two kinds of work, and not together, so there are
//! two kernels and each workload is read by the one that matches what
//! its time goes to (NOTES.md has the measurements):
//!
//! * [`Kernel::Cache`] — a random walk of dependent loads over a 4 MiB
//!   table, twice a core's private cache on the hosts measured, so most
//!   steps are served by the shared cache. Simulation slows with it one
//!   for one.
//! * [`Kernel::Heap`] — builds 200k small keyed records on the heap,
//!   encodes them into one growing buffer, hashes it and frees it all,
//!   as the snapshot codec does with its value tree. The codec slows
//!   with it; it does not slow with the cache kernel.
//!
//! Neither uses code of the simulator, so a change to the simulator
//! moves the scaled times exactly as it moves the raw ones.

use std::time::Instant;

/// Entries in the cache kernel's table (4 MiB of `u32`).
const TABLE_LEN: usize = 1 << 20;
/// Dependent loads per cache kernel run.
const STEPS: usize = 300_000;
/// Records per heap kernel run.
const RECORDS: usize = 200_000;

/// What a probe times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Cache,
    Heap,
}

impl Kernel {
    /// The kernel's time, in seconds, on a host running at reference
    /// speed.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Cache => 0.03,
            Kernel::Heap => 0.06,
        }
    }

    /// Kernel runs per probe; a reading is their median. The cache
    /// kernel runs once: a second run finds its table already cached and
    /// reads less of what other tenants do to the cache. The heap kernel
    /// allocates afresh every run, so repeats are independent.
    fn shots(self) -> usize {
        match self {
            Kernel::Cache => 1,
            Kernel::Heap => 3,
        }
    }
}

/// Kernel readings of one process, in time order.
pub struct HostSpeed {
    kernel: Kernel,
    /// The cache kernel's table; empty for the heap kernel.
    table: Vec<u32>,
    readings: Vec<(Instant, f64)>,
    /// Wall time spent in probes.
    spent_s: f64,
}

impl HostSpeed {
    pub fn new(kernel: Kernel) -> Self {
        HostSpeed {
            kernel,
            table: match kernel {
                Kernel::Cache => cycle(TABLE_LEN),
                Kernel::Heap => Vec::new(),
            },
            readings: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Wall time spent in probes so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// Time the kernel now; returns the index of the reading.
    pub fn probe(&mut self) -> usize {
        let started = Instant::now();
        let mut shots: Vec<f64> = (0..self.kernel.shots())
            .map(|_| match self.kernel {
                Kernel::Cache => walk(&self.table),
                Kernel::Heap => churn(),
            })
            .collect();
        shots.sort_by(f64::total_cmp);
        let secs = shots[shots.len() / 2];
        let now = Instant::now();
        self.spent_s += now.duration_since(started).as_secs_f64();
        self.readings.push((now, secs));
        self.readings.len() - 1
    }

    /// The factor that brings host time spent from reading `from` to the
    /// latest reading to reference speed: the reference time over the
    /// kernel's time, averaged over that stretch with each interval
    /// between two readings weighted by its length.
    pub fn factor_since(&self, from: usize) -> f64 {
        let span = &self.readings[from..];
        let mut weighted = 0.0;
        let mut total = 0.0;
        for pair in span.windows(2) {
            let dt = pair[1].0.duration_since(pair[0].0).as_secs_f64();
            weighted += dt * (pair[0].1 + pair[1].1) / 2.0;
            total += dt;
        }
        let reference = self.kernel.reference_s();
        let kernel_s = if total > 0.0 {
            weighted / total
        } else {
            span.last().map_or(reference, |r| r.1)
        };
        reference / kernel_s
    }

    /// Every kernel time read so far.
    pub fn readings(&self) -> Vec<f64> {
        self.readings.iter().map(|r| r.1).collect()
    }
}

/// The SplitMix64 sequence from a fixed seed.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A table whose entries form one cycle through every index in a fixed
/// pseudo-random order, so each load depends on the one before.
fn cycle(len: usize) -> Vec<u32> {
    let mut next = splitmix(0x2436_1A58_21FE_D731);
    let mut order: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut table = vec![0u32; len];
    for w in 0..len {
        table[order[w] as usize] = order[(w + 1) % len];
    }
    table
}

/// The cache kernel: `STEPS` dependent loads along the table's cycle.
/// Returns its wall time in seconds.
fn walk(table: &[u32]) -> f64 {
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = table[at as usize];
    }
    std::hint::black_box(at);
    started.elapsed().as_secs_f64()
}

/// The heap kernel: `RECORDS` records of a short string key and four
/// words, each its own allocation, encoded with tags and lengths into one
/// growing buffer, FNV-1a hashed, then all freed. Returns its wall time
/// in seconds.
fn churn() -> f64 {
    let started = Instant::now();
    let mut next = splitmix(5);
    let records: Vec<(String, Vec<u64>)> = (0..RECORDS)
        .map(|i| {
            (
                format!("field{}", i % 977),
                (0..4).map(|_| next()).collect(),
            )
        })
        .collect();
    let mut out: Vec<u8> = Vec::new();
    for (key, words) in &records {
        out.extend_from_slice(&(key.len() as u64).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        for w in words {
            out.push(3);
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in &out {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    std::hint::black_box(hash);
    drop(records);
    drop(out);
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let t = cycle(1000);
        let mut at = 0u32;
        let mut seen = vec![false; t.len()];
        for _ in 0..t.len() {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = t[at as usize];
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn one_reading_scales_by_its_own_time() {
        for kernel in [Kernel::Cache, Kernel::Heap] {
            let mut h = HostSpeed::new(kernel);
            let i = h.probe();
            let secs = h.readings()[i];
            assert!((h.factor_since(i) - kernel.reference_s() / secs).abs() < 1e-12);
        }
    }

    #[test]
    fn a_stretch_averages_its_readings() {
        let mut h = HostSpeed::new(Kernel::Cache);
        let first = h.probe();
        h.probe();
        h.probe();
        let r = h.readings();
        let (lo, hi) = r
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let f = h.factor_since(first);
        let reference = Kernel::Cache.reference_s();
        assert!(f >= reference / hi - 1e-12 && f <= reference / lo + 1e-12);
    }
}
