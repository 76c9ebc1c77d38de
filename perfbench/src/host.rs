//! Host-speed correction. The benchmark gets a few cores of a shared
//! host whose speed drifts by a fifth or more over tens of seconds, with
//! the load of others, and every timing drifts with it: one lock-flow
//! seed read 62–90 items/s in runs a minute apart, while each run's
//! set-up time moved in step. A fixed reference workload that uses none
//! of the repository's crates is timed between items, and each timing is
//! divided by how much slower than nominal the reference ran around it.
//! A change to the program leaves the reference alone, so it moves the
//! corrected numbers as much as the raw ones.

use crate::gen::Rng;
use crate::report::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// The reference's time on an undisturbed host, in ms: corrected
/// timings read as if every reference sample had taken this long.
const NOMINAL_MS: f64 = 0.6;
/// Least time between two reference samples taken between items.
const EVERY_S: f64 = 0.1;

/// One run of the reference workload, in ms: ordered-map inserts of
/// small vectors, a sort and string formatting, the allocating,
/// pointer-chasing mix of a compiler.
fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(0, "host-reference");
    let mut map = BTreeMap::new();
    for _ in 0..4000 {
        map.insert(rng.next_u64() % 50_000, vec![rng.next_u64(); 4]);
    }
    let mut v: Vec<u64> = map.values().map(|x| x[0] ^ x[3]).collect();
    v.sort_unstable();
    let text: String = v.iter().take(500).map(|x| format!("{x:x}")).collect();
    std::hint::black_box((v, text));
    t0.elapsed().as_secs_f64() * 1e3
}

/// `n` reference samples taken back to back.
pub fn sample(n: usize) -> Vec<f64> {
    (0..n).map(|_| reference_ms()).collect()
}

/// How much slower than nominal the host ran over `samples`: the median
/// reference time over its nominal time (1.25 on a host a fifth slower).
pub fn slowness(samples: &[f64]) -> f64 {
    median(samples) / NOMINAL_MS
}

/// Reference samples taken between items, at most one per `EVERY_S`.
#[derive(Default)]
pub struct Probe {
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl Probe {
    /// Takes a sample if none was taken in the last `EVERY_S`.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= EVERY_S) {
            self.samples.push(reference_ms());
            self.last = Some(Instant::now());
        }
    }

    /// The host's slowness since the last call, from the samples taken
    /// since then plus one taken now.
    pub fn slowness(&mut self) -> f64 {
        self.samples.push(reference_ms());
        self.last = Some(Instant::now());
        slowness(&std::mem::take(&mut self.samples))
    }
}
