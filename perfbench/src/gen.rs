//! Seeded input generation. Every input a workload hands to the program
//! (design points, locking keys, TAO seeds, stimulus seeds) is drawn here
//! from the workload seed and nothing else, so one seed always yields the
//! same inputs.

use hls_core::KeyBits;

/// Locking-key width every design uses (the AES-256 key-management input).
pub const LOCKING_KEY_BITS: u32 = 256;

/// SplitMix64: tiny, seedable and stable across platforms and releases.
pub struct Rng(u64);

impl Rng {
    /// A stream derived from the workload seed and a stream label, so the
    /// workloads draw independent inputs from one seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let h = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A fresh locking key.
    pub fn locking_key(&mut self) -> KeyBits {
        KeyBits::from_fn(LOCKING_KEY_BITS, || self.next_u64())
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One design to lock: which kernel, which HLS and TAO knobs, and the
/// seeded secrets and stimuli. Indices refer to the workload's kernel,
/// allocation and plan tables.
#[derive(Clone)]
pub struct Target {
    /// Kernel index.
    pub kernel: usize,
    /// `hls_core::Allocation::presets()` index.
    pub alloc: usize,
    /// Loop unroll factor.
    pub unroll: u32,
    /// Plan-table index.
    pub plan: usize,
    /// 256-bit locking key.
    pub locking: KeyBits,
    /// `TaoOptions::seed`: Algorithm 1's choices and the AES scheme's
    /// random working key.
    pub tao_seed: u64,
    /// Seed of the kernel's stimuli.
    pub stim_seed: u64,
    /// Seed of the wrong keys a key sweep drives through the design.
    pub trial_seed: u64,
}

impl Target {
    /// A default-knob target (default allocation, no unrolling) with fresh
    /// secrets and stimuli.
    pub fn draw(rng: &mut Rng, kernel: usize, plan: usize) -> Target {
        Target {
            kernel,
            alloc: DEFAULT_ALLOC,
            unroll: 1,
            plan,
            locking: rng.locking_key(),
            tao_seed: rng.next_u64(),
            stim_seed: rng.next_u64(),
            trial_seed: rng.next_u64(),
        }
    }
}

/// Index of `Allocation::default()` in `Allocation::presets()`.
const DEFAULT_ALLOC: usize = 1;

/// The lock-flow draw: every kernel × allocation × unroll × plan point
/// once, each with its own secrets, in a seeded order. Covering the whole
/// lattice in every pass keeps the per-pass mix the same for every seed.
pub fn lattice(
    seed: u64,
    kernels: usize,
    allocs: usize,
    unrolls: &[u32],
    plans: usize,
) -> Vec<Target> {
    let mut rng = Rng::new(seed, "lock-flow");
    let mut points = Vec::new();
    for kernel in 0..kernels {
        for alloc in 0..allocs {
            for &unroll in unrolls {
                for plan in 0..plans {
                    let mut t = Target::draw(&mut rng, kernel, plan);
                    t.alloc = alloc;
                    t.unroll = unroll;
                    points.push(t);
                }
            }
        }
    }
    rng.shuffle(&mut points);
    points
}

/// `per` default-knob targets per (kernel, plan) pair, each with its own
/// secrets and stimuli, in table order.
pub fn grid(seed: u64, stream: &str, kernels: usize, plans: usize, per: usize) -> Vec<Target> {
    let mut rng = Rng::new(seed, stream);
    let mut targets = Vec::new();
    for kernel in 0..kernels {
        for plan in 0..plans {
            for _ in 0..per {
                targets.push(Target::draw(&mut rng, kernel, plan));
            }
        }
    }
    targets
}
