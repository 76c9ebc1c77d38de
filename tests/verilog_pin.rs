//! Round-trip pins for the emitted Verilog.
//!
//! Every design point of the `lock-flow` lattice (5 paper kernels × 3
//! `Allocation::presets()` × unroll {1, 2} × plans {cbv, cb-, -bv}) is
//! locked with a seeded locking key and `TaoOptions::seed`, emitted, parsed
//! and elaborated into a `VlogSim`, and compiled into a `VlogTape`. One
//! FNV-1a value per kernel covers, for each of its 18 points, the emitted
//! text byte for byte and the `{:?}` renderings of the elaborated netlist
//! and of the tape.
//!
//! The values were recorded with the emitter that built each line from
//! `format!` temporaries and the parser that boxed every AST node. A change
//! to the emitter or the Verilog front end that is meant to be a pure
//! speed-up must leave every value here alone: the text is the
//! foundry-visible artifact, and the netlist is what `attack-sat` encodes.

use hls_core::{verilog, Allocation, HlsOptions, KeyBits};
use std::fmt::{self, Write as _};
use tao::{PlanConfig, TaoOptions};
use vlog::{VlogSim, VlogTape};

/// Deterministic xorshift stream, local so the pins depend on nothing
/// outside this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// FNV-1a over everything written to it, so the texts and renderings are
/// hashed as they are produced instead of being collected first.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// The lattice's technique plans (as in `hls_dse::TaoKnobs`).
fn plans() -> [PlanConfig; 3] {
    [
        PlanConfig::techniques(true, true, true),
        PlanConfig::techniques(true, true, false),
        PlanConfig::techniques(false, true, true),
    ]
}

/// The FNV-1a value of one kernel's 18 lattice points.
fn kernel_fingerprint(name: &str, rng: &mut Rng) -> u64 {
    let b = benchmarks::by_name(name).expect("suite kernel");
    let module = b.compile().expect("paper kernel compiles");
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (_, alloc) in Allocation::presets() {
        for unroll in [1, 2] {
            for plan in plans() {
                let locking = KeyBits::from_fn(256, || rng.next());
                let opts = TaoOptions {
                    plan,
                    seed: rng.next(),
                    hls: HlsOptions::default().with_unroll(unroll).with_allocation(alloc),
                    ..TaoOptions::default()
                };
                let design = tao::lock(&module, b.top, &locking, &opts)
                    .unwrap_or_else(|e| panic!("{name} u{unroll}: lock: {e}"));
                let text = verilog::emit(&design.fsmd);
                h.write_str(&text).unwrap();
                let sim = VlogSim::new(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                write!(h, "{sim:?}").unwrap();
                let tape = VlogTape::compile(&sim).unwrap_or_else(|e| panic!("{name}: {e}"));
                write!(h, "{tape:?}").unwrap();
            }
        }
    }
    h.0
}

#[test]
fn emitted_text_netlist_and_tape_are_pinned() {
    let mut rng = Rng(0x7a0_5eed);
    let got: Vec<(&str, u64)> = ["gsm", "adpcm", "sobel", "backprop", "viterbi"]
        .into_iter()
        .map(|name| (name, kernel_fingerprint(name, &mut rng)))
        .collect();
    let want = [
        ("gsm", 8453197266274169907),
        ("adpcm", 18356020717787259761),
        ("sobel", 5723685755320106186),
        ("backprop", 4105719930238573952),
        ("viterbi", 14226227172721517329),
    ];
    assert_eq!(got, want);
}
