//! Round-trip pins for the emitted Verilog.
//!
//! Every design point of the `lock-flow` lattice (5 paper kernels × 3
//! `Allocation::presets()` × unroll {1, 2} × plans {cbv, cb-, -bv}) is
//! locked with a seeded locking key and `TaoOptions::seed`, emitted, parsed
//! and elaborated into a `VlogSim`, and compiled into a `VlogTape`. Two
//! FNV-1a values per kernel cover its 18 points: one the emitted text byte
//! for byte and the `{:?}` rendering of the elaborated netlist, the other
//! the `{:?}` rendering of the tape.
//!
//! The values were recorded with the emitter that built each line from
//! `format!` temporaries and the parser that boxed every AST node. A change
//! to the emitter or the Verilog front end that is meant to be a pure
//! speed-up must leave every value here alone: the text is the
//! foundry-visible artifact, and the netlist is what `attack-sat` encodes.
//! A change to the tape's own layout may move only the tape values.

use hls_core::{verilog, Allocation, HlsOptions, KeyBits};
use std::fmt::{self, Write as _};
use std::sync::OnceLock;
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

/// The FNV-1a values of one kernel's 18 lattice points: text and netlist,
/// then tape.
fn kernel_fingerprints(name: &str, rng: &mut Rng) -> (u64, u64) {
    let b = benchmarks::by_name(name).expect("suite kernel");
    let module = b.compile().expect("paper kernel compiles");
    let mut text_netlist = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tape_h = Fnv(0xcbf2_9ce4_8422_2325);
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
                text_netlist.write_str(&text).unwrap();
                let sim = VlogSim::new(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                write!(text_netlist, "{sim:?}").unwrap();
                let tape = VlogTape::compile(&sim).unwrap_or_else(|e| panic!("{name}: {e}"));
                write!(tape_h, "{tape:?}").unwrap();
            }
        }
    }
    (text_netlist.0, tape_h.0)
}

/// `(kernel, text and netlist value, tape value)` for the five paper
/// kernels, computed once for both tests.
fn fingerprints() -> &'static [(&'static str, u64, u64)] {
    static PINS: OnceLock<Vec<(&'static str, u64, u64)>> = OnceLock::new();
    PINS.get_or_init(|| {
        let mut rng = Rng(0x7a0_5eed);
        ["gsm", "adpcm", "sobel", "backprop", "viterbi"]
            .into_iter()
            .map(|name| {
                let (text_netlist, tape) = kernel_fingerprints(name, &mut rng);
                (name, text_netlist, tape)
            })
            .collect()
    })
}

#[test]
fn emitted_text_and_netlist_are_pinned() {
    let got: Vec<(&str, u64)> = fingerprints().iter().map(|&(n, h, _)| (n, h)).collect();
    let want = [
        ("gsm", 16964920067501310789),
        ("adpcm", 15849620400297155060),
        ("sobel", 7174592675306546433),
        ("backprop", 17014982855801021977),
        ("viterbi", 16781775720568348839),
    ];
    assert_eq!(got, want);
}

#[test]
fn compiled_tape_is_pinned() {
    let got: Vec<(&str, u64)> = fingerprints().iter().map(|&(n, _, h)| (n, h)).collect();
    let want = [
        ("gsm", 4713372825462684971),
        ("adpcm", 11584893163188834340),
        ("sobel", 14245528618505934154),
        ("backprop", 9740036626796513049),
        ("viterbi", 16295907267273201587),
    ];
    assert_eq!(got, want);
}
