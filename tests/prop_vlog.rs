//! Property-based differential testing of the emitted Verilog on randomly
//! generated programs, across **all four simulator backends**: for every
//! generated kernel, stimulus and key the FSMD tree walker
//! (`rtl::simulate`), the FSMD compiled tape (`rtl::CompiledFsmd`), the
//! Verilog tree walker (`vlog::VlogSim`) and the Verilog compiled tape
//! (`vlog::VlogTape`) must agree *exactly* — same `SimResult` (return
//! value, cycle count, memories, registers, timeout flag), same error,
//! including `CycleLimit` and snapshot-on-timeout behaviour — and under
//! the correct key all must reproduce the IR interpreter's outputs.
//!
//! The Verilog front end must also survive hostile text: seeded byte and
//! token mutations of emitted paper-kernel texts, and declarations sized
//! to overflow it, give an `Ok` or an error, never a panic, and every
//! mutant that elaborates runs alike on both Verilog backends.

// `reference_grid` is for the grid suites.
#[allow(dead_code)]
mod common;

use common::{gen_program, run_golden};
use hls_core::{verilog, KeyBits};
use proptest::prelude::*;
use rtl::{simulate, CompiledFsmd, SimError, SimOptions, SimResult};
use std::sync::OnceLock;
use vlog::{VlogSim, VlogTape};

fn arg_sets() -> Vec<[u64; 3]> {
    vec![[0, 0, 0], [1, 2, 3], [100, 50, 25], [0x8000_0000, 3, 2]]
}

fn locking_key(seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

/// The four backends of one design, compiled once per test case.
struct Backends {
    fsmd: hls_core::Fsmd,
    ctape: CompiledFsmd,
    sim: VlogSim,
    vtape: VlogTape,
}

impl Backends {
    fn of(fsmd: hls_core::Fsmd, src: &str) -> Backends {
        let sim = VlogSim::new(&verilog::emit(&fsmd))
            .unwrap_or_else(|e| panic!("emitted text rejected: {e}\n{src}"));
        let vtape = VlogTape::compile(&sim)
            .unwrap_or_else(|e| panic!("emitted text rejected by tape compiler: {e}\n{src}"));
        let ctape = CompiledFsmd::compile(&fsmd);
        Backends { fsmd, ctape, sim, vtape }
    }

    /// Runs all four backends and asserts exact pairwise agreement;
    /// returns the common outcome.
    fn run_all(
        &self,
        args: &[u64],
        key: &KeyBits,
        opts: &SimOptions,
        ctx: &str,
    ) -> Result<SimResult, SimError> {
        let r_tree = simulate(&self.fsmd, args, key, &[], opts);
        let r_tape = self.ctape.simulate(args, key, &[], opts);
        let v_tree = self.sim.simulate(args, key, &[], opts);
        let v_tape = self.vtape.simulate(args, key, &[], opts);
        assert_eq!(r_tree, r_tape, "fsmd tree vs fsmd tape diverged: {ctx}");
        assert_eq!(v_tree, v_tape, "vlog tree vs vlog tape diverged: {ctx}");
        match (&r_tree, &v_tree) {
            (Ok(rr), Ok(vr)) => assert_eq!(rr, vr, "fsmd vs vlog run diverged: {ctx}"),
            (Err(re), Err(ve)) => assert_eq!(re, ve, "fsmd vs vlog errors diverged: {ctx}"),
            (r, v) => panic!("outcome diverged: {r:?} vs {v:?} ({ctx})"),
        }
        r_tree
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn baseline_backends_simulate_exactly_alike(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p")
            .unwrap_or_else(|e| panic!("compile: {e}\n{}", prog.source));
        let fsmd = hls_core::synthesize(&module, "f", &hls_core::HlsOptions::default())
            .unwrap_or_else(|e| panic!("synthesize: {e}\n{}", prog.source));
        let backends = Backends::of(fsmd, &prog.source);
        for args in arg_sets() {
            let got = backends
                .run_all(&args, &KeyBits::zero(0), &SimOptions::default(), &prog.source)
                .unwrap_or_else(|e| panic!("baseline run: {e}\n{}", prog.source));
            // Correct-by-construction: every backend matches the golden model.
            let want = run_golden(&module, &args);
            prop_assert_eq!(Some(want), got.ret, "args {:?}\n{}", args, prog.source);
        }
    }

    #[test]
    fn locked_backends_agree_under_correct_and_wrong_keys(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p").unwrap();
        let lk = locking_key(seed);
        let design = tao::lock(&module, "f", &lk, &tao::TaoOptions::default())
            .unwrap_or_else(|e| panic!("lock: {e}\n{}", prog.source));
        let wk = design.working_key(&lk);
        let backends = Backends::of(design.fsmd.clone(), &prog.source);
        // Bounded budget: wrong keys may spin; all backends must agree on
        // the CycleLimit / snapshot behaviour too.
        let tight = SimOptions { max_cycles: 50_000, snapshot_on_timeout: false };
        let snap = SimOptions { max_cycles: 20_000, snapshot_on_timeout: true };
        for (i, args) in arg_sets().into_iter().enumerate() {
            // Correct key: exact agreement and golden match.
            backends.run_all(&args, &wk, &tight, &prog.source).unwrap();
            let want = run_golden(&module, &args);
            let got = backends
                .run_all(&args, &wk, &SimOptions::default(), &prog.source)
                .unwrap();
            prop_assert_eq!(Some(want), got.ret, "args {:?}\n{}", args, prog.source);

            // Wrong key (one flipped working-key bit): still exact
            // four-way agreement, in both error and snapshot modes.
            let mut wrong = wk.clone();
            let bit = (seed.wrapping_add(i as u64 * 977) % wk.width() as u64) as u32;
            wrong.set_bit(bit, !wrong.bit(bit));
            let _ = backends.run_all(&args, &wrong, &tight, &prog.source);
            let _ = backends.run_all(&args, &wrong, &snap, &prog.source);

            // Wrong key drawn as `tao::standard_trials` draws one: a random
            // locking key through the design's key management. Such keys
            // leave most runs looping, so the tapes skip their laps while
            // the tree interpreters run every cycle; the tapes' snapshots
            // at 63, 127, 255, … catch a loop well within this budget.
            let random = design.working_key(&locking_key(seed ^ (0x5eed << i)));
            for snapshot_on_timeout in [false, true] {
                let short = SimOptions { max_cycles: 4096, snapshot_on_timeout };
                let _ = backends.run_all(&args, &random, &short, &prog.source);
            }
        }
    }

    #[test]
    fn batch_runners_match_one_shot_runs(seed in any::<u64>()) {
        // The batch API (reused runner buffers) must be stateless across
        // runs: interleaving stimuli and keys on one runner gives the
        // same results as fresh one-shot simulations.
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p").unwrap();
        let lk = locking_key(seed ^ 0xba7c4);
        let design = tao::lock(&module, "f", &lk, &tao::TaoOptions::default()).unwrap();
        let wk = design.working_key(&lk);
        let mut wrong = wk.clone();
        wrong.set_bit((seed % wk.width() as u64) as u32, !wrong.bit((seed % wk.width() as u64) as u32));
        let backends = Backends::of(design.fsmd.clone(), &prog.source);
        let opts = SimOptions { max_cycles: 20_000, snapshot_on_timeout: true };

        let mut frun = backends.ctape.runner();
        let mut vrun = backends.vtape.runner();
        for key in [&wk, &wrong, &wk] {
            for args in arg_sets() {
                let f_batch = frun.run(&args, key, &[], &opts);
                let v_batch = vrun.run(&args, key, &[], &opts);
                let one_shot = backends.ctape.simulate(&args, key, &[], &opts);
                match (&f_batch, &one_shot) {
                    (Ok(fs), Ok(os)) => {
                        prop_assert_eq!(fs.ret, os.ret);
                        prop_assert_eq!(fs.cycles, os.cycles);
                        prop_assert_eq!(fs.timed_out, os.timed_out);
                        prop_assert_eq!(frun.mems(), &os.mems[..]);
                        prop_assert_eq!(frun.regs(), &os.regs[..]);
                    }
                    (Err(fe), Err(oe)) => prop_assert_eq!(fe, oe),
                    (f, o) => panic!("batch vs one-shot diverged: {f:?} vs {o:?}"),
                }
                match (&f_batch, &v_batch) {
                    (Ok(fs), Ok(vs)) => {
                        prop_assert_eq!(fs, vs);
                        prop_assert_eq!(frun.mems(), vrun.mems());
                    }
                    (Err(fe), Err(ve)) => prop_assert_eq!(fe, ve),
                    (f, v) => panic!("fsmd vs vlog batch diverged: {f:?} vs {v:?}"),
                }
            }
        }
    }

    #[test]
    fn interface_errors_agree(seed in any::<u64>()) {
        let prog = gen_program(seed);
        let module = hls_frontend::compile(&prog.source, "p").unwrap();
        let fsmd = hls_core::synthesize(&module, "f", &hls_core::HlsOptions::default()).unwrap();
        let backends = Backends::of(fsmd, &prog.source);
        // Arity mismatch reported identically by all four backends.
        let errs = [
            simulate(&backends.fsmd, &[1], &KeyBits::zero(0), &[], &SimOptions::default())
                .unwrap_err(),
            backends.ctape.simulate(&[1], &KeyBits::zero(0), &[], &SimOptions::default())
                .unwrap_err(),
            backends.sim.simulate(&[1], &KeyBits::zero(0), &[], &SimOptions::default())
                .unwrap_err(),
            backends.vtape.simulate(&[1], &KeyBits::zero(0), &[], &SimOptions::default())
                .unwrap_err(),
        ];
        prop_assert!(errs.iter().all(|e| e == &errs[0]), "{errs:?}");
        // Key width mismatch reported identically.
        let errs = [
            simulate(&backends.fsmd, &[1, 2, 3], &KeyBits::zero(9), &[], &SimOptions::default())
                .unwrap_err(),
            backends.ctape.simulate(&[1, 2, 3], &KeyBits::zero(9), &[], &SimOptions::default())
                .unwrap_err(),
            backends.sim.simulate(&[1, 2, 3], &KeyBits::zero(9), &[], &SimOptions::default())
                .unwrap_err(),
            backends.vtape.simulate(&[1, 2, 3], &KeyBits::zero(9), &[], &SimOptions::default())
                .unwrap_err(),
        ];
        prop_assert!(matches!(errs[0], SimError::KeyWidthMismatch { .. }));
        prop_assert!(errs.iter().all(|e| e == &errs[0]), "{errs:?}");
    }
}

/// Emitted texts of two locked paper kernels (every TAO technique), the
/// seeds of the mutation property; built once per test binary.
fn paper_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        ["gsm", "adpcm"]
            .iter()
            .map(|name| {
                let b = benchmarks::by_name(name).expect("suite kernel");
                let module = b.compile().expect("paper kernel compiles");
                let design =
                    tao::lock(&module, b.top, &locking_key(7), &tao::TaoOptions::default())
                        .expect("paper kernel locks");
                verilog::emit(&design.fsmd)
            })
            .collect()
    })
}

/// SplitMix64, so a failing case replays from its seed alone.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// One byte-level edit: overwrite, insert or delete a byte, or
    /// duplicate or drop a short range. Inserted bytes are printable ASCII
    /// or a newline, so the text stays UTF-8 and reaches the parser.
    fn mutate_bytes(&mut self, text: &mut Vec<u8>) {
        let at = self.below(text.len());
        let byte = |r: &mut Mutator| match r.below(96) {
            95 => b'\n',
            k => b' ' + k as u8,
        };
        match self.below(5) {
            0 => text[at] = byte(self),
            1 => text.insert(at, byte(self)),
            2 => {
                text.remove(at);
            }
            3 => {
                let end = (at + 1 + self.below(24)).min(text.len());
                let dup = text[at..end].to_vec();
                text.splice(at..at, dup);
            }
            _ => {
                let end = (at + 1 + self.below(24)).min(text.len());
                text.drain(at..end);
            }
        }
    }

    /// One token-level edit: delete, duplicate, swap or replace a token
    /// (a run of identifier characters or one punctuation byte) — numbers
    /// are sometimes replaced by extreme values that overflow widths,
    /// lengths and counts.
    fn mutate_tokens(&mut self, text: &mut Vec<u8>) {
        const EXTREMES: &[&str] = &[
            "0",
            "64",
            "65536",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "99999999999999999999",
            "64'hffffffffffffffff",
            "0'd0",
        ];
        let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'';
        let mut toks = Vec::new();
        let mut i = 0;
        while i < text.len() {
            let start = i;
            if word(text[i]) {
                while i < text.len() && word(text[i]) {
                    i += 1;
                }
            } else {
                i += 1;
            }
            if !text[start].is_ascii_whitespace() {
                toks.push(start..i);
            }
        }
        if toks.len() < 2 {
            return;
        }
        let a = toks[self.below(toks.len())].clone();
        let b = toks[self.below(toks.len())].clone();
        let (ta, tb) = (text[a.clone()].to_vec(), text[b.clone()].to_vec());
        match self.below(5) {
            0 => {
                text.drain(a);
            }
            1 => {
                text.splice(a.start..a.start, ta);
            }
            2 if a.end <= b.start => {
                text.splice(b, ta);
                text.splice(a, tb);
            }
            3 => {
                text.splice(a, tb);
            }
            _ => {
                let n = EXTREMES[self.below(EXTREMES.len())];
                let num =
                    toks.iter().filter(|t| text[t.start].is_ascii_digit()).nth(self.below(64));
                let at = num.cloned().unwrap_or(a);
                text.splice(at, n.bytes());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn mutated_texts_never_panic_the_front_end(seed in any::<u64>()) {
        let mut r = Mutator(seed);
        let texts = paper_texts();
        for _ in 0..3 {
            let mut text = texts[r.below(texts.len())].clone().into_bytes();
            for _ in 0..1 + r.below(3) {
                if r.below(2) == 0 {
                    r.mutate_bytes(&mut text);
                } else {
                    r.mutate_tokens(&mut text);
                }
            }
            let text = String::from_utf8(text).expect("mutations keep the text ASCII");
            // `Ok` or `Err` are both fine; a panic fails the property.
            let Ok(sim) = VlogSim::new(&text) else { continue };
            let Ok(tape) = VlogTape::compile(&sim) else { continue };
            // What elaborates must also run: one stimulus on both Verilog
            // backends, which must return the same result or error.
            let args: Vec<u64> = (0..sim.num_args()).map(|_| r.next() % 1024).collect();
            let key = KeyBits::from_fn(sim.key_width(), || r.next());
            let opts = SimOptions { max_cycles: 4096, snapshot_on_timeout: true };
            prop_assert_eq!(
                sim.simulate(&args, &key, &[], &opts),
                tape.simulate(&args, &key, &[], &opts),
                "tree and tape disagree on a mutant:\n{}", text
            );
        }
    }
}

/// A valid module but for `decl` (one more declaration) and `rhs` (the
/// value `r0` takes every cycle).
fn with_decl(decl: &str, rhs: &str) -> String {
    format!(
        "module t (\n  input wire clk,\n  input wire rst,\n  input wire start,\n  \
         output reg done\n);\n  reg [31:0] r0;\n  {decl}\n  always @(posedge clk) begin\n    \
         r0 <= {rhs};\n    done <= 1'b1;\n  end\nendmodule\n"
    )
}

#[test]
fn hostile_sizes_are_errors_not_overflows() {
    assert!(VlogSim::new(&with_decl("reg [31:0] m [0:255];", "{32{r0[0]}}")).is_ok());
    let cases = [
        (with_decl("reg [4294967295:0] a;", "r0"), "width cap"),
        (with_decl("reg [31:0] m [0:18446744073709551615];", "r0"), "element cap"),
        (with_decl("", "r0[4294967295:0]"), "bad part-select"),
        (with_decl("", "{4294967295{r0}}"), "replication count"),
        // Used to be truncated to a 1-bit register.
        (with_decl("reg [4294967296:0] a;", "r0"), "width cap"),
        // Used to elaborate, leaving a 32 GB memory to the first run.
        (with_decl("reg [31:0] m [0:4000000000];", "r0"), "element cap"),
    ];
    for (text, why) in &cases {
        let e = VlogSim::new(text).expect_err(text);
        assert!(e.msg.contains(why), "`{e}` should mention {why}:\n{text}");
        assert!(VlogTape::new(text).is_err(), "{text}");
    }
}

/// A 64-bit datapath whose register `r1` latches `arg0` at reset and then
/// takes `rhs` for one cycle, with a 96-bit key port.
fn wide_concat_text(rhs: &str) -> String {
    format!(
        "module t (\n  input wire clk,\n  input wire rst,\n  input wire start,\n  \
         input wire [95:0] working_key,\n  input wire [63:0] arg0,\n  \
         output wire [63:0] ret,\n  output reg done\n);\n  reg [63:0] r1;\n  \
         assign ret = r1;\n  always @(posedge clk) begin\n    if (rst) begin\n      \
         done <= 1'b0;\n      r1 <= arg0;\n    end else if (start) begin\n      \
         r1 <= {rhs};\n      done <= 1'b1;\n    end\n  end\nendmodule\n"
    )
}

/// A concatenation part or replicated unit of 64 bits shifts everything
/// before it out of the value, alike in both Verilog backends (it used to
/// overflow the shift: a panic in debug builds, `r1 | 1` in release).
#[test]
fn wide_concat_parts_shift_the_rest_out() {
    let a = 0x8123_4567_89ab_cdef_u64;
    let key = KeyBits::zero(96);
    for (rhs, want) in [
        ("{1'b1, r1}", a),
        ("{2{r1}}", a),
        ("{{4'hf, r1}, 4'h5}", a << 4 | 5),
        ("{r1[59:0], 4'h5}", a << 4 | 5),
    ] {
        let text = wide_concat_text(rhs);
        let sim = VlogSim::new(&text).expect(rhs);
        let tape = VlogTape::compile(&sim).expect(rhs);
        for ret in [
            sim.simulate(&[a], &key, &[], &SimOptions::default()).expect(rhs).ret,
            tape.simulate(&[a], &key, &[], &SimOptions::default()).expect(rhs).ret,
        ] {
            assert_eq!(ret, Some(want), "{rhs}");
        }
    }
}

/// A whole read of a signal wider than 64 bits is an elaboration error
/// (it used to keep only some of the key's bits); part-selects of it work.
#[test]
fn whole_reads_wider_than_64_bits_are_errors() {
    let text = wide_concat_text("{32'hFFFFFFFF, working_key}");
    let e = VlogSim::new(&text).expect_err("whole read of a 96-bit key");
    assert!(e.msg.contains("whole read of the 96-bit `working_key`"), "{e}");
    assert!(VlogTape::new(&text).is_err());
    let text = wide_concat_text("{32'hFFFFFFFF, working_key[31:0]}");
    let mut key = KeyBits::zero(96);
    key.set_bit(0, true);
    key.set_bit(95, true);
    let sim = VlogSim::new(&text).expect("part-select of the key");
    let res = sim.simulate(&[0], &key, &[], &SimOptions::default()).expect("runs");
    assert_eq!(res.ret, Some(0xFFFF_FFFF_0000_0001));
}
