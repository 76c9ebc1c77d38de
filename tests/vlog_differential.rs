//! The three-way differential acceptance suite (ISSUE 2 / paper Sec. 4.1):
//! for every benchmark kernel, the emitted Verilog text must simulate
//! bit-for-bit and cycle-for-cycle like the FSMD model — under the
//! correct working key and under wrong keys, `CycleLimit` behaviour
//! included — while the correct key reproduces the IR interpreter's
//! golden outputs and every wrong key corrupts them.

use hls_core::{verilog, KeyBits};
use rtl::{
    golden_outputs, images_equal, rtl_outputs, CompiledFsmd, SimError, SimOptions, TestCase,
};
use tao::{differential_verify, standard_trials, TaoOptions};
use vlog::{vlog_outputs, VlogSim, VlogTape};

fn locking_key(seed: u64) -> KeyBits {
    let mut s = seed | 1;
    KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

#[test]
fn all_five_kernels_agree_under_correct_and_eight_wrong_keys() {
    let lk = locking_key(0xD1FF);
    for b in benchmarks::all() {
        let m = b.compile().unwrap();
        let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).unwrap();
        let stim = &b.stimuli(1, 41)[0];
        let case = TestCase { args: stim.args.clone(), mem_inputs: stim.resolve(&d.module) };
        let wk = d.working_key(&lk);
        let (_, base) = rtl_outputs(&d.fsmd, &case, &wk, &SimOptions::default()).unwrap();
        // Fixed-duration testbench: wrong keys that spin snapshot their
        // state, which both RTL layers must agree on exactly.
        let budget = SimOptions { max_cycles: base.cycles * 2 + 5_000, snapshot_on_timeout: true };
        let trials = standard_trials(&d, &lk, 8, 0xACCE97 ^ b.name.len() as u64);
        let report = differential_verify(&d, &[case], &trials, &budget).unwrap();
        assert!(report.is_clean(), "{}: {report}", b.name);
        assert_eq!(report.comparisons, 9, "{}", b.name);
        assert_eq!(report.wrong_key_corrupted, 8, "{}", b.name);
    }
}

#[test]
fn cycle_limit_parity_on_a_spinning_wrong_key() {
    // A wrong key altering a loop bound spins past any budget; the FSMD
    // simulator and the Verilog text must fail identically (error mode)
    // and snapshot identically (fixed-duration mode).
    let src = r#"
        int f(int n) {
            int s = 0;
            for (int i = 0; i < 1000; i++) s += n ^ i;
            return s;
        }
    "#;
    let m = hls_frontend::compile(src, "t").unwrap();
    let lk = locking_key(0x10);
    let d = tao::lock(&m, "f", &lk, &TaoOptions::default()).unwrap();
    let sim = VlogSim::new(&verilog::emit(&d.fsmd)).unwrap();
    let wk = d.working_key(&lk);
    let mut spun = 0;
    for flip in 0..wk.width() {
        let mut wrong = wk.clone();
        wrong.set_bit(flip, !wrong.bit(flip));
        let opts = SimOptions { max_cycles: 3_000, snapshot_on_timeout: false };
        let r = rtl::simulate(&d.fsmd, &[7], &wrong, &[], &opts);
        let v = sim.simulate(&[7], &wrong, &[], &opts);
        match (r, v) {
            (Ok(rr), Ok(vr)) => assert_eq!(rr, vr, "bit {flip}"),
            (Err(SimError::CycleLimit), Err(SimError::CycleLimit)) => {
                spun += 1;
                // Snapshot mode must agree on the full timed-out state.
                let snap = SimOptions { max_cycles: 3_000, snapshot_on_timeout: true };
                let rr = rtl::simulate(&d.fsmd, &[7], &wrong, &[], &snap).unwrap();
                let vr = sim.simulate(&[7], &wrong, &[], &snap).unwrap();
                assert_eq!(rr, vr, "snapshot diverged at bit {flip}");
                assert!(rr.timed_out);
            }
            (r, v) => panic!("outcome diverged at bit {flip}: {r:?} vs {v:?}"),
        }
        if flip > 64 && spun > 0 {
            break; // found and checked at least one spinning key
        }
    }
    assert!(spun > 0, "no wrong key altered the loop bound — weak test kernel");
}

#[test]
fn single_key_bit_flips_corrupt_the_emitted_verilog() {
    // Mirrors `rtl::testbench`'s wrong-key methodology on the *text*: for
    // every key region (constants, branches, DFG variants), flipping a
    // single working-key bit must corrupt the Verilog simulation's output
    // (nonzero output corruptibility), and the corrupted run must still
    // agree exactly with the FSMD model.
    let src = r#"
        short taps[4] = {3, -1, 4, 1};
        int fir(int a, int b) {
            int acc = 0;
            for (int i = 0; i < 4; i++) {
                if (i % 2 == 0) acc += taps[i] * a;
                else acc += taps[i] * b;
            }
            return acc;
        }
    "#;
    let m = hls_frontend::compile(src, "t").unwrap();
    let lk = locking_key(0xF11);
    let d = tao::lock(&m, "fir", &lk, &TaoOptions::default()).unwrap();
    let sim = VlogSim::new(&verilog::emit(&d.fsmd)).unwrap();
    let case = TestCase::args(&[5, 9]);
    let golden = golden_outputs(&d.module, "fir", &case);
    let wk = d.working_key(&lk);
    let budget = SimOptions { max_cycles: 50_000, snapshot_on_timeout: true };

    // Probe bits: the low bit of every constant range (always inside the
    // constant's logical width), every branch bit, and the low bit of
    // every block's variant range.
    let mut const_probes: Vec<u32> = d.plan.const_ranges.iter().flatten().map(|r| r.lo).collect();
    let branch_probes: Vec<u32> = d.plan.branch_bits.values().copied().collect();
    let variant_probes: Vec<u32> = d.plan.block_ranges.values().map(|r| r.lo).collect();
    assert!(!const_probes.is_empty() && !branch_probes.is_empty() && !variant_probes.is_empty());

    let mut corrupted_by_region = [0usize; 3];
    for (region, probes) in
        [&mut const_probes, &mut branch_probes.clone(), &mut variant_probes.clone()]
            .into_iter()
            .enumerate()
    {
        for &bit in probes.iter() {
            let mut k = wk.clone();
            k.set_bit(bit, !k.bit(bit));
            let (vimg, vres) =
                vlog_outputs(&sim, &case, &k, &budget, &d.fsmd.mem_of_array).unwrap();
            // Exact RTL-level agreement even while corrupted.
            let (rimg, rres) = rtl_outputs(&d.fsmd, &case, &k, &budget).unwrap();
            assert_eq!(rres, vres, "bit {bit}");
            assert!(images_equal(&rimg, &vimg), "bit {bit}");
            if !images_equal(&golden, &vimg) {
                corrupted_by_region[region] += 1;
            }
        }
    }
    // Every constant-bit flip corrupts (constants feed the datapath
    // directly); branch/variant flips corrupt wherever the stimulus
    // exercises the masked state.
    assert_eq!(
        corrupted_by_region[0],
        const_probes.len(),
        "constant flips: {corrupted_by_region:?}"
    );
    assert!(corrupted_by_region[1] > 0, "no branch flip corrupted: {corrupted_by_region:?}");
    assert!(corrupted_by_region[2] > 0, "no variant flip corrupted: {corrupted_by_region:?}");
}

#[test]
fn oracle_attack_surface_is_identical_on_the_emitted_text() {
    // The oracle-guided branch attack enumerates candidate branch keys
    // against reference outputs. Running it against the FSMD model and
    // against the emitted Verilog must give the same outcome — the
    // foundry-visible artifact leaks exactly as much (i.e. as little).
    let src = r#"
        int g(int a, int b) {
            int s = 0;
            if (a > b) s = a - b; else s = b - a;
            if (s > 10) s = s % 10;
            return s * 3;
        }
    "#;
    let m = hls_frontend::compile(src, "t").unwrap();
    let lk = locking_key(0xA77);
    let opts = TaoOptions {
        plan: tao::PlanConfig::techniques(false, true, false),
        ..TaoOptions::default()
    };
    let d = tao::lock(&m, "g", &lk, &opts).unwrap();
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let vtape = VlogTape::new(&verilog::emit(&d.fsmd)).unwrap();
    let vsim = vtape.with_mems(&d.fsmd.mem_of_array);
    let wk = d.working_key(&lk);
    let cases: Vec<TestCase> =
        [[3u64, 15], [40, 2], [7, 7]].iter().map(|a| TestCase::args(a)).collect();
    let oracle: Vec<_> = cases.iter().map(|c| golden_outputs(&d.module, "g", c)).collect();
    let budget = SimOptions { max_cycles: 100_000, snapshot_on_timeout: true };

    let fsmd_outcome = tao::oracle_guided_branch_attack(&d, &ctape, &wk, &cases, &oracle, &budget);
    let vlog_outcome = tao::oracle_guided_branch_attack(&d, &vsim, &wk, &cases, &oracle, &budget);
    assert_eq!(fsmd_outcome, vlog_outcome);
    assert!(vlog_outcome.true_key_survives);
}
