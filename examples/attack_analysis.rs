//! The foundry's-eye view: what can an attacker actually do against a
//! TAO-locked design? Reproduces the paper's Sec. 4.3 security argument
//! as an experiment on the `sobel` benchmark.
//!
//! ```text
//! cargo run --release --example attack_analysis
//! ```

use hls_core::KeyBits;
use rtl::{golden_outputs, CompiledFsmd, SimOptions, TestCase};
use tao::{KeySpace, PlanConfig, TaoOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmarks::sobel();
    let module = bench.compile()?;
    let mut s = 0x0a1145u64;
    let locking = KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    });

    // Full lock: quantify the key space per technique (Eq. 1 terms).
    let full = tao::lock(&module, bench.top, &locking, &TaoOptions::default())?;
    let ks = KeySpace::of(&full);
    println!("sobel working key: {} bits total", ks.total_bits());
    println!("  constants : {:>4} bits  (brute force: 2^{})", ks.constant_bits, ks.constant_bits);
    println!("  branches  : {:>4} bits  (enumerable — IF an oracle exists)", ks.branch_bits);
    println!("  variants  : {:>4} bits", ks.variant_bits);
    println!("exhaustive search feasible at 2^80 simulations? {}", ks.brute_force_feasible(80));

    // Grant the attacker everything the threat model denies: I/O oracles
    // and all non-branch key bits. Enumerate the branch bits.
    let branch_only = TaoOptions {
        plan: PlanConfig { constants: false, dfg_variants: false, ..PlanConfig::default() },
        ..TaoOptions::default()
    };
    let d = tao::lock(&module, bench.top, &locking, &branch_only)?;
    let wk = d.working_key(&locking);
    let cases: Vec<TestCase> = (0..3)
        .map(|seed| {
            let stim = &bench.stimuli(1, seed)[0];
            TestCase { args: stim.args.clone(), mem_inputs: stim.resolve(&d.module) }
        })
        .collect();
    let oracle: Vec<_> = cases.iter().map(|c| golden_outputs(&d.module, bench.top, c)).collect();
    let opts = SimOptions { max_cycles: 300_000, snapshot_on_timeout: true };
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let out = tao::oracle_guided_branch_attack(&d, &ctape, &wk, &cases, &oracle, &opts);
    println!(
        "\nwith an oracle: {}/{} branch-bit candidates survive (true key among them: {})",
        out.candidates_surviving, out.candidates_tried, out.true_key_survives
    );
    println!(
        "\nconclusion (paper Sec. 4.3): SAT/enumeration attacks need the oracle the\n\
         untrusted foundry does not have; constants alone are 2^{} strong.",
        ks.constant_bits
    );
    Ok(())
}
