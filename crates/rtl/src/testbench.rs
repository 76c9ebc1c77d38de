//! Testbench harness: golden-model comparison and output corruptibility.
//!
//! Reproduces the paper's validation methodology (Sec. 4.1/4.3): the RTL
//! simulation of a (possibly obfuscated) design is compared "against the
//! respective executions of the input specification in software", and the
//! security of wrong keys is quantified as *output corruptibility* — the
//! Hamming distance between the locked circuit's outputs and the baseline
//! outputs (their reference \[18\], Xie & Srivastava).

use crate::sim::{simulate, SimError, SimOptions, SimResult};
use hls_core::{Fsmd, FuOp, KeyBits};
use hls_ir::{Instr, Interpreter, Module, Type};
use std::collections::BTreeSet;

// The stimulus and output-image types are owned by `sim-core` (shared
// with the `vlog` backend and the grid executor) and re-exported here
// unchanged.
pub use sim_core::{images_equal, OutputImage, TestCase};

/// Runs the *software specification* (the IR interpreter) on a test case.
///
/// # Panics
///
/// Panics if the interpreter fails — the golden model must accept every
/// stimulus the testbench generates.
pub fn golden_outputs(module: &Module, top: &str, case: &TestCase) -> OutputImage {
    let mut interp = Interpreter::new(module);
    for (id, data) in &case.mem_inputs {
        let obj = &module.globals[id];
        let slot = interp.globals.get_mut(id).expect("global exists");
        for (i, v) in data.iter().enumerate().take(slot.len()) {
            slot[i] = obj.elem_ty.truncate(*v);
        }
    }
    let out = interp.run_by_name(top, &case.args).expect("golden execution failed");
    let (_, f) = module.function_by_name(top).expect("top exists");
    let ret = out.ret.zip(f.ret_ty);
    // Only memories the design *writes* are outputs; pure input arrays
    // would dilute the Hamming-distance corruptibility metric.
    let written = written_globals(module, top);
    let mut mems = Vec::new();
    for (id, obj) in &module.globals {
        if obj.external && written.contains(&obj.name) {
            mems.push((obj.name.clone(), obj.elem_ty, interp.globals[id].clone()));
        }
    }
    OutputImage { ret, mems }
}

/// Names of global arrays the top function (or its callees) stores to —
/// the design's output memories.
pub fn written_globals(module: &Module, top: &str) -> BTreeSet<String> {
    let mut written = BTreeSet::new();
    let mut worklist: Vec<hls_ir::FuncId> =
        module.function_by_name(top).map(|(id, _)| id).into_iter().collect();
    let mut seen = BTreeSet::new();
    while let Some(fid) = worklist.pop() {
        if !seen.insert(fid) {
            continue;
        }
        let f = module.function(fid);
        for b in &f.blocks {
            for instr in &b.instrs {
                match instr {
                    Instr::Store { array, .. } if Module::is_global(*array) => {
                        if let Some(obj) = module.globals.get(array) {
                            written.insert(obj.name.clone());
                        }
                    }
                    Instr::Call { func, .. } => worklist.push(*func),
                    _ => {}
                }
            }
        }
    }
    written
}

/// Runs the RTL (FSMD) simulation on a test case with a working key.
///
/// # Errors
///
/// Propagates [`SimError`] (wrong keys may exhaust the cycle budget).
pub fn rtl_outputs(
    fsmd: &Fsmd,
    case: &TestCase,
    key: &KeyBits,
    opts: &SimOptions,
) -> Result<(OutputImage, SimResult), SimError> {
    let overrides: Vec<(usize, Vec<u64>)> = case
        .mem_inputs
        .iter()
        .map(|(id, data)| (fsmd.mem_of_array[id].0 as usize, data.clone()))
        .collect();
    let res = simulate(fsmd, &case.args, key, &overrides, opts)?;
    let ret = res.ret.zip(fsmd.ret_reg.map(|r| Type::int(fsmd.reg_widths[r.index()], false)));
    // Mirror `golden_outputs`: only written external memories are outputs.
    // Stores keep their memory target across DFG variants, so scanning any
    // alternative set finds the same memories.
    let mut written: BTreeSet<usize> = BTreeSet::new();
    for (_, op) in fsmd.micro_ops() {
        for alt in &op.alts {
            if let FuOp::Store { mem } = alt.op {
                written.insert(mem.0 as usize);
            }
        }
    }
    let mut mems = Vec::new();
    for (i, m) in fsmd.mems.iter().enumerate() {
        if m.external && written.contains(&i) {
            mems.push((m.name.clone(), m.elem_ty, res.mems[i].clone()));
        }
    }
    Ok((OutputImage { ret, mems }, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::{synthesize, HlsOptions};

    const FIR: &str = r#"
        short coeff_in[4] = {1, -2, 3, -4};
        int samples[8] = {10, 20, 30, 40, 50, 60, 70, 80};
        int out[8];
        void fir() {
            for (int n = 0; n < 8; n++) {
                int acc = 0;
                for (int k = 0; k < 4; k++) {
                    if (n - k >= 0) acc += coeff_in[k] * samples[n - k];
                }
                out[n] = acc;
            }
        }
    "#;

    #[test]
    fn rtl_matches_golden_on_fir() {
        let m = hls_frontend::compile(FIR, "t").unwrap();
        let fsmd = synthesize(&m, "fir", &HlsOptions::default()).unwrap();
        let case = TestCase::args(&[]);
        let golden = golden_outputs(&m, "fir", &case);
        let (img, res) =
            rtl_outputs(&fsmd, &case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        assert!(images_equal(&golden, &img), "golden={golden:?}\nrtl={img:?}");
        assert!(res.cycles > 8);
    }

    #[test]
    fn mem_inputs_flow_through_both_models() {
        let src = r#"
            int buf[4];
            int sum2() { return buf[0] + buf[1] + buf[2] + buf[3]; }
        "#;
        let m = hls_frontend::compile(src, "t").unwrap();
        let fsmd = synthesize(&m, "sum2", &HlsOptions::default()).unwrap();
        let buf_id = *m.globals.iter().find(|(_, o)| o.name == "buf").map(|(i, _)| i).unwrap();
        let case = TestCase { args: vec![], mem_inputs: vec![(buf_id, vec![1, 2, 3, 4])] };
        let golden = golden_outputs(&m, "sum2", &case);
        let (img, _) =
            rtl_outputs(&fsmd, &case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        assert_eq!(golden.ret.map(|(v, _)| v), Some(10));
        assert!(images_equal(&golden, &img));
    }

    #[test]
    fn hamming_distance_of_identical_images_is_zero() {
        let m = hls_frontend::compile("int f(int a) { return a ^ 5; }", "t").unwrap();
        let fsmd = synthesize(&m, "f", &HlsOptions::default()).unwrap();
        let case = TestCase::args(&[77]);
        let golden = golden_outputs(&m, "f", &case);
        let (img, _) =
            rtl_outputs(&fsmd, &case, &KeyBits::zero(0), &SimOptions::default()).unwrap();
        let (d, n) = golden.hamming(&img);
        assert_eq!(d, 0);
        assert_eq!(n, 32);
    }
}
