//! The HLS flow driver: C-subset module → baseline FSMD.
//!
//! `tao::TaoFlow` wraps this driver and applies the obfuscation passes at
//! the same points Bambu-TAO does (paper Fig. 2).

use crate::build::build_fsmd;
use crate::fsmd::Fsmd;
use crate::regbind::{bind_registers, validate_binding, RegAssign};
use crate::resource::Allocation;
use crate::schedule::{schedule_function, FnSchedule};
use hls_ir::{Function, Module};
use std::error::Error;
use std::fmt;

/// HLS flow options.
#[derive(Debug, Clone, PartialEq)]
pub struct HlsOptions {
    /// Resource budget for scheduling.
    pub allocation: Allocation,
    /// Clock period target in ns (the paper targets 2 ns / 500 MHz).
    pub clock_period_ns: f64,
    /// Loop-unrolling factor applied by the front end (1 = disabled).
    /// Bambu's loop optimizations are why the paper's Table 1 block
    /// counts are high; see `hls_ir::passes::UnrollLoops`.
    pub unroll_factor: u32,
}

impl Default for HlsOptions {
    fn default() -> Self {
        HlsOptions { allocation: Allocation::default(), clock_period_ns: 2.0, unroll_factor: 1 }
    }
}

impl HlsOptions {
    /// Returns `self` with the resource budget replaced (sweep helper).
    pub fn with_allocation(self, allocation: Allocation) -> HlsOptions {
        HlsOptions { allocation, ..self }
    }

    /// Returns `self` with the unroll factor replaced (sweep helper).
    pub fn with_unroll(self, unroll_factor: u32) -> HlsOptions {
        HlsOptions { unroll_factor, ..self }
    }
}

/// Errors from the HLS flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlsError {
    /// The requested top function does not exist.
    UnknownTop(String),
    /// An internal invariant failed (a bug in this crate).
    Internal(String),
}

impl fmt::Display for HlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlsError::UnknownTop(n) => write!(f, "no function named `{n}` to synthesize"),
            HlsError::Internal(m) => write!(f, "internal HLS error: {m}"),
        }
    }
}

impl Error for HlsError {}

/// The result of preparing a module for synthesis: the inlined, optimized
/// top function (obfuscation passes and scheduling both consume this).
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The whole module after inlining + optimization (globals live here).
    pub module: Module,
    /// A clone of the top function, ready for scheduling.
    pub function: Function,
}

/// Inlines everything below `top`, runs the optimization pipeline and —
/// when `opts.unroll_factor > 1` — unrolls loops before a final cleanup
/// round.
///
/// # Errors
///
/// Returns [`HlsError::UnknownTop`] if `top` is missing.
pub fn prepare(module: &Module, top: &str, opts: &HlsOptions) -> Result<Prepared, HlsError> {
    let mut m = module.clone();
    let (top_id, _) =
        m.function_by_name(top).ok_or_else(|| HlsError::UnknownTop(top.to_string()))?;
    hls_ir::passes::inline_all_into(&mut m, top_id);
    hls_ir::passes::optimize(&mut m);
    if opts.unroll_factor > 1 {
        use hls_ir::passes::{Pass, UnrollLoops};
        UnrollLoops { factor: opts.unroll_factor, ..UnrollLoops::default() }.run(&mut m);
        hls_ir::passes::optimize(&mut m);
    }
    hls_ir::verify_module(&m).map_err(|e| HlsError::Internal(e.to_string()))?;
    let function = m.function_by_name(top).expect("top still present").1.clone();
    Ok(Prepared { module: m, function })
}

/// Schedules and binds `prepared`, returning all intermediate artifacts.
///
/// # Errors
///
/// Returns [`HlsError::Internal`] if the binding invariants fail (a bug).
pub fn schedule_and_bind(
    prepared: &Prepared,
    opts: &HlsOptions,
) -> Result<(FnSchedule, RegAssign), HlsError> {
    let sched = schedule_function(&prepared.function, &opts.allocation);
    let ra = bind_registers(&prepared.function, &sched);
    validate_binding(&prepared.function, &sched, &ra).map_err(HlsError::Internal)?;
    Ok((sched, ra))
}

/// Full baseline synthesis: prepare → schedule → bind → FSMD.
///
/// # Errors
///
/// See [`prepare`] and [`schedule_and_bind`].
///
/// # Examples
///
/// ```
/// let m = hls_frontend::compile("int inc(int x) { return x + 1; }", "demo")?;
/// let fsmd = hls_core::synthesize(&m, "inc", &hls_core::HlsOptions::default())?;
/// assert!(fsmd.num_states() >= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(module: &Module, top: &str, opts: &HlsOptions) -> Result<Fsmd, HlsError> {
    let prepared = prepare(module, top, opts)?;
    let (sched, ra) = schedule_and_bind(&prepared, opts)?;
    let fsmd = build_fsmd(&prepared.module, &prepared.function, &sched, &ra);
    fsmd.validate().map_err(HlsError::Internal)?;
    Ok(fsmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_end_to_end() {
        let m = hls_frontend::compile(
            r#"
            int mac(int a, int b, int c) { return a * b + c; }
            int top(int a, int b, int c, int d) { return mac(a, b, c) * d; }
            "#,
            "t",
        )
        .unwrap();
        let fsmd = synthesize(&m, "top", &HlsOptions::default()).unwrap();
        assert_eq!(fsmd.params.len(), 4);
        assert!(fsmd.num_states() >= 3); // two 2-cycle multiplies at least
    }

    #[test]
    fn unknown_top_reported() {
        let m = hls_frontend::compile("int f() { return 0; }", "t").unwrap();
        assert_eq!(
            synthesize(&m, "nope", &HlsOptions::default()),
            Err(HlsError::UnknownTop("nope".into()))
        );
    }
}
