//! Bridges the benchmark suite into the `hls-dse` engine.

use hls_dse::{explore, ConfigSpace, DseError, DseOptions, DseReport, Kernel};

/// The benchmark kernels swept by `reproduce -- dse`: the three
/// structurally distinct suite members (control-heavy `gsm`,
/// data-flow-heavy `sobel`, codec-loop `adpcm`), with their seeded
/// stimulus resolved to named arrays.
pub fn dse_kernels() -> Vec<Kernel> {
    ["gsm", "sobel", "adpcm"]
        .iter()
        .map(|name| {
            let b = benchmarks::by_name(name).expect("suite kernel exists");
            let stim = &b.stimuli(1, 7)[0];
            Kernel::new(b.name, b.source, b.top, stim.args.clone()).with_arrays(stim.arrays.clone())
        })
        .collect()
}

/// Runs the full paper-flavoured sweep (3 kernels × 18 configurations =
/// 54 points) on one worker per core.
///
/// # Errors
///
/// Propagates any [`DseError`] — every point must compile, lock and sign
/// off for the sweep to be meaningful.
pub fn dse_sweep() -> Result<DseReport, DseError> {
    explore(&dse_kernels(), &ConfigSpace::paper(), &DseOptions::default())
}

/// A CI-sized smoke sweep: one kernel, ≤ 8 points.
///
/// # Errors
///
/// Propagates any [`DseError`].
pub fn smoke_sweep() -> Result<DseReport, DseError> {
    // sobel: the fastest suite kernel to lock.
    let b = benchmarks::by_name("sobel").expect("sobel exists");
    let stim = &b.stimuli(1, 7)[0];
    let kernels =
        vec![Kernel::new(b.name, b.source, b.top, stim.args.clone())
            .with_arrays(stim.arrays.clone())];
    explore(&kernels, &ConfigSpace::smoke(), &DseOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_signs_off_and_has_a_front() {
        let rep = smoke_sweep().unwrap();
        assert_eq!(rep.points.len(), ConfigSpace::smoke().len());
        assert!(rep.points.iter().all(|p| p.correct));
        assert!(!rep.pareto.is_empty());
    }

    #[test]
    fn suite_kernels_resolve_their_stimulus_arrays() {
        for k in dse_kernels() {
            assert!(!k.arrays.is_empty(), "{} drives no arrays", k.name);
        }
    }
}
