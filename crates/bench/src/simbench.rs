//! Simulator-throughput benchmark with in-process speedup floors.
//!
//! `reproduce -- sim-bench` measures cycles/second for all four
//! backends — FSMD tree ([`rtl::simulate`]), FSMD tape
//! ([`rtl::CompiledFsmd`]), Verilog tree ([`vlog::VlogSim`]), Verilog tape
//! ([`vlog::VlogTape`]) — plus the scaling of the **parallel grid**
//! ([`sim_core::GridExec`] over the FSMD tape, against the same trials
//! run sequentially) on the locked benchmark kernels, prints the table,
//! and fails when a backend falls below its floor relative to another
//! measured in the same process.
//! `reproduce -- sim-bench-smoke` runs a CI-sized subset under the same
//! floors. Both sides of each ratio share one process and one machine,
//! so the floors need no recorded baseline; performance across changes
//! is tracked by the `perfbench/` benchmark.

use crate::experiments::{locking_key, test_case};
use hls_core::verilog;
use rtl::{rtl_outputs, CompiledFsmd, SimOptions, TestCase};
use sim_core::GridExec;
use std::time::Instant;
use tao::TaoOptions;
use vlog::{vlog_outputs, VlogSim, VlogTape};

/// The compiled Verilog backend must beat this multiple of the tree
/// walker measured in the same process, else the run fails. The tape
/// backend measures an order of magnitude faster in release builds; 2x
/// leaves headroom for noisy CI machines while still catching a
/// de-compiled hot path.
pub const VLOG_TAPE_FLOOR: f64 = 2.0;

/// Grid scaling floor: with at least [`GRID_FLOOR_MIN_WORKERS`] workers
/// the parallel (case × key) grid must run the same trials at least this
/// many times faster than the sequential grid.
pub const GRID_FLOOR: f64 = 2.0;

/// The grid floor only applies on runners with this many cores —
/// below that, perfect scaling could not reach the floor anyway.
pub const GRID_FLOOR_MIN_WORKERS: usize = 4;

/// One kernel's throughput measurements (cycles simulated per second).
#[derive(Debug, Clone, PartialEq)]
pub struct SimBenchRow {
    /// Benchmark name.
    pub name: String,
    /// Correct-key latency in cycles (the per-run work unit).
    pub cycles: u64,
    /// FSMD tree-walking backend.
    pub fsmd_tree_cps: f64,
    /// FSMD compiled-tape backend.
    pub fsmd_tape_cps: f64,
    /// Verilog-text tree-walking backend.
    pub vlog_tree_cps: f64,
    /// Verilog-text compiled-tape backend.
    pub vlog_tape_cps: f64,
    /// The correct-key run as 25 trials of a parallel grid on the FSMD
    /// tape backend, all cores.
    pub grid_cps: f64,
    /// The same grid on [`GridExec::sequential`].
    pub grid_seq_cps: f64,
    /// Worker threads the grid measurement ran with.
    pub grid_workers: usize,
}

impl SimBenchRow {
    /// Compiled-vs-tree speedup of the Verilog backend.
    pub fn vlog_speedup(&self) -> f64 {
        self.vlog_tape_cps / self.vlog_tree_cps
    }

    /// Compiled-vs-tree speedup of the FSMD backend.
    pub fn fsmd_speedup(&self) -> f64 {
        self.fsmd_tape_cps / self.fsmd_tree_cps
    }

    /// Parallel-vs-sequential grid speedup over the same trials (the
    /// parallel scaling factor, perfbench's `grid.speedup`).
    pub fn grid_speedup(&self) -> f64 {
        self.grid_cps / self.grid_seq_cps
    }
}

/// Times `run` (one full simulation per call) until `min_ms` of wall
/// clock accumulate, and returns cycles/second.
fn throughput(cycles_per_run: u64, min_ms: u64, mut run: impl FnMut()) -> f64 {
    run(); // warm-up, outside the timed window
    let mut runs = 0u64;
    let t0 = Instant::now();
    loop {
        run();
        runs += 1;
        let elapsed = t0.elapsed();
        if elapsed.as_millis() as u64 >= min_ms {
            return (runs * cycles_per_run) as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Measures the four backends plus the parallel grid on one locked
/// kernel.
fn bench_kernel(name: &str, min_ms: u64) -> SimBenchRow {
    let b = benchmarks::by_name(name).expect("suite kernel");
    let lk = locking_key(0x5eed);
    let m = b.compile().expect("kernel compiles");
    let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).expect("lock succeeds");
    let wk = d.working_key(&lk);
    let case: TestCase = test_case(&b, &d, 1);
    let opts = SimOptions::default();

    let text = verilog::emit(&d.fsmd);
    let vtree = VlogSim::new(&text).expect("emitted text parses");
    let vtape = VlogTape::compile(&vtree).expect("emitted text tape-compiles");
    let ctape = CompiledFsmd::compile(&d.fsmd);

    let cycles = rtl_outputs(&d.fsmd, &case, &wk, &opts).expect("correct key runs").1.cycles;

    let fsmd_tree_cps = throughput(cycles, min_ms, || {
        rtl_outputs(&d.fsmd, &case, &wk, &opts).expect("fsmd tree");
    });
    // The reused runner matches the batch pattern every sweep consumer
    // uses: the key binds once, then every run reuses the buffers.
    let mut frun = ctape.runner();
    let fsmd_tape_cps = throughput(cycles, min_ms, || {
        frun.run_case(&case, &wk, &opts).expect("fsmd tape");
    });
    let vlog_tree_cps = throughput(cycles, min_ms, || {
        vlog_outputs(&vtree, &case, &wk, &opts, &d.fsmd.mem_of_array).expect("vlog tree");
    });
    let mut vrun = vtape.runner();
    let vlog_tape_cps = throughput(cycles, min_ms, || {
        vrun.run_case(&case, &wk, &opts, &d.fsmd.mem_of_array).expect("vlog tape");
    });

    // Parallel scaling: the correct-key run as 25 trials of one grid
    // (the key repeats, so each worker binds it once), on all cores and
    // on the calling thread. Every trial is the same finishing run, so
    // the ratio measures the executor and not the trial mix: wrong-key
    // trials that loop are fast-forwarded to their budget and cost from
    // under 1 µs to a whole budget each, so the longest of them would
    // bound the speedup (1.5x on sobel at any worker count). 25 trials
    // keep the steal granularity fine enough that a 4-worker runner can
    // approach its ideal scaling.
    let keys = vec![wk.clone(); 25];
    let exec = GridExec::default();
    let cases = std::slice::from_ref(&case);
    let grid_workers = exec.workers_for(keys.len());
    let grid_cycles = cycles * keys.len() as u64;
    let grid_cps = throughput(grid_cycles, min_ms, || {
        exec.grid(&ctape, cases, &keys, &opts);
    });
    let grid_seq_cps = throughput(grid_cycles, min_ms, || {
        GridExec::sequential().grid(&ctape, cases, &keys, &opts);
    });

    SimBenchRow {
        name: name.to_string(),
        cycles,
        fsmd_tree_cps,
        fsmd_tape_cps,
        vlog_tree_cps,
        vlog_tape_cps,
        grid_cps,
        grid_seq_cps,
        grid_workers,
    }
}

/// Full sweep: every suite kernel, ~0.4 s per backend measurement.
pub fn sim_bench() -> Vec<SimBenchRow> {
    benchmarks::all().iter().map(|b| bench_kernel(b.name, 400)).collect()
}

/// CI-sized sweep: two kernels, ~0.15 s per backend measurement.
pub fn sim_bench_smoke() -> Vec<SimBenchRow> {
    ["sobel", "gsm"].iter().map(|n| bench_kernel(n, 150)).collect()
}

/// Human-readable throughput table.
pub fn render_sim_bench(rows: &[SimBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Simulator throughput (cycles/s; tape = compiled backend; grid = the correct-key \
         run as 25 parallel trials; scaling = grid vs the same trials run sequentially)\n",
    );
    out.push_str(&format!(
        "{:<10} {:>9} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>12} {:>8} {:>8}\n",
        "kernel",
        "cycles",
        "fsmd-tree",
        "fsmd-tape",
        "speedup",
        "vlog-tree",
        "vlog-tape",
        "speedup",
        "grid",
        "scaling",
        "workers"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9} {:>12.0} {:>12.0} {:>7.1}x {:>12.0} {:>12.0} {:>7.1}x {:>12.0} \
             {:>7.1}x {:>8}\n",
            r.name,
            r.cycles,
            r.fsmd_tree_cps,
            r.fsmd_tape_cps,
            r.fsmd_speedup(),
            r.vlog_tree_cps,
            r.vlog_tape_cps,
            r.vlog_speedup(),
            r.grid_cps,
            r.grid_speedup(),
            r.grid_workers,
        ));
    }
    out
}

/// `Err` with the offending rows when any kernel's compiled Verilog
/// backend falls below `floor ×` the tree walker measured in the same
/// process.
///
/// # Errors
///
/// Returns the list of violations, one line per failing kernel.
pub fn check_floor(rows: &[SimBenchRow], floor: f64) -> Result<(), Vec<String>> {
    let violations: Vec<String> = rows
        .iter()
        .filter(|r| r.vlog_speedup() < floor)
        .map(|r| {
            format!(
                "{}: vlog tape {:.0} cycles/s is only {:.2}x the tree backend ({:.0}), floor {floor}x",
                r.name,
                r.vlog_tape_cps,
                r.vlog_speedup(),
                r.vlog_tree_cps,
            )
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// `Err` with the offending rows when a kernel's parallel grid, measured
/// with at least [`GRID_FLOOR_MIN_WORKERS`] workers, runs its trials less
/// than `floor ×` as fast as the sequential grid runs the same trials.
/// On smaller machines the check passes vacuously — the floor is a
/// *scaling* gate, meaningful only where scaling is possible.
///
/// # Errors
///
/// Returns the list of violations, one line per failing kernel.
pub fn check_grid_floor(rows: &[SimBenchRow], floor: f64) -> Result<(), Vec<String>> {
    let violations: Vec<String> = rows
        .iter()
        .filter(|r| r.grid_workers >= GRID_FLOOR_MIN_WORKERS && r.grid_speedup() < floor)
        .map(|r| {
            format!(
                "{}: grid on {} workers is only {:.2}x the sequential grid over the same trials \
                 ({:.0} vs {:.0} cycles/s), floor {floor}x",
                r.name,
                r.grid_workers,
                r.grid_speedup(),
                r.grid_cps,
                r.grid_seq_cps,
            )
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

// ----------------------------------------------------------- grid smoke

/// CI-sized parallel-sweep check: a locked kernel's (case × key) grid on
/// ≥ 2 workers must be bit-identical to the 1-worker grid. Returns a
/// human-readable summary.
///
/// # Panics
///
/// Panics when the parallel grid diverges from the sequential one — a
/// determinism bug in the executor or a stateful runner.
pub fn grid_smoke() -> String {
    let b = benchmarks::by_name("sobel").expect("suite kernel");
    let lk = locking_key(0x981d);
    let m = b.compile().expect("kernel compiles");
    let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).expect("lock succeeds");
    let wk = d.working_key(&lk);
    let cases: Vec<TestCase> = (0..2u64).map(|s| test_case(&b, &d, 40 + s)).collect();
    let mut keys = vec![wk];
    for i in 0..6u64 {
        keys.push(d.working_key(&locking_key(0x3a0 ^ (i + 1))));
    }
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let budget = SimOptions { max_cycles: 2_000_000, snapshot_on_timeout: true };

    let seq = GridExec::sequential().grid(&ctape, &cases, &keys, &budget);
    let workers = GridExec::default().workers_for(keys.len() * cases.len()).max(2);
    let t0 = Instant::now();
    let par = GridExec::new(workers).grid(&ctape, &cases, &keys, &budget);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(par, seq, "parallel grid diverged from the 1-worker grid");
    let cycles: u64 = par.iter().flatten().map(|r| r.as_ref().expect("snapshot mode").cycles).sum();
    format!(
        "grid-smoke: {} trials ({} cases x {} keys) on {} workers, {} cycles, {:.1}M cycles/s, \
         bit-identical to sequential",
        cases.len() * keys.len(),
        cases.len(),
        keys.len(),
        workers,
        cycles,
        cycles as f64 / secs / 1e6,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, grid_cps: f64, grid_workers: usize) -> SimBenchRow {
        // The sequential grid runs at the single-thread tape's rate.
        SimBenchRow {
            name: name.into(),
            cycles: 100,
            fsmd_tree_cps: 1.0e6,
            fsmd_tape_cps: 3.0e6,
            vlog_tree_cps: 1.0e6,
            vlog_tape_cps: 10.0e6,
            grid_cps,
            grid_seq_cps: 3.0e6,
            grid_workers,
        }
    }

    #[test]
    fn vlog_floor_gates_the_tape_ratio() {
        // 10x over the tree: passes the 2x floor, fails a 20x floor.
        let rows = vec![row("k", 9.0e6, 4)];
        assert!(check_floor(&rows, VLOG_TAPE_FLOOR).is_ok());
        let err = check_floor(&rows, 20.0).unwrap_err();
        assert!(err[0].contains("only 10.00x"), "{err:?}");
        assert!(render_sim_bench(&rows).contains("10.0x"));
    }

    #[test]
    fn grid_floor_gates_scaling_over_the_same_trials() {
        // 3x the sequential grid on 4 workers: passes a 2x floor, fails
        // a 4x floor.
        let scaled = vec![row("k", 9.0e6, 4)];
        assert!(check_grid_floor(&scaled, 2.0).is_ok());
        let err = check_grid_floor(&scaled, 4.0).unwrap_err();
        assert!(err[0].contains("only 3.00x the sequential grid"), "{err:?}");
        // A grid far above the single-thread tape, but no faster than
        // its own sequential run, does not scale.
        let mut flat = scaled.clone();
        flat[0].grid_seq_cps = 9.0e6;
        assert!(check_grid_floor(&flat, 2.0).is_err());
        // No scaling on 1 worker: vacuously fine (none possible).
        let single = vec![row("k", 2.9e6, 1)];
        assert!(check_grid_floor(&single, 2.0).is_ok());
    }

    #[test]
    fn throughput_measures_positive_rates() {
        let mut n = 0u64;
        let cps = throughput(10, 1, || n += 1);
        assert!(cps > 0.0);
        assert!(n >= 2); // warm-up + at least one timed run
    }
}
