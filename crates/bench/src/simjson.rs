//! Machine-readable simulator-throughput benchmark: `BENCH_sim.json`.
//!
//! The ROADMAP's north star is "as fast as the hardware allows", so the
//! simulator backends' throughput is a tracked, checked-in artifact.
//! `reproduce -- bench-json` measures cycles/second for
//! all five backends — FSMD tree ([`rtl::simulate`]), FSMD tape
//! ([`rtl::CompiledFsmd`]), the bind-time specialized threaded code
//! ([`rtl::SpecFsmd`], schema v5), Verilog tree ([`vlog::VlogSim`]),
//! Verilog tape ([`vlog::VlogTape`]) — plus the **parallel (case × key)
//! grid**
//! ([`sim_core::GridExec`] over the FSMD tape) on the locked benchmark
//! kernels, and writes the rows as JSON so the perf trajectory is
//! diffable across PRs. `reproduce -- bench-json-smoke` runs a CI-sized
//! subset and *fails* when the compiled Verilog backend drops below the
//! regression floor relative to the tree walker measured in the same
//! process.
//!
//! `reproduce -- bench-diff` closes the trajectory loop: it re-measures
//! a fresh full sweep, diffs it against the checked-in `BENCH_sim.json`
//! baseline per kernel and per backend, and fails when a
//! machine-independent in-process speedup ratio (tape vs tree) drops by
//! more than 30%. Absolute cycles/s deltas are printed as context only
//! — the baseline was recorded on a different machine than CI runs on,
//! so gating them would flag hardware, not code. On runners that
//! measure a grid scaling curve (≥ [`GRID_FLOOR_MIN_WORKERS`] cores)
//! the in-process w4/w1 ratio additionally gates: against the
//! baseline's ratio at [`BENCH_DIFF_MAX_DROP`], and against the
//! absolute [`GRID_CURVE_FLOOR`].

use crate::experiments::{locking_key, test_case};
use hls_core::verilog;
use rtl::{rtl_outputs, CompiledFsmd, SimOptions, SpecFsmd, TestCase};
use sim_core::GridExec;
use std::time::Instant;
use tao::TaoOptions;
use vlog::{vlog_outputs, VlogSim, VlogTape};

/// Smoke mode must beat this ratio of compiled-vs-tree Verilog
/// throughput, else the CI step fails. The tape backend measures an
/// order of magnitude faster in release builds; 2x leaves headroom for
/// noisy CI machines while still catching a de-compiled hot path.
pub const VLOG_TAPE_FLOOR: f64 = 2.0;

/// The bind-time specialized backend ([`rtl::SpecFsmd`]) must beat this
/// multiple of the FSMD tape backend measured in the same process, else
/// the CI step fails: the threaded-code lowering exists to out-dispatch
/// the tape interpreter, and this floor is the contract (schema v5).
pub const SPEC_FLOOR: f64 = 1.5;

/// Grid-vs-single-thread floor: with at least [`GRID_FLOOR_MIN_WORKERS`]
/// workers the parallel (case × key) grid must deliver at least this
/// multiple of the single-thread tape throughput.
pub const GRID_FLOOR: f64 = 2.0;

/// The grid floor only applies on runners with this many cores —
/// below that, perfect scaling could not reach the floor anyway.
pub const GRID_FLOOR_MIN_WORKERS: usize = 4;

/// Absolute floor on the measured w4/w1 grid scaling-curve ratio
/// (ROADMAP item 5): on a runner that recorded a curve (≥
/// [`GRID_FLOOR_MIN_WORKERS`] cores), four workers must deliver at
/// least this multiple of the one-worker grid measured in the same
/// process. The ratio is machine-independent, so it gates wherever a
/// curve exists.
pub const GRID_CURVE_FLOOR: f64 = 1.5;

/// `bench-diff` fails when a tracked throughput metric drops by more
/// than this fraction against the checked-in baseline.
pub const BENCH_DIFF_MAX_DROP: f64 = 0.30;

/// `bench-diff` fails when a SAT-attack effort counter (`sat_dips`,
/// `sat_conflicts`) drops by more than this fraction against the
/// baseline: a halved effort means the lock got drastically easier to
/// break, which is a security regression, not noise. The threshold is
/// looser than the throughput gate because solver heuristics
/// legitimately wander.
pub const SAT_EFFORT_MAX_DROP: f64 = 0.50;

/// Unrolled cycles of the bounded SAT-attack effort probe (schema v3).
pub const SAT_PROBE_UNROLL: u32 = 8;

/// Worker counts the grid scaling curve samples (schema v4), capped at
/// the machine's core count.
pub const GRID_CURVE_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One kernel's throughput measurements (cycles simulated per second)
/// plus the bounded SAT-attack effort probe (schema v3) and the grid
/// scaling curve (schema v4).
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
    /// Bind-time specialized threaded-code backend (schema v5).
    pub spec_cps: f64,
    /// Verilog-text tree-walking backend.
    pub vlog_tree_cps: f64,
    /// Verilog-text compiled-tape backend.
    pub vlog_tape_cps: f64,
    /// Parallel (case × key) grid on the FSMD tape backend, all cores.
    pub grid_cps: f64,
    /// Worker threads the grid measurement ran with.
    pub grid_workers: usize,
    /// Distinguishing inputs the bounded SAT-attack probe found within
    /// its window ([`SAT_PROBE_UNROLL`] cycles) and conflict budget.
    pub sat_dips: u64,
    /// Solver conflicts the probe spent.
    pub sat_conflicts: u64,
    /// Wall-clock milliseconds the probe spent (schema v6). Machine-
    /// dependent, so `bench-diff` carries it as context, never a gate —
    /// the machine-independent effort counters above do the gating.
    pub sat_ms: f64,
    /// Grid scaling curve: `(workers, cycles/s)` at the
    /// [`GRID_CURVE_WORKERS`] counts the machine can actually run.
    /// Recorded only on runners with at least
    /// [`GRID_FLOOR_MIN_WORKERS`] cores — a 1-core curve measures the
    /// steal overhead, not the scaling — and empty elsewhere, so
    /// single-core CI never rewrites the checked-in curve.
    pub grid_curve: Vec<(usize, f64)>,
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

    /// Grid-vs-single-thread-tape speedup (the parallel scaling factor).
    pub fn grid_speedup(&self) -> f64 {
        self.grid_cps / self.fsmd_tape_cps
    }

    /// Specialized-vs-tape speedup of the FSMD backend (what bind-time
    /// lowering buys over the already-compiled interpreter).
    pub fn spec_speedup(&self) -> f64 {
        self.spec_cps / self.fsmd_tape_cps
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

/// Measures all four backends plus the parallel grid on one locked
/// kernel, then runs the bounded SAT-attack effort probe.
fn bench_kernel(name: &str, min_ms: u64, sat_budget: u64) -> SimBenchRow {
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
    // Specialized threaded code (schema v5): bind once per key, then
    // dispatch through pre-resolved fn-pointer handlers. The reused
    // runner matches the batch pattern every sweep consumer uses.
    //
    // The spec floor gates on the in-process spec/tape *ratio*, so the
    // two backends are measured as six *paired* rounds of adjacent short
    // windows and the pair with the median ratio is kept: both numbers
    // of the reported pair come from the same machine state (frequency,
    // co-tenant load), so a scheduler stall or boost window hitting only
    // one backend's sample can no longer move the gated ratio, and the
    // median rejects the outlier rounds entirely.
    let spec = SpecFsmd::compile(&d.fsmd);
    let mut frun = ctape.runner();
    let mut srun = spec.runner();
    let win = (min_ms / 2).max(50);
    let mut pairs: Vec<(f64, f64)> = (0..6)
        .map(|_| {
            let t = throughput(cycles, win, || {
                frun.run_case(&case, &wk, &opts).expect("fsmd tape");
            });
            let s = throughput(cycles, win, || {
                srun.run_case(&case, &wk, &opts).expect("spec");
            });
            (t, s)
        })
        .collect();
    pairs.sort_by(|x, y| (x.1 / x.0).total_cmp(&(y.1 / y.0)));
    let (fsmd_tape_cps, spec_cps) = pairs[pairs.len() / 2];
    let vlog_tree_cps = throughput(cycles, min_ms, || {
        vlog_outputs(&vtree, &case, &wk, &opts, &d.fsmd.mem_of_array).expect("vlog tree");
    });
    let mut vrun = vtape.runner();
    let vlog_tape_cps = throughput(cycles, min_ms, || {
        vrun.run_case(&case, &wk, &opts, &d.fsmd.mem_of_array).expect("vlog tape");
    });

    // Parallel (case × key) grid on the shared executor: the correct key
    // plus 24 deterministic wrong keys over the stimulus, with the
    // fixed-duration snapshot budget every sweep consumer uses. 25
    // trials keep the steal granularity fine enough that a 4-worker
    // runner can actually approach its ideal scaling (9 trials would cap
    // it at 3x and leave the 2x CI floor no noise margin). The work unit
    // is the total simulated cycle count of one whole grid.
    let mut keys = vec![wk.clone()];
    for i in 0..24u64 {
        keys.push(d.working_key(&locking_key(0x6e1d ^ (i + 1))));
    }
    let budget = SimOptions { max_cycles: cycles * 4 + 10_000, snapshot_on_timeout: true };
    let exec = GridExec::default();
    let cases = std::slice::from_ref(&case);
    let grid_workers = exec.workers_for(keys.len() * cases.len());
    let grid_cycles: u64 = exec
        .grid(&ctape, cases, &keys, &budget)
        .iter()
        .flatten()
        .map(|r| r.as_ref().expect("snapshot mode").cycles)
        .sum();
    let grid_cps = throughput(grid_cycles, min_ms, || {
        exec.grid(&ctape, cases, &keys, &budget);
    });

    // Grid scaling curve (schema v4): the same grid re-measured at
    // fixed worker counts, so the trajectory records *how* the executor
    // scales, not just its best case. Multi-core runners only.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut grid_curve = Vec::new();
    if cores >= GRID_FLOOR_MIN_WORKERS {
        for &w in GRID_CURVE_WORKERS.iter().filter(|&&w| w <= cores) {
            let wexec = GridExec::new(w);
            let cps = throughput(grid_cycles, min_ms, || {
                wexec.grid(&ctape, cases, &keys, &budget);
            });
            grid_curve.push((w, cps));
        }
    }

    // Bounded SAT-attack effort (schema v3): the full designs run
    // thousands of cycles, so the probe measures the budgeted
    // bounded-window attack — whether any key pair is distinguishable
    // within the window, and what it costs the solver to decide.
    let (sat_dips, sat_conflicts, sat_ms) =
        crate::satattack::sat_probe(name, SAT_PROBE_UNROLL, sat_budget);

    SimBenchRow {
        name: name.to_string(),
        cycles,
        fsmd_tree_cps,
        fsmd_tape_cps,
        spec_cps,
        vlog_tree_cps,
        vlog_tape_cps,
        grid_cps,
        grid_workers,
        sat_dips,
        sat_conflicts,
        sat_ms,
        grid_curve,
    }
}

/// Full sweep: every suite kernel, ~0.4 s per backend measurement.
pub fn sim_bench() -> Vec<SimBenchRow> {
    benchmarks::all().iter().map(|b| bench_kernel(b.name, 400, 2_000)).collect()
}

/// CI-sized sweep: two kernels, ~0.15 s per backend measurement and a
/// tighter probe budget.
pub fn sim_bench_smoke() -> Vec<SimBenchRow> {
    ["sobel", "gsm"].iter().map(|n| bench_kernel(n, 150, 500)).collect()
}

/// Serializes the rows as the `BENCH_sim.json` artifact.
pub fn sim_bench_json(rows: &[SimBenchRow], mode: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"tao-repro/bench-sim/v6\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"unit\": \"cycles_per_second\",\n");
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let curve: String =
            r.grid_curve.iter().map(|(w, cps)| format!("\"grid_w{w}\": {cps:.0}, ")).collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"fsmd_tree\": {:.0}, \
             \"fsmd_tape\": {:.0}, \"spec_cps\": {:.0}, \"vlog_tree\": {:.0}, \
             \"vlog_tape\": {:.0}, \
             \"grid_cps\": {:.0}, \"grid_workers\": {}, {}\
             \"sat_dips\": {}, \"sat_conflicts\": {}, \"sat_ms\": {:.1}, \
             \"fsmd_speedup\": {:.2}, \"spec_speedup\": {:.2}, \"vlog_speedup\": {:.2}, \
             \"grid_speedup\": {:.2}}}{}\n",
            r.name,
            r.cycles,
            r.fsmd_tree_cps,
            r.fsmd_tape_cps,
            r.spec_cps,
            r.vlog_tree_cps,
            r.vlog_tape_cps,
            r.grid_cps,
            r.grid_workers,
            curve,
            r.sat_dips,
            r.sat_conflicts,
            r.sat_ms,
            r.fsmd_speedup(),
            r.spec_speedup(),
            r.vlog_speedup(),
            r.grid_speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable table of the same rows.
pub fn render_sim_bench(rows: &[SimBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Simulator throughput (cycles/s; tape = compiled backend; spec = bind-time \
         specialized threaded code; grid = parallel case × key sweep)\n",
    );
    out.push_str(&format!(
        "{:<10} {:>9} {:>12} {:>12} {:>8} {:>12} {:>8} {:>12} {:>12} {:>8} {:>12} {:>8}\n",
        "kernel",
        "cycles",
        "fsmd-tree",
        "fsmd-tape",
        "speedup",
        "spec",
        "speedup",
        "vlog-tree",
        "vlog-tape",
        "speedup",
        "grid",
        "workers"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9} {:>12.0} {:>12.0} {:>7.1}x {:>12.0} {:>7.1}x {:>12.0} {:>12.0} \
             {:>7.1}x {:>12.0} {:>8}\n",
            r.name,
            r.cycles,
            r.fsmd_tree_cps,
            r.fsmd_tape_cps,
            r.fsmd_speedup(),
            r.spec_cps,
            r.spec_speedup(),
            r.vlog_tree_cps,
            r.vlog_tape_cps,
            r.vlog_speedup(),
            r.grid_cps,
            r.grid_workers,
        ));
        if !r.grid_curve.is_empty() {
            let pts: Vec<String> = r
                .grid_curve
                .iter()
                .map(|(w, cps)| format!("w{w}={:.1}x", cps / r.fsmd_tape_cps))
                .collect();
            out.push_str(&format!("           scaling: {}\n", pts.join(" ")));
        }
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

/// `Err` with the offending rows when any kernel's bind-time specialized
/// backend falls below `floor ×` the FSMD tape backend measured in the
/// same process (schema v5). Both run in one process on one machine, so
/// the ratio is machine-independent and gates unconditionally.
///
/// # Errors
///
/// Returns the list of violations, one line per failing kernel.
pub fn check_spec_floor(rows: &[SimBenchRow], floor: f64) -> Result<(), Vec<String>> {
    let violations: Vec<String> = rows
        .iter()
        .filter(|r| r.spec_speedup() < floor)
        .map(|r| {
            format!(
                "{}: specialized backend {:.0} cycles/s is only {:.2}x the fsmd tape \
                 ({:.0}), floor {floor}x",
                r.name,
                r.spec_cps,
                r.spec_speedup(),
                r.fsmd_tape_cps,
            )
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// `Err` with the offending rows when a kernel measured with at least
/// [`GRID_FLOOR_MIN_WORKERS`] workers delivers less than `floor ×` the
/// single-thread tape throughput. On smaller machines the check passes
/// vacuously — the floor is a *scaling* gate, meaningful only where
/// scaling is possible.
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
                "{}: grid {:.0} cycles/s on {} workers is only {:.2}x the single-thread tape \
                 ({:.0}), floor {floor}x",
                r.name,
                r.grid_cps,
                r.grid_workers,
                r.grid_speedup(),
                r.fsmd_tape_cps,
            )
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

// ----------------------------------------------------------- bench-diff

/// One kernel row parsed back from a checked-in `BENCH_sim.json`
/// (metrics as `(key, value)` pairs — tolerant of schema growth).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Kernel name.
    pub name: String,
    /// Numeric fields of the row, in file order.
    pub metrics: Vec<(String, f64)>,
}

impl BaselineRow {
    /// Looks up one metric by JSON key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Parses the `BENCH_sim.json` artifact (any schema version this repo
/// has written) back into per-kernel rows. The artifact is our own
/// single-purpose format — one kernel object per line — so a line
/// scanner is all the parsing it needs.
///
/// # Errors
///
/// Returns a description when no kernel rows are found.
pub fn parse_sim_bench_json(text: &str) -> Result<Vec<BaselineRow>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(name) = json_str_field(line, "name") else { continue };
        let mut metrics = Vec::new();
        let mut rest = line;
        while let Some(q) = rest.find('"') {
            rest = &rest[q + 1..];
            let Some(qe) = rest.find('"') else { break };
            let key = &rest[..qe];
            rest = &rest[qe + 1..];
            let Some(colon) = rest.strip_prefix(':').or_else(|| rest.strip_prefix(": ")) else {
                continue;
            };
            let num: String = colon
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            if let Ok(v) = num.parse::<f64>() {
                metrics.push((key.to_string(), v));
            }
        }
        rows.push(BaselineRow { name, metrics });
    }
    if rows.is_empty() {
        return Err("no kernel rows found in baseline JSON".into());
    }
    Ok(rows)
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// One (kernel, metric) comparison between a fresh run and the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Kernel name.
    pub kernel: String,
    /// Metric key (e.g. `fsmd_tape`).
    pub metric: String,
    /// Checked-in baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Maximum tolerated fractional drop before this delta fails the
    /// run, or `None` for context-only metrics. Absolute cycles/s
    /// depend on the machine the baseline was recorded on, so only the
    /// machine-independent metrics gate: the in-process tape-vs-tree
    /// speedup ratios (at [`BENCH_DIFF_MAX_DROP`]) and the SAT-attack
    /// effort counters (at [`SAT_EFFORT_MAX_DROP`]); the absolute
    /// columns and the grid scaling curve are printed as context.
    pub max_drop: Option<f64>,
}

impl BenchDelta {
    /// fresh / baseline (1.0 = unchanged, < 1 = regression).
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }

    /// Whether this metric can fail the run.
    pub fn gating(&self) -> bool {
        self.max_drop.is_some()
    }

    /// Whether this delta regresses past its own threshold.
    pub fn regressed(&self) -> bool {
        self.max_drop.is_some_and(|d| self.ratio() < 1.0 - d)
    }
}

/// Accessor for one tracked metric of a fresh row.
type MetricGetter = fn(&SimBenchRow) -> f64;

/// Metrics tracked by `bench-diff`: `(key, getter, max tolerated
/// fractional drop)`. Absolute throughputs (including `grid_cps`, which
/// additionally depends on the core count) are informational (`None`);
/// the in-process speedup ratios gate at [`BENCH_DIFF_MAX_DROP`], and
/// the SAT-attack effort counters — machine-independent measures of how
/// hard the lock resists — gate at the looser [`SAT_EFFORT_MAX_DROP`].
const DIFF_METRICS: [(&str, MetricGetter, Option<f64>); 12] = [
    ("fsmd_tree", |r| r.fsmd_tree_cps, None),
    ("fsmd_tape", |r| r.fsmd_tape_cps, None),
    ("spec_cps", |r| r.spec_cps, None),
    ("vlog_tree", |r| r.vlog_tree_cps, None),
    ("vlog_tape", |r| r.vlog_tape_cps, None),
    ("grid_cps", |r| r.grid_cps, None),
    ("sat_dips", |r| r.sat_dips as f64, Some(SAT_EFFORT_MAX_DROP)),
    ("sat_ms", |r| r.sat_ms, None),
    ("sat_conflicts", |r| r.sat_conflicts as f64, Some(SAT_EFFORT_MAX_DROP)),
    ("fsmd_speedup", |r| r.fsmd_speedup(), Some(BENCH_DIFF_MAX_DROP)),
    ("spec_speedup", |r| r.spec_speedup(), Some(BENCH_DIFF_MAX_DROP)),
    ("vlog_speedup", |r| r.vlog_speedup(), Some(BENCH_DIFF_MAX_DROP)),
];

/// Compares a fresh sweep against a parsed baseline, kernel by kernel
/// and metric by metric. Kernels or metrics absent from the baseline are
/// skipped (new kernels are wins, not regressions). Grid scaling-curve
/// points (`grid_w{n}`, schema v4) diff as context only when both sides
/// measured them — the baseline machine's curve says nothing about this
/// machine's.
pub fn diff_sim_bench(fresh: &[SimBenchRow], baseline: &[BaselineRow]) -> Vec<BenchDelta> {
    let mut deltas = Vec::new();
    for row in fresh {
        let Some(base) = baseline.iter().find(|b| b.name == row.name) else { continue };
        for (key, get, max_drop) in DIFF_METRICS {
            if let Some(bv) = base.metric(key) {
                if bv > 0.0 {
                    deltas.push(BenchDelta {
                        kernel: row.name.clone(),
                        metric: key.to_string(),
                        baseline: bv,
                        fresh: get(row),
                        max_drop,
                    });
                }
            }
        }
        for &(w, cps) in &row.grid_curve {
            let key = format!("grid_w{w}");
            if let Some(bv) = base.metric(&key) {
                if bv > 0.0 {
                    deltas.push(BenchDelta {
                        kernel: row.name.clone(),
                        metric: key,
                        baseline: bv,
                        fresh: cps,
                        max_drop: None,
                    });
                }
            }
        }
        // ROADMAP item 5's gate: when both sides measured the curve's
        // 1- and 4-worker points, the in-process w4/w1 *ratio* is
        // machine-independent and gates like the other speedup ratios.
        if let (Some(ratio), Some(bw1), Some(bw4)) =
            (grid_curve_ratio(row), base.metric("grid_w1"), base.metric("grid_w4"))
        {
            if bw1 > 0.0 {
                deltas.push(BenchDelta {
                    kernel: row.name.clone(),
                    metric: "grid_w4_w1".to_string(),
                    baseline: bw4 / bw1,
                    fresh: ratio,
                    max_drop: Some(BENCH_DIFF_MAX_DROP),
                });
            }
        }
    }
    deltas
}

/// The fresh w4/w1 scaling ratio of a row's grid curve, when the run
/// measured both points (i.e. the runner had ≥ 4 cores).
fn grid_curve_ratio(row: &SimBenchRow) -> Option<f64> {
    let at = |n| row.grid_curve.iter().find(|&&(w, _)| w == n).map(|&(_, cps)| cps);
    match (at(1), at(4)) {
        (Some(w1), Some(w4)) if w1 > 0.0 => Some(w4 / w1),
        _ => None,
    }
}

/// `Err` with the offending rows when a kernel that measured a grid
/// scaling curve (≥ [`GRID_FLOOR_MIN_WORKERS`] cores — smaller runners
/// pass vacuously) delivers a w4/w1 ratio below `floor`.
///
/// # Errors
///
/// Returns the list of violations, one line per failing kernel.
pub fn check_grid_curve_floor(rows: &[SimBenchRow], floor: f64) -> Result<(), Vec<String>> {
    let violations: Vec<String> = rows
        .iter()
        .filter_map(|r| {
            let ratio = grid_curve_ratio(r)?;
            (ratio < floor).then(|| {
                format!(
                    "{}: grid curve w4/w1 ratio {ratio:.2}x is below the {floor}x scaling floor",
                    r.name,
                )
            })
        })
        .collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// The gating deltas regressing past their own per-metric threshold
/// (e.g. a speedup ratio below 70% of baseline, or a SAT effort counter
/// below 50%). Non-gating (absolute, machine-dependent) deltas never
/// fail the run.
pub fn bench_regressions(deltas: &[BenchDelta]) -> Vec<&BenchDelta> {
    deltas.iter().filter(|d| d.regressed()).collect()
}

/// Human-readable per-kernel delta table (`*` marks gating metrics).
pub fn render_bench_diff(deltas: &[BenchDelta]) -> String {
    let mut out = String::new();
    out.push_str("Throughput vs checked-in BENCH_sim.json baseline (* = gating ratio)\n");
    out.push_str(&format!(
        "{:<10} {:<14} {:>14} {:>14} {:>8}\n",
        "kernel", "metric", "baseline", "fresh", "delta"
    ));
    for d in deltas {
        let marker = if d.gating() { "*" } else { "" };
        out.push_str(&format!(
            "{:<10} {:<14} {:>14.2} {:>14.2} {:>+7.1}%\n",
            d.kernel,
            format!("{}{marker}", d.metric),
            d.baseline,
            d.fresh,
            (d.ratio() - 1.0) * 100.0,
        ));
    }
    out
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

// ----------------------------------------------------------- spec smoke

/// CI-sized specialization check: a locked kernel's (case × key) grid on
/// the bind-time specialized backend must be bit-identical to the
/// 1-worker tape grid — same stats, same errors, correct key and wrong
/// keys alike. Returns a human-readable summary.
///
/// # Panics
///
/// Panics when the specialized grid diverges from the tape — a lowering
/// bug (folded constant, elided arm, hazard routing) or a stateful
/// runner.
pub fn spec_smoke() -> String {
    let b = benchmarks::by_name("sobel").expect("suite kernel");
    let lk = locking_key(0x51ec);
    let m = b.compile().expect("kernel compiles");
    let d = tao::lock(&m, b.top, &lk, &TaoOptions::default()).expect("lock succeeds");
    let wk = d.working_key(&lk);
    let cases: Vec<TestCase> = (0..2u64).map(|s| test_case(&b, &d, 60 + s)).collect();
    let mut keys = vec![wk];
    for i in 0..6u64 {
        keys.push(d.working_key(&locking_key(0x77b ^ (i + 1))));
    }
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let spec = SpecFsmd::from_compiled(ctape.clone());
    let budget = SimOptions { max_cycles: 2_000_000, snapshot_on_timeout: true };

    let seq = GridExec::sequential().grid(&ctape, &cases, &keys, &budget);
    let workers = GridExec::default().workers_for(keys.len() * cases.len()).max(2);
    let t0 = Instant::now();
    let sg = GridExec::new(workers).grid(&spec, &cases, &keys, &budget);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sg, seq, "specialized grid diverged from the sequential tape grid");
    let cycles: u64 = sg.iter().flatten().map(|r| r.as_ref().expect("snapshot mode").cycles).sum();
    format!(
        "spec-smoke: {} trials ({} cases x {} keys) on {} workers, {} cycles, {:.1}M cycles/s, \
         specialized backend bit-identical to sequential tape",
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
        SimBenchRow {
            name: name.into(),
            cycles: 100,
            fsmd_tree_cps: 1.0e6,
            fsmd_tape_cps: 3.0e6,
            spec_cps: 6.0e6,
            vlog_tree_cps: 1.0e6,
            vlog_tape_cps: 10.0e6,
            grid_cps,
            grid_workers,
            sat_dips: 2,
            sat_conflicts: 900,
            sat_ms: 12.5,
            grid_curve: Vec::new(),
        }
    }

    #[test]
    fn json_shape_and_floor_check() {
        let rows = vec![row("k", 9.0e6, 4)];
        let json = sim_bench_json(&rows, "test");
        assert!(json.contains("\"schema\": \"tao-repro/bench-sim/v6\""));
        assert!(json.contains("\"sat_dips\": 2"));
        assert!(json.contains("\"sat_conflicts\": 900"));
        assert!(json.contains("\"sat_ms\": 12.5"));
        assert!(json.contains("\"vlog_speedup\": 10.00"));
        assert!(json.contains("\"spec_cps\": 6000000"));
        assert!(json.contains("\"spec_speedup\": 2.00"));
        assert!(json.contains("\"grid_cps\": 9000000"));
        assert!(json.contains("\"grid_workers\": 4"));
        assert!(check_floor(&rows, 2.0).is_ok());
        assert!(check_floor(&rows, 20.0).is_err());
        assert!(!render_sim_bench(&rows).is_empty());
    }

    #[test]
    fn spec_floor_gates_the_specialization_ratio() {
        // 2x over the tape: passes the 1.5x floor, fails a 3x floor.
        let rows = vec![row("k", 9.0e6, 4)];
        assert!(check_spec_floor(&rows, SPEC_FLOOR).is_ok());
        assert!(check_spec_floor(&rows, 3.0).is_err());
        // A de-specialized backend (slower than the tape) always fails.
        let mut slow = rows.clone();
        slow[0].spec_cps = 2.0e6;
        let err = check_spec_floor(&slow, SPEC_FLOOR).unwrap_err();
        assert!(err[0].contains("only 0.67x"), "{err:?}");
    }

    #[test]
    fn grid_floor_applies_only_on_multi_core_runners() {
        // 3x scaling on 4 workers: passes a 2x floor, fails a 4x floor.
        let scaled = vec![row("k", 9.0e6, 4)];
        assert!(check_grid_floor(&scaled, 2.0).is_ok());
        assert!(check_grid_floor(&scaled, 4.0).is_err());
        // Same ratio on 1 worker: vacuously fine (no scaling possible).
        let single = vec![row("k", 2.9e6, 1)];
        assert!(check_grid_floor(&single, 2.0).is_ok());
    }

    #[test]
    fn baseline_roundtrip_and_diff() {
        let baseline_rows = vec![row("gsm", 9.0e6, 4), row("sobel", 8.0e6, 4)];
        let json = sim_bench_json(&baseline_rows, "full");
        let parsed = parse_sim_bench_json(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "gsm");
        assert_eq!(parsed[0].metric("fsmd_tape"), Some(3.0e6));
        assert_eq!(parsed[1].metric("grid_cps"), Some(8.0e6));

        // A fresh run 45% slower on one backend of one kernel: the
        // absolute column reports it, the speedup ratio gates it.
        let mut fresh = baseline_rows.clone();
        fresh[1].vlog_tape_cps = 5.5e6;
        let deltas = diff_sim_bench(&fresh, &parsed);
        assert_eq!(deltas.len(), 24); // 2 kernels x 12 tracked metrics
        let regs = bench_regressions(&deltas);
        assert_eq!(regs.len(), 1);
        assert_eq!((regs[0].kernel.as_str(), regs[0].metric.as_str()), ("sobel", "vlog_speedup"));
        assert!(!render_bench_diff(&deltas).is_empty());
    }

    #[test]
    fn sat_effort_drop_gates_at_its_own_threshold() {
        let baseline_rows = vec![row("gsm", 9.0e6, 4)];
        let parsed = parse_sim_bench_json(&sim_bench_json(&baseline_rows, "full")).unwrap();
        // A 40% conflict drop is within the 50% effort tolerance…
        let mut fresh = baseline_rows.clone();
        fresh[0].sat_conflicts = 540;
        assert!(bench_regressions(&diff_sim_bench(&fresh, &parsed)).is_empty());
        // …but losing more than half the effort fails the run.
        fresh[0].sat_conflicts = 400;
        let deltas = diff_sim_bench(&fresh, &parsed);
        let regs = bench_regressions(&deltas);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "sat_conflicts");
        assert_eq!(regs[0].max_drop, Some(SAT_EFFORT_MAX_DROP));
        // Dropping every DIP trips the companion counter too.
        fresh[0].sat_dips = 0;
        assert_eq!(bench_regressions(&diff_sim_bench(&fresh, &parsed)).len(), 2);
    }

    #[test]
    fn grid_curve_round_trips_as_context() {
        let mut base = row("gsm", 9.0e6, 4);
        base.grid_curve = vec![(1, 3.0e6), (2, 5.5e6), (4, 9.0e6)];
        let json = sim_bench_json(&[base.clone()], "full");
        assert!(json.contains("\"grid_w1\": 3000000"));
        assert!(json.contains("\"grid_w4\": 9000000"));
        let parsed = parse_sim_bench_json(&json).unwrap();
        assert_eq!(parsed[0].metric("grid_w2"), Some(5.5e6));

        // A fresh curve half as steep: the raw points stay context,
        // but the collapsed w4/w1 ratio gates — and this one (1.07x vs
        // the baseline's 3.0x) fails it.
        let mut fresh = base.clone();
        fresh.grid_curve = vec![(1, 3.0e6), (2, 3.1e6), (4, 3.2e6)];
        let deltas = diff_sim_bench(&[fresh], &parsed);
        let points: Vec<_> = deltas
            .iter()
            .filter(|d| d.metric.starts_with("grid_w") && d.baseline > 1.0e5)
            .collect();
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|d| !d.gating()));
        let regs = bench_regressions(&deltas);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "grid_w4_w1");

        // A 1-core fresh run measures no curve: the baseline's points
        // are skipped, not treated as regressions.
        let mut flat = base.clone();
        flat.grid_curve.clear();
        let deltas = diff_sim_bench(&[flat], &parsed);
        assert!(deltas.iter().all(|d| !d.metric.starts_with("grid_w")));
        // The scaling line only renders when a curve was measured.
        assert!(render_sim_bench(&[base]).contains("scaling: w1=1.0x"));
    }

    #[test]
    fn grid_curve_ratio_gates_and_floors() {
        // Healthy scaling: 3x at w4 — both the diff gate and the
        // absolute floor pass.
        let mut base = row("gsm", 9.0e6, 4);
        base.grid_curve = vec![(1, 3.0e6), (2, 5.5e6), (4, 9.0e6)];
        let parsed = parse_sim_bench_json(&sim_bench_json(&[base.clone()], "full")).unwrap();
        let deltas = diff_sim_bench(&[base.clone()], &parsed);
        let gate = deltas.iter().find(|d| d.metric == "grid_w4_w1").expect("curve ratio gates");
        assert!(gate.gating());
        assert!((gate.ratio() - 1.0).abs() < 1e-9, "identical runs don't regress");
        assert!(check_grid_curve_floor(&[base.clone()], GRID_CURVE_FLOOR).is_ok());

        // De-scaled executor: fails the absolute floor with a message.
        let mut flat = base.clone();
        flat.grid_curve = vec![(1, 3.0e6), (4, 3.3e6)];
        let err = check_grid_curve_floor(&[flat], GRID_CURVE_FLOOR).unwrap_err();
        assert!(err[0].contains("1.10x"), "{err:?}");

        // A 30%+ ratio drop against the baseline regresses even above
        // the absolute floor.
        let mut slower = base.clone();
        slower.grid_curve = vec![(1, 3.0e6), (2, 4.0e6), (4, 6.0e6)]; // 2.0x vs 3.0x
        let regs_metrics: Vec<String> = bench_regressions(&diff_sim_bench(&[slower], &parsed))
            .iter()
            .map(|d| d.metric.clone())
            .collect();
        assert_eq!(regs_metrics, ["grid_w4_w1"]);
        // Curve-less rows (1-core runners) pass the floor vacuously.
        assert!(check_grid_curve_floor(&[row("k", 1.0e6, 1)], GRID_CURVE_FLOOR).is_ok());
    }

    #[test]
    fn absolute_throughput_never_gates_across_machines() {
        // A uniformly 2x-slower machine: every absolute metric halves
        // but every in-process ratio is unchanged — no regression.
        let baseline_rows = vec![row("gsm", 9.0e6, 4)];
        let parsed = parse_sim_bench_json(&sim_bench_json(&baseline_rows, "full")).unwrap();
        let mut slow = baseline_rows.clone();
        slow[0].fsmd_tree_cps /= 2.0;
        slow[0].fsmd_tape_cps /= 2.0;
        slow[0].spec_cps /= 2.0;
        slow[0].vlog_tree_cps /= 2.0;
        slow[0].vlog_tape_cps /= 2.0;
        slow[0].grid_cps /= 2.0;
        let deltas = diff_sim_bench(&slow, &parsed);
        assert!(deltas.iter().any(|d| !d.gating() && d.ratio() < 0.6));
        assert!(bench_regressions(&deltas).is_empty());
    }

    #[test]
    fn old_baselines_without_grid_fields_still_diff() {
        let old = r#"{
  "schema": "tao-repro/bench-sim/v1",
  "kernels": [
    {"name": "gsm", "cycles": 100, "fsmd_tree": 1000000, "fsmd_tape": 3000000, "vlog_tree": 1000000, "vlog_tape": 10000000, "fsmd_speedup": 3.00, "vlog_speedup": 10.00}
  ]
}"#;
        let parsed = parse_sim_bench_json(old).unwrap();
        assert_eq!(parsed[0].metric("grid_cps"), None);
        let fresh = vec![row("gsm", 9.0e6, 4)];
        let deltas = diff_sim_bench(&fresh, &parsed);
        // grid_cps is skipped when the baseline predates it (4 absolute
        // columns + the 2 speedup ratios v1 already recorded).
        assert_eq!(deltas.len(), 6);
        assert!(bench_regressions(&deltas).is_empty());
    }

    #[test]
    fn throughput_measures_positive_rates() {
        let mut n = 0u64;
        let cps = throughput(10, 1, || n += 1);
        assert!(cps > 0.0);
        assert!(n >= 2); // warm-up + at least one timed run
    }
}
