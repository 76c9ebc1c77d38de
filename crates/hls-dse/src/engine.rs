//! The parallel exploration engine.
//!
//! Pipeline-prefix memoization: per kernel the front end runs once; per
//! (kernel, unroll) [`hls_core::prepare`] runs once; per (kernel, unroll,
//! allocation) scheduling/binding produce one baseline FSMD with its area
//! and golden outputs; per lattice point only the TAO half of the flow
//! ([`tao::lock_from_baseline`]) plus metric evaluation runs. Every phase
//! fans out over work-stealing worker threads; results land in
//! preallocated slots indexed by point id, so the report is bit-identical
//! for any worker count.

use crate::pareto::pareto_front;
use crate::report::{DsePoint, DseReport};
use crate::space::ConfigSpace;
use hls_core::{CostModel, Fsmd, HlsError, HlsOptions, KeyBits, Prepared};
use hls_frontend::FrontendError;
use hls_ir::Module;
use rtl::{
    golden_outputs, images_equal, CompiledFsmd, OutputImage, SimError, SimOptions, TestCase,
};
use sim_core::faultpoint::sites;
use sim_core::{Budget, GridExec, TrialCell};
use std::error::Error;
use std::fmt;
use tao::{KeySpace, TaoError};

/// One kernel to sweep: C source plus the stimulus driving latency and
/// sign-off simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Display name.
    pub name: String,
    /// C-subset source text.
    pub source: String,
    /// Function to synthesize.
    pub top: String,
    /// Scalar arguments of the top function.
    pub args: Vec<u64>,
    /// `(global array name, contents)` input stimuli.
    pub arrays: Vec<(String, Vec<u64>)>,
}

impl Kernel {
    /// A kernel with scalar arguments only.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        top: impl Into<String>,
        args: Vec<u64>,
    ) -> Kernel {
        Kernel {
            name: name.into(),
            source: source.into(),
            top: top.into(),
            args,
            arrays: Vec::new(),
        }
    }

    /// Adds named input-array stimuli.
    pub fn with_arrays(mut self, arrays: Vec<(String, Vec<u64>)>) -> Kernel {
        self.arrays = arrays;
        self
    }

    fn test_case(&self, module: &Module) -> TestCase {
        let mem_inputs = self
            .arrays
            .iter()
            .filter_map(|(name, data)| {
                module
                    .globals
                    .iter()
                    .find(|(_, o)| &o.name == name)
                    .map(|(id, _)| (*id, data.clone()))
            })
            .collect();
        TestCase { args: self.args.clone(), mem_inputs }
    }
}

/// Budgets for the optional per-point SAT-attack sign-off phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatSignoff {
    /// Stop each point's attack after this many distinguishing inputs.
    pub max_dips: u64,
    /// Solver conflict budget per point.
    pub conflict_budget: u64,
    /// Extra unrolled cycles beyond the point's measured latency.
    pub slack: u32,
}

impl Default for SatSignoff {
    fn default() -> Self {
        SatSignoff { max_dips: 8, conflict_budget: 50_000, slack: 8 }
    }
}

/// Engine options.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOptions {
    /// Worker threads (0 = one per available core). Results are identical
    /// for every value.
    pub threads: usize,
    /// Simulator budget for the per-point sign-off run.
    pub sim: SimOptions,
    /// When set, every point additionally runs a budgeted SAT attack
    /// against its emitted Verilog and records the measured effort
    /// (DIPs, conflicts) — upgrading the `attack_effort` axis from an
    /// estimate to a measurement. Expensive; keep the budgets tight.
    pub sat_signoff: Option<SatSignoff>,
    /// Cooperative cancellation + wall-clock deadline. Checked at every
    /// phase boundary and per evaluated point: a cancelled or expired
    /// sweep returns the partial front explored so far (with
    /// [`DseReport::was_cancelled`] set) instead of vanishing. Also
    /// forwarded into the per-point SAT sign-off and the grid executor,
    /// and carries the armed fault plan for the `dse.phase` / `dse.point`
    /// sites.
    pub budget: Budget,
    /// Telemetry handle (disabled by default). Enabled, the sweep
    /// records per-phase `dse.*` spans with point throughput, the
    /// `dse.prepared` / `dse.baselines` / `dse.points` and memo
    /// hit/miss counters, and forwards the handle into the grid
    /// executor and the sign-off SAT attack.
    pub obs: obs::Obs,
    /// Live progress feed (disabled by default). Enabled, the sweep
    /// announces `kernels × space` design points up front (the total is
    /// deterministic at any worker count), walks the `dse-frontend` /
    /// `dse-prepare` / `dse-schedule` / `dse-evaluate` phases, and
    /// ticks once per evaluated point.
    pub progress: obs::ProgressTracker,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            threads: 0,
            sim: SimOptions::default(),
            sat_signoff: None,
            budget: Budget::unlimited(),
            obs: obs::Obs::off(),
            progress: obs::ProgressTracker::off(),
        }
    }
}

/// Exploration errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DseError {
    /// A kernel failed to compile.
    Frontend(FrontendError),
    /// Baseline synthesis failed.
    Hls(HlsError),
    /// Locking failed.
    Tao(TaoError),
    /// The sign-off simulation failed.
    Sim(SimError),
    /// The configuration space or kernel suite is empty.
    Empty,
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Frontend(e) => write!(f, "kernel compile: {e}"),
            DseError::Hls(e) => write!(f, "baseline synthesis: {e}"),
            DseError::Tao(e) => write!(f, "lock: {e}"),
            DseError::Sim(e) => write!(f, "simulation: {e}"),
            DseError::Empty => write!(f, "nothing to explore (empty space or kernel suite)"),
        }
    }
}

impl Error for DseError {}

impl From<FrontendError> for DseError {
    fn from(e: FrontendError) -> Self {
        DseError::Frontend(e)
    }
}

impl From<HlsError> for DseError {
    fn from(e: HlsError) -> Self {
        DseError::Hls(e)
    }
}

impl From<TaoError> for DseError {
    fn from(e: TaoError) -> Self {
        DseError::Tao(e)
    }
}

impl From<SimError> for DseError {
    fn from(e: SimError) -> Self {
        DseError::Sim(e)
    }
}

/// Seed of the deterministic 256-bit locking key every sweep shares.
const LOCKING_SEED: u64 = 0xD5E;

/// Deterministic 256-bit locking key for the sweep.
fn locking_key() -> KeyBits {
    let mut s = LOCKING_SEED.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    KeyBits::from_fn(256, || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    })
}

/// Work-stealing fan-out: evaluates `f(0..n)` on `threads` workers
/// through the shared [`sim_core::GridExec`] (the same executor every
/// grid consumer in the workspace uses) and returns the results in index
/// order, or the lowest-index error.
fn run_parallel<T, F>(exec: &GridExec, n: usize, f: F) -> Result<Vec<T>, DseError>
where
    T: Send,
    F: Fn(usize) -> Result<T, DseError> + Sync,
{
    let mut results = Vec::with_capacity(n);
    let mut first_err: Option<DseError> = None;
    for out in exec.run(n, || (), |(), i| f(i)) {
        match out {
            Ok(v) => results.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(results),
    }
}

/// Everything memoized per (kernel, unroll, allocation): the baseline
/// design and the per-baseline metrics every TAO point shares.
struct BaselineSlot {
    prepared_idx: usize,
    baseline: Fsmd,
    baseline_area: f64,
}

/// Per (kernel, unroll): the prepared module, the resolved stimulus and
/// the golden output image.
struct PreparedSlot {
    prepared: Prepared,
    case: TestCase,
    golden: OutputImage,
}

/// Sweeps `space` over `kernels` and extracts the per-kernel Pareto
/// fronts.
///
/// # Errors
///
/// Returns the first (lowest-index) [`DseError`] if any kernel fails to
/// compile, synthesize, lock or simulate — a sweep is only useful if every
/// point is sound.
pub fn explore(
    kernels: &[Kernel],
    space: &ConfigSpace,
    opts: &DseOptions,
) -> Result<DseReport, DseError> {
    if kernels.is_empty() || space.is_empty() {
        return Err(DseError::Empty);
    }
    let cm = CostModel::default();
    let lk = locking_key();
    let obs = &opts.obs;
    let budget = &opts.budget;
    let exec = GridExec::new(opts.threads).with_obs(obs.clone());
    let mut sweep_span = obs.span("dse.explore");
    let memo_hits = obs.counter("dse.memo_hits");
    let memo_misses = obs.counter("dse.memo_misses");
    let total = kernels.len() * space.len();
    // The feed counts design points: the full lattice is announced up
    // front (deterministic at any worker count), the phases walk the
    // label, and each evaluated point ticks.
    let progress = &opts.progress;
    progress.add_total(total as u64);
    // Cancellation before any point was evaluated: everything skipped,
    // nothing on the front — a partial report, not an error.
    let drained = |threads| {
        progress.add_done(total as u64);
        DseReport {
            points: Vec::new(),
            pareto: Vec::new(),
            threads,
            was_cancelled: true,
            skipped: total,
            panics: 0,
        }
    };

    // Phase 0 — front end, once per kernel.
    budget.fault_hit(sites::DSE_PHASE, 0);
    progress.set_phase("dse-frontend");
    if budget.is_exceeded() {
        return Ok(drained(exec.workers_for(total)));
    }
    let modules: Vec<Module> = {
        let mut span = obs.span("dse.frontend");
        span.arg("kernels", kernels.len() as u64);
        kernels
            .iter()
            .map(|k| hls_frontend::compile(&k.source, &k.name).map_err(DseError::from))
            .collect::<Result<_, _>>()?
    };

    // Phase 1 — prepare once per (kernel, unroll).
    budget.fault_hit(sites::DSE_PHASE, 1);
    progress.set_phase("dse-prepare");
    if budget.is_exceeded() {
        return Ok(drained(exec.workers_for(total)));
    }
    let n_unroll = space.hls.unroll_factors.len();
    let prepared_keys: Vec<(usize, u32)> = (0..kernels.len())
        .flat_map(|k| space.hls.unroll_factors.iter().map(move |&u| (k, u)))
        .collect();
    let mut prepare_span = obs.span("dse.prepare");
    prepare_span.arg("slots", prepared_keys.len() as u64);
    let prepared_slots: Vec<PreparedSlot> = run_parallel(&exec, prepared_keys.len(), |i| {
        let (k, unroll) = prepared_keys[i];
        let kernel = &kernels[k];
        let hls = HlsOptions::default().with_unroll(unroll);
        let prepared = hls_core::prepare(&modules[k], &kernel.top, &hls)?;
        let case = kernel.test_case(&prepared.module);
        let golden = golden_outputs(&prepared.module, &kernel.top, &case);
        Ok(PreparedSlot { prepared, case, golden })
    })?;
    obs.counter("dse.prepared").add(prepared_slots.len() as u64);
    memo_misses.add(prepared_slots.len() as u64);
    drop(prepare_span);

    // Phase 2 — schedule/bind once per (kernel, unroll, allocation).
    budget.fault_hit(sites::DSE_PHASE, 2);
    progress.set_phase("dse-schedule");
    if budget.is_exceeded() {
        return Ok(drained(exec.workers_for(total)));
    }
    let n_alloc = space.hls.allocations.len();
    let baseline_keys: Vec<(usize, usize, usize)> = (0..kernels.len())
        .flat_map(|k| (0..n_unroll).flat_map(move |u| (0..n_alloc).map(move |a| (k, u, a))))
        .collect();
    let mut schedule_span = obs.span("dse.schedule");
    schedule_span.arg("slots", baseline_keys.len() as u64);
    let baseline_slots: Vec<BaselineSlot> = run_parallel(&exec, baseline_keys.len(), |i| {
        let (k, u, a) = baseline_keys[i];
        let prepared_idx = k * n_unroll + u;
        let slot = &prepared_slots[prepared_idx];
        let hls = HlsOptions::default()
            .with_unroll(space.hls.unroll_factors[u])
            .with_allocation(space.hls.allocations[a].1);
        let (sched, ra) = hls_core::schedule_and_bind(&slot.prepared, &hls)?;
        let baseline =
            hls_core::build_fsmd(&slot.prepared.module, &slot.prepared.function, &sched, &ra);
        let baseline_area = rtl::area(&baseline, &cm).total();
        Ok(BaselineSlot { prepared_idx, baseline, baseline_area })
    })?;
    obs.counter("dse.baselines").add(baseline_slots.len() as u64);
    memo_misses.add(baseline_slots.len() as u64);
    drop(schedule_span);

    // Phase 3 — lock + evaluate every lattice point of every kernel,
    // under the cooperative budget: workers drain at chunk granularity
    // once cancelled, and a panicking point injures only its own cell.
    budget.fault_hit(sites::DSE_PHASE, 3);
    progress.set_phase("dse-evaluate");
    let n_cfg = space.len();
    let mut eval_span = obs.span("dse.evaluate");
    eval_span.arg("points", total as u64);
    let point_counter = obs.counter("dse.points");
    let point_ns = obs.histogram("dse.point_ns");
    // Only this phase runs under the sweep's budget: the earlier phases'
    // `run` must resolve every slot.
    let eval_exec = exec.clone().with_budget(budget.clone());
    let cells: Vec<TrialCell<Result<DsePoint, DseError>>> = eval_exec.run_cells(
        total,
        1,
        || (),
        |(), i| {
            budget.fault_hit(sites::DSE_POINT, i as u64);
            let t0 = obs.now_ns();
            let _point_span = obs.span("dse.point");
            let (k, cfg_id) = (i / n_cfg, i % n_cfg);
            let kernel = &kernels[k];
            let cfg = space.point(cfg_id);
            let baseline_idx = (k * n_unroll + cfg.unroll_idx) * n_alloc + cfg.alloc_idx;
            let base = &baseline_slots[baseline_idx];
            let prep = &prepared_slots[base.prepared_idx];

            let design = tao::lock_from_baseline(
                &prep.prepared,
                &base.baseline,
                &kernel.top,
                &lk,
                &cfg.tao,
            )?;
            let wk = design.working_key(&lk);
            // Sign-off on the compiled tape backend: flatten the locked FSMD
            // once, run without per-call allocation or memory clones.
            let (img, res) =
                CompiledFsmd::compile(&design.fsmd).runner().outputs(&prep.case, &wk, &opts.sim)?;

            // Optional measured-effort sign-off: a budgeted SAT attack on the
            // point's emitted Verilog, windowed just above its latency.
            let sat = match &opts.sat_signoff {
                None => None,
                // A plan can legitimately assign zero key bits (e.g. a
                // branches-only plan on a branch-free kernel): nothing to
                // attack, the empty key space is trivially collapsed.
                Some(_) if design.fsmd.key_width == 0 => Some(crate::report::SatEffort {
                    dips: 0,
                    conflicts: 0,
                    recovered: true,
                    functional: true,
                }),
                Some(cfg) => {
                    let att = tao::sat_attack_design(
                        &design,
                        &wk,
                        std::slice::from_ref(&prep.case),
                        &tao::SatAttackConfig {
                            unroll: Some(res.cycles as u32 + cfg.slack),
                            max_dips: Some(cfg.max_dips),
                            conflict_budget: Some(cfg.conflict_budget),
                            step_budget: None,
                            // Share the sweep's budget: cancelling the sweep
                            // also stops an in-flight sign-off attack.
                            budget: budget.clone(),
                            obs: obs.clone(),
                            // The sweep feed counts design points; the
                            // per-point sign-off attack does not get
                            // its own DIP-granular channel.
                            progress: obs::ProgressTracker::off(),
                        },
                    )
                    .map_err(|e| DseError::Tao(TaoError::Internal(e.to_string())))?;
                    Some(crate::report::SatEffort {
                        dips: att.outcome.dips,
                        conflicts: att.outcome.conflicts,
                        recovered: att.recovered(),
                        functional: att.key_functional,
                    })
                }
            };

            let area = rtl::area(&design.fsmd, &cm).total();
            let timing = rtl::timing(&design.fsmd, &cm);
            let ks = KeySpace::of(&design);
            // Branch bits are the one sub-exponential term: an oracle-guided
            // attacker enumerates them when few (Sec. 4.3), so only large
            // branch spaces contribute to the practical effort.
            let attack_effort = ks.constant_bits
                + ks.variant_bits
                + if ks.branch_bits > 20 { ks.branch_bits } else { 0 };

            let point = DsePoint {
                kernel: kernel.name.clone(),
                config_id: cfg_id,
                config: cfg.describe(),
                area_um2: area,
                area_overhead: area / base.baseline_area - 1.0,
                latency_cycles: res.cycles,
                fmax_mhz: timing.fmax_mhz,
                key_bits: design.fsmd.key_width,
                attack_effort_log2: attack_effort,
                correct: images_equal(&prep.golden, &img),
                sat,
            };
            // Each point reuses one prepared slot and one baseline slot
            // built in the earlier phases — the pipeline-prefix memo hits.
            memo_hits.add(2);
            point_counter.inc();
            point_ns.record(obs.now_ns().saturating_sub(t0));
            progress.tick();
            Ok(point)
        },
    );
    drop(eval_span);

    // Fold the cells: completed points in deterministic index order,
    // panicked and skipped ones tallied. A point-level *error* (not
    // panic, not skip) still fails the sweep — an unsound point means the
    // flow itself is broken, budget or no budget.
    let mut points = Vec::new();
    let mut kernel_of = Vec::new();
    let mut skipped = 0usize;
    let mut panics = 0usize;
    let mut first_err: Option<DseError> = None;
    for (i, cell) in cells.into_iter().enumerate() {
        match cell {
            TrialCell::Done(Ok(p)) => {
                kernel_of.push(i / n_cfg);
                points.push(p);
            }
            TrialCell::Done(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            TrialCell::Panicked { .. } => panics += 1,
            TrialCell::Skipped => skipped += 1,
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    // Panicked and skipped points never ticked but are resolved: count
    // them so the feed reaches done == total even on a partial sweep.
    progress.add_done((skipped + panics) as u64);

    // Per-kernel Pareto fronts over the points that actually completed —
    // grouped by kernel index, not sliced by position, so a partial
    // (cancelled or injured) sweep still yields a sound front over the
    // evaluated subset.
    let mut pareto = Vec::new();
    for k in 0..kernels.len() {
        let idxs: Vec<usize> = (0..points.len()).filter(|&j| kernel_of[j] == k).collect();
        let objs: Vec<_> = idxs.iter().map(|&j| points[j].objectives()).collect();
        pareto.extend(pareto_front(&objs).into_iter().map(|j| idxs[j]));
    }

    sweep_span.arg("points", points.len() as u64);
    sweep_span.arg("pareto", pareto.len() as u64);
    sweep_span.arg("skipped", skipped as u64);
    sweep_span.arg("panics", panics as u64);
    Ok(DseReport {
        points,
        pareto,
        threads: exec.workers_for(total),
        was_cancelled: budget.is_exceeded(),
        skipped,
        panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL: &str = r#"
        int dot(int a, int b) {
            int acc = 0;
            for (int i = 0; i < 4; i++) {
                if (i % 2 == 0) acc += a * i;
                else acc += b * i;
            }
            return acc;
        }
    "#;

    fn kernels() -> Vec<Kernel> {
        vec![Kernel::new("dot", KERNEL, "dot", vec![3, 5])]
    }

    #[test]
    fn smoke_sweep_covers_the_space_and_signs_off() {
        let space = ConfigSpace::smoke();
        let rep = explore(&kernels(), &space, &DseOptions::default()).unwrap();
        assert_eq!(rep.points.len(), space.len());
        assert!(!rep.pareto.is_empty());
        assert!(rep.points.iter().all(|p| p.correct), "every point must sign off");
        assert!(rep.points.iter().all(|p| p.area_um2 > 0.0 && p.latency_cycles > 0));
        // Config ids are the deterministic kernel-major order.
        for (i, p) in rep.points.iter().enumerate() {
            assert_eq!(p.config_id, i % space.len());
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let space = ConfigSpace::smoke();
        let one = explore(&kernels(), &space, &DseOptions { threads: 1, ..DseOptions::default() })
            .unwrap();
        let four = explore(&kernels(), &space, &DseOptions { threads: 4, ..DseOptions::default() })
            .unwrap();
        assert_eq!(one.points, four.points);
        assert_eq!(one.pareto, four.pareto);
    }

    #[test]
    fn sat_signoff_records_measured_effort() {
        // One multiplier-free kernel, two branch/constant plans, tight
        // budgets: the sign-off must attach measured DIP/conflict counts
        // to every point, and the numbers must be identical for any
        // worker count (the attack is deterministic given the point).
        use crate::space::{HlsKnobs, TaoKnobs};
        use tao::{KeyScheme, PlanConfig, VariantOptions};
        let kernels = vec![
            Kernel::new(
                "mix",
                "int mix(int a, int b) { int r = a ^ 9; if (r > b) r = r + b; return r; }",
                "mix",
                vec![5, 3],
            ),
            // Branch- and constant-free: the branches-only plan assigns
            // zero key bits, exercising the trivially-collapsed path.
            Kernel::new("lin", "int lin(int a, int b) { return a + b; }", "lin", vec![2, 7]),
        ];
        let space = ConfigSpace {
            hls: HlsKnobs {
                allocations: vec![("default".to_string(), hls_core::Allocation::default())],
                unroll_factors: vec![1],
            },
            tao: TaoKnobs {
                plans: vec![
                    PlanConfig::techniques(false, true, false),
                    PlanConfig::techniques(true, true, false),
                ],
                variants: vec![VariantOptions::default()],
                schemes: vec![KeyScheme::AesNvm],
            },
            seed: 0xDAC2018,
        };
        let opts = DseOptions {
            sat_signoff: Some(SatSignoff { max_dips: 8, conflict_budget: 20_000, slack: 6 }),
            ..DseOptions::default()
        };
        let rep = explore(&kernels, &space, &opts).unwrap();
        assert!(rep.points.iter().all(|p| p.sat.is_some()), "every point records effort");
        for p in &rep.points {
            let s = p.sat.expect("recorded");
            assert!(s.recovered || s.dips >= 8 || s.conflicts >= 20_000, "budget honoured: {s:?}");
            if s.recovered {
                assert!(s.functional, "a collapsed key space must unlock the chip");
            }
        }
        let jsonl = rep.to_jsonl();
        assert!(jsonl.contains("\"sat_dips\":"));
        assert!(jsonl.contains("\"sat_recovered\":"));
        let again = explore(&kernels, &space, &DseOptions { threads: 3, ..opts }).unwrap();
        assert_eq!(rep.points, again.points);
    }

    #[test]
    fn a_cancelled_sweep_returns_the_prefix_it_explored() {
        let space = ConfigSpace::smoke();
        let full = explore(&kernels(), &space, &DseOptions::default()).unwrap();
        // A spurious cancellation injected at point 2: with one worker
        // the sweep drains after finishing it, skipping the rest.
        let plan = sim_core::FaultPlan::new().cancel_at(sites::DSE_POINT, 2);
        let opts = DseOptions {
            threads: 1,
            budget: Budget::unlimited().with_faults(plan),
            ..DseOptions::default()
        };
        let part = explore(&kernels(), &space, &opts).unwrap();
        assert!(part.was_cancelled);
        assert_eq!(part.panics, 0);
        assert_eq!(part.points.len() + part.skipped, full.points.len());
        assert!(part.skipped > 0, "cancellation must actually skip the tail");
        // Completed points are bit-identical to their full-run
        // counterparts (a prefix, since one worker drains in order).
        assert_eq!(part.points.as_slice(), &full.points[..part.points.len()]);
        // The partial front is sound over the completed subset: every
        // index is in range and no listed point is dominated by another
        // completed one.
        for &i in &part.pareto {
            assert!(i < part.points.len());
        }
        let objs: Vec<_> = part.points.iter().map(|p| p.objectives()).collect();
        assert_eq!(part.pareto, crate::pareto::pareto_front(&objs));
    }

    #[test]
    fn a_panicking_point_injures_only_its_own_cell() {
        sim_core::faultpoint::install_quiet_hook();
        let space = ConfigSpace::smoke();
        let full = explore(&kernels(), &space, &DseOptions::default()).unwrap();
        let mut expect = full.points.clone();
        expect.remove(1);
        for threads in [1, 2, 5] {
            let plan = sim_core::FaultPlan::new().panic_at(sites::DSE_POINT, 1);
            let opts = DseOptions {
                threads,
                budget: Budget::unlimited().with_faults(plan),
                ..DseOptions::default()
            };
            let part = explore(&kernels(), &space, &opts).unwrap();
            assert_eq!(part.panics, 1, "threads={threads}");
            assert_eq!(part.skipped, 0, "threads={threads}");
            assert!(!part.was_cancelled);
            assert_eq!(part.points, expect, "survivors bit-identical at threads={threads}");
        }
    }

    #[test]
    fn a_pre_cancelled_sweep_drains_before_any_phase() {
        let budget = Budget::unlimited();
        budget.cancel();
        let opts = DseOptions { budget, ..DseOptions::default() };
        let space = ConfigSpace::smoke();
        let rep = explore(&kernels(), &space, &opts).unwrap();
        assert!(rep.was_cancelled);
        assert!(rep.points.is_empty() && rep.pareto.is_empty());
        assert_eq!(rep.skipped, space.len());
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert_eq!(
            explore(&[], &ConfigSpace::smoke(), &DseOptions::default()),
            Err(DseError::Empty)
        );
    }

    #[test]
    fn more_techniques_mean_more_key_bits() {
        let space = ConfigSpace::smoke(); // plans: cbv then cb-
        let rep = explore(&kernels(), &space, &DseOptions::default()).unwrap();
        // Within one allocation, the cbv plan carries at least as many key
        // bits as cb- (variants add block bits).
        let full = &rep.points[0];
        let no_variants = &rep.points[1];
        assert!(full.key_bits > no_variants.key_bits);
    }
}
