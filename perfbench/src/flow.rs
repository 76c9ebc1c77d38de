//! The calls every workload makes into the repository's crates, each
//! wrapped in a span named `<layer>.<call>`. With a disabled `Obs` a span
//! is one never-taken branch, so untraced runs time only the program's
//! own work; a traced run reads the spans back with
//! `obs::analyze::attribution`.

use crate::gen::Target;
use attack_sat::{Encoder, KeyLits};
use hls_core::{verilog, Allocation, HlsOptions, KeyBits};
use hls_ir::{Module, ModuleStats};
use obs::Obs;
use rtl::{golden_outputs, CompiledFsmd, SimOptions, SpecFsmd, TestCase};
use sat::Gates;
use sim_core::GridExec;
use std::collections::BTreeMap;
use tao::{LockedDesign, PlanConfig, TaoOptions};
use vlog::{VlogSim, VlogTape};

/// Deterministic work counts (instructions, key bits, cycles, conflicts,
/// …): for one seed they must repeat exactly, run after run.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds `v` to the count `name`.
pub fn add(counts: &mut Counts, name: &'static str, v: u64) {
    *counts.entry(name).or_insert(0) += v;
}

/// Runs `f` inside the span `name`.
pub fn span<T>(obs: &Obs, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs.span(name);
    f()
}

/// A kernel the workloads lock: one of the five paper benchmarks or one
/// of the small attack-corpus kernels.
pub enum Kernel {
    /// A paper benchmark (`benchmarks::all()`).
    Suite(benchmarks::Benchmark),
    /// An attack-corpus kernel (`bench::attack_kernels()`).
    Corpus(bench::AttackKernel),
}

impl Kernel {
    /// The five paper benchmarks.
    pub fn suite() -> Vec<Kernel> {
        benchmarks::all().into_iter().map(Kernel::Suite).collect()
    }

    /// The attack-corpus kernels.
    pub fn corpus() -> Vec<Kernel> {
        bench::attack_kernels().into_iter().map(Kernel::Corpus).collect()
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Suite(b) => b.name,
            Kernel::Corpus(k) => k.name,
        }
    }

    /// Top function.
    pub fn top(&self) -> &'static str {
        match self {
            Kernel::Suite(b) => b.top,
            Kernel::Corpus(k) => k.top,
        }
    }

    /// Front end: C source to IR, as the rest of the repository compiles
    /// each kind of kernel.
    pub fn compile(&self, obs: &Obs) -> Result<Module, String> {
        span(obs, "frontend.compile", || match self {
            Kernel::Suite(b) => b.compile(),
            Kernel::Corpus(k) => hls_frontend::compile(k.source, k.name),
        })
        .map_err(|e| format!("{}: compile: {e}", self.name()))
    }

    /// `n` seeded stimuli resolved against `module` (the corpus kernels
    /// carry their own fixed stimuli and ignore `n` and `seed`).
    pub fn cases(&self, module: &Module, n: usize, seed: u64) -> Vec<TestCase> {
        match self {
            Kernel::Suite(b) => b
                .stimuli(n, seed)
                .iter()
                .map(|s| TestCase { args: s.args.clone(), mem_inputs: s.resolve(module) })
                .collect(),
            Kernel::Corpus(k) => k.cases.iter().map(|a| TestCase::args(a)).collect(),
        }
    }
}

/// A locked design with its secrets, stimuli and elaborated Verilog.
pub struct Design {
    /// `kernel/plan` label.
    pub label: String,
    /// The locked design.
    pub locked: LockedDesign,
    /// The locking key it was locked with.
    pub locking: KeyBits,
    /// The correct working key.
    pub wk: KeyBits,
    /// Stimuli.
    pub cases: Vec<TestCase>,
    /// The emitted Verilog, parsed and elaborated.
    pub sim: VlogSim,
}

/// The full compile side of the flow for one target: compile → prepare →
/// schedule and bind → FSMD → lock → emit → elaborate.
pub fn build(
    obs: &Obs,
    kernel: &Kernel,
    plan: (&str, PlanConfig),
    t: &Target,
    n_cases: usize,
    counts: &mut Counts,
) -> Result<Design, String> {
    let label = format!("{}/{}", kernel.name(), plan.0);
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{label}: {stage}: {e}");
    let module = kernel.compile(obs)?;
    let hls = HlsOptions::default()
        .with_unroll(t.unroll)
        .with_allocation(Allocation::presets()[t.alloc].1);
    let prepared = span(obs, "ir.prepare", || hls_core::prepare(&module, kernel.top(), &hls))
        .map_err(|e| err("prepare", &e))?;
    let (sched, ra) =
        span(obs, "core.schedule_and_bind", || hls_core::schedule_and_bind(&prepared, &hls))
            .map_err(|e| err("schedule", &e))?;
    let baseline = span(obs, "core.build_fsmd", || {
        hls_core::build_fsmd(&prepared.module, &prepared.function, &sched, &ra)
    });
    let opts = TaoOptions { plan: plan.1, seed: t.tao_seed, hls, ..TaoOptions::default() };
    let locked = span(obs, "tao.lock_from_baseline", || {
        tao::lock_from_baseline(&prepared, &baseline, kernel.top(), &t.locking, &opts)
    })
    .map_err(|e| err("lock", &e))?;
    let text = span(obs, "core.emit", || verilog::emit(&locked.fsmd));
    let sim =
        span(obs, "vlog.elaborate", || VlogSim::new(&text)).map_err(|e| err("elaborate", &e))?;
    add(counts, "ir.instrs", ModuleStats::of(&prepared.module).num_instrs as u64);
    add(counts, "core.verilog_bytes", text.len() as u64);
    add(counts, "tao.key_bits", u64::from(locked.fsmd.key_width));
    let wk = locked.working_key(&t.locking);
    let cases = kernel.cases(&locked.module, n_cases, t.stim_seed);
    Ok(Design { label, locked, locking: t.locking.clone(), wk, cases, sim })
}

/// The fixed-duration testbench budget of a key sweep: four times the
/// slowest correct-key latency over the stimuli, plus slack, with
/// snapshots on timeout (the `reproduce -- vlog-diff` convention).
pub fn sweep_budget(d: &Design) -> Result<SimOptions, String> {
    let tape = CompiledFsmd::compile(&d.locked.fsmd);
    let mut runner = tape.runner();
    let mut worst = 0;
    for case in &d.cases {
        let stats = runner
            .run_case(case, &d.wk, &SimOptions::default())
            .map_err(|e| format!("{}: correct key does not terminate: {e}", d.label))?;
        worst = worst.max(stats.cycles);
    }
    Ok(SimOptions { max_cycles: worst * 4 + 10_000, snapshot_on_timeout: true })
}

/// Records a finished SAT attack's outcome counts.
pub fn count_attack(att: &tao::SatDesignAttack, counts: &mut Counts) {
    let o = &att.outcome;
    add(counts, "attack.attacks", 1);
    add(counts, "attack.decided", u64::from(att.recovered()));
    add(counts, "attack.dips", o.dips);
    add(counts, "attack.growths", o.growths);
    add(counts, "attack.miter_vars", o.vars as u64);
    add(counts, "attack.miter_clauses", o.clauses as u64);
    add(counts, "sat.conflicts", o.conflicts);
    add(counts, "sat.propagations", o.propagations);
}

/// The attack's miter encoding timed on its own: `Encoder::new`,
/// `fresh_inputs`, two `KeyLits::fresh` and two `unroll`s at depth `k`.
pub fn encode_miter(obs: &Obs, sim: &VlogSim, k: u32, counts: &mut Counts) {
    let g = span(obs, "attack.encode_miter", || {
        let enc = Encoder::new(sim);
        let mut g = Gates::new();
        let inputs = enc.fresh_inputs(&mut g);
        let key_a = KeyLits::fresh(&mut g, sim);
        let key_b = KeyLits::fresh(&mut g, sim);
        std::hint::black_box(enc.unroll(&mut g, k, &inputs, &key_a));
        std::hint::black_box(enc.unroll(&mut g, k, &inputs, &key_b));
        g
    });
    add(counts, "attack.encode_clauses", g.solver_ref().num_clauses() as u64);
}

/// Wrong keys the probe drives through the simulators besides the
/// correct one.
const PROBE_WRONG_KEYS: usize = 15;

/// The traced run's layer probe on one of the workload's designs: times
/// the interpreter, both tape backends, the specializing backend, the
/// grid (parallel against one sequential runner doing the same trials)
/// and, where the workload's own items do not already, the differential
/// testbench. With the probe attack of `workloads::probe_attack`, every
/// per-layer metric is measured on every workload, from calls into each
/// crate's public functions.
pub fn probe(
    obs: &Obs,
    d: &Design,
    with_verify: bool,
    seed: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: probe {what}: {e}", d.label);
    for case in &d.cases {
        span(obs, "ir.golden_outputs", || golden_outputs(&d.locked.module, &d.locked.top, case));
    }
    let opts = sweep_budget(d)?;
    let mut rng = crate::gen::Rng::new(seed, "probe");
    let mut keys = vec![d.wk.clone()];
    keys.extend((0..PROBE_WRONG_KEYS).map(|_| d.locked.working_key(&rng.locking_key())));

    let ctape = span(obs, "rtl.tape_compile", || CompiledFsmd::compile(&d.locked.fsmd));
    let cycles = span(obs, "rtl.tape_run", || {
        let mut runner = ctape.runner();
        let mut cycles = 0;
        for key in &keys {
            for case in &d.cases {
                cycles +=
                    runner.run_case(case, key, &opts).map_err(|e| fail("fsmd tape", &e))?.cycles;
            }
        }
        Ok::<u64, String>(cycles)
    })?;
    add(counts, "rtl.tape_cycles", cycles);

    // Specialization: the first run on a new key binds it; a second run
    // on the same key is the steady state.
    let spec = SpecFsmd::from_compiled(ctape.clone());
    let mut runner = spec.runner();
    let case = d.cases.first().ok_or_else(|| format!("{}: no stimuli", d.label))?;
    for key in &keys {
        span(obs, "rtl.spec_bind_run", || runner.run_case(case, key, &opts))
            .map_err(|e| fail("spec", &e))?;
        let stats = span(obs, "rtl.spec_steady_run", || runner.run_case(case, key, &opts))
            .map_err(|e| fail("spec", &e))?;
        add(counts, "rtl.spec_cycles", stats.cycles);
    }

    let vtape = span(obs, "vlog.tape_compile", || VlogTape::compile(&d.sim))
        .map_err(|e| fail("vlog tape", &e))?;
    let cycles = span(obs, "vlog.tape_run", || {
        let mut runner = vtape.runner();
        let mut cycles = 0;
        for key in &keys {
            for case in &d.cases {
                cycles += runner
                    .run_case(case, key, &opts, &d.locked.fsmd.mem_of_array)
                    .map_err(|e| fail("vlog tape", &e))?
                    .cycles;
            }
        }
        Ok::<u64, String>(cycles)
    })?;
    add(counts, "vlog.tape_cycles", cycles);

    let seq = span(obs, "grid.sequential", || {
        GridExec::sequential().grid(&ctape, &d.cases, &keys, &opts)
    });
    let par =
        span(obs, "grid.parallel", || GridExec::default().grid(&ctape, &d.cases, &keys, &opts));
    if seq != par {
        return Err(format!("{}: parallel grid differs from the sequential runner", d.label));
    }
    add(counts, "grid.trials", (keys.len() * d.cases.len()) as u64);

    if with_verify {
        // The probe's designs may carry only a few key bits, so a random
        // wrong key can legitimately leave them unlocked: only the three
        // layers' agreement is checked here.
        let trials = tao::standard_trials(&d.locked, &d.locking, 3, rng.next_u64());
        let report = verify(obs, d, &trials, &opts, counts)?;
        if !report.rtl_vlog_mismatches.is_empty() || !report.golden_failures.is_empty() {
            return Err(format!("{}: probe differential verification failed: {report}", d.label));
        }
    }
    Ok(())
}

/// One differential-verification call.
pub fn verify(
    obs: &Obs,
    d: &Design,
    trials: &[tao::KeyTrial],
    opts: &SimOptions,
    counts: &mut Counts,
) -> Result<tao::DifferentialReport, String> {
    let report = span(obs, "verify.differential_verify", || {
        tao::differential_verify(&d.locked, &d.cases, trials, opts)
    })
    .map_err(|e| format!("{}: verify: {e}", d.label))?;
    add(counts, "verify.comparisons", report.comparisons as u64);
    add(counts, "verify.timeouts", report.timeouts as u64);
    Ok(report)
}

/// One SAT attack on the design's emitted Verilog.
pub fn attack(
    obs: &Obs,
    d: &Design,
    cfg: &tao::SatAttackConfig,
) -> Result<tao::SatDesignAttack, String> {
    span(obs, "attack.sat_attack_design", || {
        tao::sat_attack_design(&d.locked, &d.wk, &d.cases, cfg)
    })
    .map_err(|e| format!("{}: attack: {e}", d.label))
}
