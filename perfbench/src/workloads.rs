//! The four workloads: what each generates from its seed, what its set-up
//! builds, and what one item does and checks.

use crate::flow::{self, add, span, Counts, Design, Kernel};
use crate::gen::{self, Rng, Target};
use obs::Obs;
use rtl::{
    golden_outputs, images_equal, CompiledFsmd, OutputImage, SimOptions, SpecFsmd, TestCase,
};
use tao::{KeyTrial, PlanConfig, SatAttackConfig};
use vlog::VlogTape;

/// Stimuli per key-sweep design.
const SWEEP_CASES: usize = 4;
/// Wrong keys per key-sweep design (plus the correct one).
const SWEEP_WRONG_KEYS: usize = 16;
/// Designs drawn per kernel by key-sweep: several secrets per kernel keep
/// one draw's luck (how many wrong keys run into the cycle budget) from
/// setting the pass.
const SWEEP_DRAWS: usize = 6;
/// Designs drawn per (kernel, plan) row by sat-corpus, for the same reason.
const CORPUS_DRAWS: usize = 16;
/// Unroll factors of the lock-flow lattice.
const UNROLLS: [u32; 2] = [1, 2];
/// SAT-corpus budgets: DIP, conflict and propagation limits per attack.
/// Unbudgeted, one row's attack takes 10 ms or 40 s depending on the key
/// drawn; the propagation limit bounds every attack's work and the DIP
/// limit its miter, so a seed's keys cannot set the pass time or the peak
/// memory.
const CORPUS_BUDGET: (u64, u64, u64) = (6, 1_000_000, 1_000_000);
/// SAT-window shape: unroll depth, DIP limit, conflict limit.
const WINDOW: (u32, u64, u64) = (8, 16, 2_000);
/// Corpus kernels whose `cb-` lock must come back bit-exact (every key
/// bit is observable in them; see `bench::attack_kernels`).
const EXACT_CB: [&str; 3] = ["mix", "clamp", "blend"];

/// A workload name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Compile C into locked, elaborated RTL over the DSE lattice.
    LockFlow,
    /// Differential verification over correct and wrong keys.
    KeySweep,
    /// Budgeted SAT attacks on the small attack corpus.
    SatCorpus,
    /// Bounded-window SAT attacks on the paper kernels' full locks.
    SatWindow,
}

impl Kind {
    /// Every workload. `BENCHMARK.json` lists the first three; sat-window
    /// is too noisy to bound (see `perfbench/README.md`) and runs on demand.
    pub const ALL: [Kind; 4] = [Kind::LockFlow, Kind::KeySweep, Kind::SatCorpus, Kind::SatWindow];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LockFlow => "lock-flow",
            Kind::KeySweep => "key-sweep",
            Kind::SatCorpus => "sat-corpus",
            Kind::SatWindow => "sat-window",
        }
    }

    /// Whether the workload's items are SAT attacks.
    pub fn attacks(self) -> bool {
        matches!(self, Kind::SatCorpus | Kind::SatWindow)
    }
}

/// The technique plans of the DSE lattice (as in `hls_dse::TaoKnobs`).
fn dse_plans() -> Vec<(&'static str, PlanConfig)> {
    vec![
        ("cbv", PlanConfig::techniques(true, true, true)),
        ("cb-", PlanConfig::techniques(true, true, false)),
        ("-bv", PlanConfig::techniques(false, true, true)),
    ]
}

/// Everything a workload draws from its seed. The program receives only
/// these inputs.
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Kernel table the targets index.
    kernels: Vec<Kernel>,
    /// Plan table the targets index.
    plans: Vec<(&'static str, PlanConfig)>,
    /// Designs (or, for lock-flow, design points).
    targets: Vec<Target>,
    /// Lock-flow only: one stimulus seed per kernel.
    stim_seeds: Vec<u64>,
}

/// Draws a workload's inputs from its seed.
pub fn generate(kind: Kind, seed: u64) -> Spec {
    let (kernels, plans) = match kind {
        Kind::LockFlow => (Kernel::suite(), dse_plans()),
        Kind::KeySweep | Kind::SatWindow => (Kernel::suite(), vec![("cbv", PlanConfig::default())]),
        Kind::SatCorpus => (Kernel::corpus(), bench::attack_plans()),
    };
    let targets = match kind {
        Kind::LockFlow => gen::lattice(
            seed,
            kernels.len(),
            hls_core::Allocation::presets().len(),
            &UNROLLS,
            plans.len(),
        ),
        Kind::KeySweep => gen::grid(seed, kind.name(), kernels.len(), plans.len(), SWEEP_DRAWS),
        Kind::SatCorpus => gen::grid(seed, kind.name(), kernels.len(), plans.len(), CORPUS_DRAWS),
        Kind::SatWindow => gen::grid(seed, kind.name(), kernels.len(), plans.len(), 1),
    };
    let mut rng = Rng::new(seed, "lock-flow-stimuli");
    let stim_seeds = kernels.iter().map(|_| rng.next_u64()).collect();
    Spec { kind, kernels, plans, targets, stim_seeds }
}

/// What set-up built: the designs every item works on, or for lock-flow
/// the golden outputs its items are checked against.
pub struct Inputs {
    /// Locked, emitted and elaborated designs (not lock-flow).
    pub designs: Vec<Design>,
    /// Key-sweep only: per design, the keys to drive and the testbench
    /// budget.
    sweeps: Vec<(Vec<KeyTrial>, SimOptions)>,
    /// Lock-flow only: per (kernel, unroll) the stimulus and its golden
    /// output image.
    goldens: Vec<(TestCase, OutputImage)>,
}

/// Set-up: compile, lock, emit and elaborate the workload's designs (for
/// lock-flow: compile, prepare and interpret each kernel's stimulus).
pub fn setup(obs: &Obs, spec: &Spec, counts: &mut Counts) -> Result<Inputs, String> {
    let mut inputs = Inputs { designs: Vec::new(), sweeps: Vec::new(), goldens: Vec::new() };
    if spec.kind == Kind::LockFlow {
        for (kernel, &seed) in spec.kernels.iter().zip(&spec.stim_seeds) {
            let module = kernel.compile(obs)?;
            for unroll in UNROLLS {
                let hls = hls_core::HlsOptions::default().with_unroll(unroll);
                let prepared =
                    span(obs, "ir.prepare", || hls_core::prepare(&module, kernel.top(), &hls))
                        .map_err(|e| format!("{}: prepare: {e}", kernel.name()))?;
                let case = kernel.cases(&prepared.module, 1, seed).remove(0);
                let golden = span(obs, "ir.golden_outputs", || {
                    golden_outputs(&prepared.module, kernel.top(), &case)
                });
                inputs.goldens.push((case, golden));
            }
        }
        return Ok(inputs);
    }
    let n_cases = if spec.kind == Kind::KeySweep { SWEEP_CASES } else { 1 };
    for t in &spec.targets {
        let d = flow::build(obs, &spec.kernels[t.kernel], spec.plans[t.plan], t, n_cases, counts)?;
        if spec.kind == Kind::KeySweep {
            let trials =
                tao::standard_trials(&d.locked, &t.locking, SWEEP_WRONG_KEYS, t.trial_seed);
            inputs.sweeps.push((trials, flow::sweep_budget(&d)?));
        }
        inputs.designs.push(d);
    }
    Ok(inputs)
}

/// Items in one pass of the workload.
pub fn items(spec: &Spec) -> usize {
    spec.targets.len()
}

/// What one item reports besides its time.
pub struct ItemReport {
    /// SAT items: the attack collapsed the key space. Always true for
    /// items that are not attacks.
    pub decided: bool,
    /// SAT items: the unroll depth the attack ended at.
    pub depth: Option<u32>,
    /// What the item was, for `--items`.
    pub note: String,
}

/// Runs item `i` and checks its output; an `Err` is a failed item.
pub fn run_item(
    obs: &Obs,
    spec: &Spec,
    inputs: &Inputs,
    i: usize,
    counts: &mut Counts,
) -> Result<ItemReport, String> {
    let t = &spec.targets[i];
    let label = format!("{}/{}", spec.kernels[t.kernel].name(), spec.plans[t.plan].0);
    let done = |note: String| Ok(ItemReport { decided: true, depth: None, note });
    match spec.kind {
        Kind::LockFlow => {
            lock_flow_point(obs, spec, inputs, t, counts)?;
            done(format!("{label} alloc={} unroll={}", t.alloc, t.unroll))
        }
        Kind::KeySweep => {
            let (trials, opts) = &inputs.sweeps[i];
            let report = flow::verify(obs, &inputs.designs[i], trials, opts, counts)?;
            if !report.is_clean() {
                return Err(format!("{label}: differential verification failed: {report}"));
            }
            done(label)
        }
        Kind::SatCorpus | Kind::SatWindow => {
            let exact = spec.kind == Kind::SatCorpus
                && spec.plans[t.plan].0 == "cb-"
                && EXACT_CB.contains(&spec.kernels[t.kernel].name());
            attack_checked(obs, spec.kind, &inputs.designs[i], exact, counts)
        }
    }
}

/// One SAT attack with the workload's budgets, checked: a collapsed key
/// space must yield a key that unlocks the design, bit-exact where every
/// key bit is observable.
fn attack_checked(
    obs: &Obs,
    kind: Kind,
    d: &Design,
    exact: bool,
    counts: &mut Counts,
) -> Result<ItemReport, String> {
    let (unroll, max_dips, conflicts, steps) = match kind {
        Kind::SatWindow => (Some(WINDOW.0), WINDOW.1, WINDOW.2, None),
        _ => (None, CORPUS_BUDGET.0, CORPUS_BUDGET.1, Some(CORPUS_BUDGET.2)),
    };
    let cfg = SatAttackConfig {
        unroll,
        max_dips: Some(max_dips),
        conflict_budget: Some(conflicts),
        step_budget: steps,
        obs: obs.clone(),
        ..SatAttackConfig::default()
    };
    let att = flow::attack(obs, d, &cfg)?;
    flow::count_attack(&att, counts);
    let decided = att.recovered();
    if decided && !att.key_functional {
        return Err(format!("{}: recovered key does not unlock the design", d.label));
    }
    if decided && exact && !att.key_exact {
        return Err(format!("{}: recovered key is not the working key", d.label));
    }
    let o = &att.outcome;
    Ok(ItemReport {
        decided,
        depth: Some(o.unroll_final),
        note: format!(
            "{} k={} dips={} growths={} conflicts={} props={} vars={} {:?}",
            d.label,
            o.unroll_final,
            o.dips,
            o.growths,
            o.conflicts,
            o.propagations,
            o.vars,
            o.status
        ),
    })
}

/// The traced run's probe attack for workloads whose items are not
/// attacks: one seeded `clamp/b--` lock of the attack corpus, attacked
/// with the corpus budgets, so the DIP loop's oracle, constrain and grow
/// layers are measured everywhere. Returns the design and the depth the
/// attack ended at.
pub fn probe_attack(obs: &Obs, seed: u64, counts: &mut Counts) -> Result<(Design, u32), String> {
    let kernels = Kernel::corpus();
    let plans = bench::attack_plans();
    let kernel = kernels.iter().position(|k| k.name() == "clamp").expect("corpus has clamp");
    let plan = plans.iter().position(|p| p.0 == "b--").expect("corpus has b--");
    let t = Target::draw(&mut Rng::new(seed, "probe-attack"), kernel, plan);
    let d = flow::build(obs, &kernels[kernel], plans[plan], &t, 1, counts)?;
    let r = attack_checked(obs, Kind::SatCorpus, &d, false, counts)?;
    let depth = r.depth.expect("attacks report their depth");
    Ok((d, depth))
}

/// One lock-flow design point through the whole flow, without any memo:
/// lock, emit, elaborate, compile both tapes, and one correct-key run of
/// the specializing backend checked against the golden model.
fn lock_flow_point(
    obs: &Obs,
    spec: &Spec,
    inputs: &Inputs,
    t: &Target,
    counts: &mut Counts,
) -> Result<(), String> {
    let kernel = &spec.kernels[t.kernel];
    let d = flow::build(obs, kernel, spec.plans[t.plan], t, 0, counts)?;
    let vtape = span(obs, "vlog.tape_compile", || VlogTape::compile(&d.sim))
        .map_err(|e| format!("{}: vlog tape: {e}", d.label))?;
    std::hint::black_box(&vtape);
    let tape = span(obs, "rtl.tape_compile", || CompiledFsmd::compile(&d.locked.fsmd));
    let spec_sim = SpecFsmd::from_compiled(tape);
    let unroll_idx = UNROLLS.iter().position(|&u| u == t.unroll).expect("lattice unroll");
    let (case, golden) = &inputs.goldens[t.kernel * UNROLLS.len() + unroll_idx];
    let (image, stats) = span(obs, "rtl.spec_run", || {
        spec_sim.runner().outputs(case, &d.wk, &SimOptions::default())
    })
    .map_err(|e| format!("{}: spec run: {e}", d.label))?;
    add(counts, "rtl.spec_run_cycles", stats.cycles);
    if images_equal(golden, &image) {
        Ok(())
    } else {
        Err(format!("{}: correct-key outputs differ from the golden model", d.label))
    }
}

/// Lock-flow keeps no designs after its items, so the traced run's layer
/// probe builds its first design point.
pub fn first_design(obs: &Obs, spec: &Spec, counts: &mut Counts) -> Result<Design, String> {
    let t = &spec.targets[0];
    flow::build(obs, &spec.kernels[t.kernel], spec.plans[t.plan], t, 1, counts)
}
