//! The oracle-guided SAT attack (Subramanyan–Ray–Malik style) on a
//! bounded unrolling of the locked netlist.
//!
//! The attacker holds the locked netlist (the foundry's view) and
//! black-box access to an activated chip (the oracle). A two-copy miter —
//! shared inputs, two free key vectors — asks the solver for a
//! *distinguishing input pattern* (DIP): a stimulus on which two keys
//! disagree. The oracle labels the DIP, both key copies are constrained
//! to reproduce the label, and the loop repeats. When the miter goes
//! UNSAT, no two remaining keys disagree on any input — the key space has
//! collapsed to one observable-equivalence class — and any key satisfying
//! the accumulated I/O constraints unlocks the chip.
//!
//! The observable is the k-cycle-bounded run: `(terminates within k
//! cycles, output image at the first done cycle)` — exactly what a
//! fixed-duration testbench (or `simulate` with `max_cycles = k`)
//! observes, so oracle answers and CNF constraints speak the same
//! language by construction.

use crate::bitvec::Bv;
use crate::encode::{EncInputs, Encoder, KeyLits, UnrollState, Unrolling};
use hls_core::KeyBits;
use sat::{Gates, Lit, SolveOutcome};
use sim_core::ctrl::{Budget, CancelKind};
use sim_core::{faultpoint, SimError, SimOptions};
use std::time::{Duration, Instant};
use vlog::VlogSim;

/// One oracle query: a concrete stimulus for the attacked design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackQuery {
    /// One value per `arg{i}` port.
    pub args: Vec<u64>,
    /// Contents of each free input memory, in [`Encoder::free_mem_ids`]
    /// order.
    pub mems: Vec<Vec<u64>>,
}

/// The oracle's label for a query, in the bounded observable: did the
/// activated chip finish within the cycle budget, and if so what did it
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleResponse {
    /// The run terminated within the attack's cycle bound.
    pub done: bool,
    /// `ret` port value (when the design has one and the run terminated).
    pub ret: Option<u64>,
    /// Final contents of each external written memory, in
    /// [`Encoder::out_mem_ids`] order (empty when not terminated).
    pub mems: Vec<Vec<u64>>,
}

/// Attack budgets and the unrolling depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatAttackOptions {
    /// Clock edges to unroll (the observable's cycle bound). Pick it
    /// above the oracle's correct-key latency — `latency × margin` — or
    /// the attack recovers a key for a truncated observable.
    pub unroll_cycles: u32,
    /// Starting depth of the lazy incremental unrolling. The attack
    /// encodes this many frames up front and grows the unrolling
    /// (doubling, capped at [`SatAttackOptions::unroll_cycles`]) only
    /// when a model or an UNSAT collapse proof touches the k-boundary
    /// frame. Set equal to `unroll_cycles` to recover the eager
    /// pay-max-latency-upfront encoding.
    pub initial_unroll: u32,
    /// Stop after this many DIPs (`None` = until collapse).
    pub max_dips: Option<u64>,
    /// Total solver conflict budget across all calls (`None` = unbounded).
    pub conflict_budget: Option<u64>,
    /// Total solver propagation ("step") budget across all calls
    /// (`None` = unbounded) — bounds UNSAT-hard collapse proofs that
    /// rack up few conflicts.
    pub step_budget: Option<u64>,
    /// Cooperative cancellation + wall-clock deadline: checked before
    /// every unrolled frame of the initial encode and every DIP
    /// iteration, and forwarded into the CDCL solver (which observes it
    /// at its own cadence), so a cancelled or expired attack stops
    /// mid-encode or mid-proof and still returns its partial effort and
    /// accumulated I/O constraints. Also carries the armed fault plan
    /// for the `attack.oracle` site (coordinate = DIP ordinal).
    pub budget: Budget,
    /// Telemetry handle (disabled by default). Enabled, the attack
    /// records an `attack.sat` span wrapping per-DIP `attack.dip` spans
    /// (conflict delta and accumulated CNF growth as args), forwards the
    /// handle into the CDCL solver, and samples `attack.clauses` /
    /// `attack.vars` after every iteration.
    pub obs: obs::Obs,
    /// Live progress feed (disabled by default). Enabled, the attack
    /// announces `max_dips` as its total (when bounded — an unbounded
    /// DIP loop's length is unknowable up front) under a `"sat-attack"`
    /// phase and ticks once per distinguishing input.
    pub progress: obs::ProgressTracker,
}

impl Default for SatAttackOptions {
    fn default() -> Self {
        SatAttackOptions {
            unroll_cycles: 64,
            initial_unroll: 8,
            max_dips: None,
            conflict_budget: None,
            step_budget: None,
            budget: Budget::unlimited(),
            obs: obs::Obs::off(),
            progress: obs::ProgressTracker::off(),
        }
    }
}

/// What exhausted an attack that did not reach collapse. In every case
/// the outcome still carries the DIPs found, the accumulated I/O
/// constraints and the effort counters — partial, internally consistent
/// results instead of vanishing — plus a key when one that reproduces
/// every collected constraint was found within the budget (see
/// [`SatAttackOutcome::key`]). A collapse whose key search ran out of
/// budget is reported here too, under the budget that stopped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustCause {
    /// [`SatAttackOptions::max_dips`] ran out.
    DipBudget,
    /// [`SatAttackOptions::conflict_budget`] ran out.
    ConflictBudget,
    /// [`SatAttackOptions::step_budget`] (propagations) ran out.
    StepBudget,
    /// The [`SatAttackOptions::budget`] wall-clock deadline expired.
    Deadline,
    /// The [`SatAttackOptions::budget`] token was cancelled.
    Cancelled,
}

impl std::fmt::Display for ExhaustCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExhaustCause::DipBudget => "dip budget",
            ExhaustCause::ConflictBudget => "conflict budget",
            ExhaustCause::StepBudget => "step budget",
            ExhaustCause::Deadline => "deadline",
            ExhaustCause::Cancelled => "cancelled",
        })
    }
}

/// How the attack ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatAttackStatus {
    /// The key space collapsed: the recovered key is observable-equivalent
    /// to the chip's on **every** input within the cycle bound.
    Recovered,
    /// A budget ran out or the attack was cancelled before collapse (or
    /// before the collapsed space yielded a key); the cause says which.
    /// A returned key reproduces every collected I/O constraint, but the
    /// space had not provably collapsed.
    Exhausted(ExhaustCause),
}

impl SatAttackStatus {
    /// `true` when the key space provably collapsed.
    pub fn is_recovered(&self) -> bool {
        matches!(self, SatAttackStatus::Recovered)
    }
}

/// One accumulated I/O constraint: a distinguishing input and the
/// oracle's label for it. The conjunction of all pairs is exactly what
/// the attack knows about the true key; exhausted attacks hand the list
/// back so a later run (or a resumed one) can start from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoConstraint {
    /// The distinguishing input queried.
    pub query: AttackQuery,
    /// What the activated chip answered.
    pub response: OracleResponse,
}

/// The attack's result and effort counters.
#[derive(Debug, Clone)]
pub struct SatAttackOutcome {
    /// Terminal status.
    pub status: SatAttackStatus,
    /// The recovered key. Any key returned reproduces every collected
    /// constraint at the full cycle bound. It is present whenever no
    /// constraint was collected (every key is then consistent) and on a
    /// [`SatAttackStatus::Recovered`] outcome against a consistent
    /// oracle (a collapse whose key search runs out of budget is
    /// reported `Exhausted` instead); an exhausted attack carries one
    /// only if it was found within what was left of the budgets.
    pub key: Option<KeyBits>,
    /// Distinguishing inputs found.
    pub dips: u64,
    /// Solver conflicts across all solve calls.
    pub conflicts: u64,
    /// Solver propagations across all solve calls.
    pub propagations: u64,
    /// CNF variables at the end of the attack.
    pub vars: usize,
    /// CNF clauses at the end of the attack: the encoded miter's clauses
    /// plus the learnt clauses the solver still holds then, so the count
    /// depends on the search, not only on the encoding.
    pub clauses: usize,
    /// Final unroll depth k reached by the lazy growth (equals
    /// [`SatAttackOptions::unroll_cycles`] only when the attack had to
    /// pay the full bound).
    pub unroll_final: u32,
    /// How many times the unrolling grew past its starting depth.
    pub growths: u64,
    /// Wall-clock time of the whole loop (encoding + solving + oracle).
    pub wall: Duration,
    /// Every (DIP, oracle label) pair accumulated, in discovery order —
    /// the attack's learned constraints, returned even (especially) when
    /// the attack was exhausted or cancelled mid-run.
    pub constraints: Vec<IoConstraint>,
}

impl SatAttackOutcome {
    /// DIPs per second of wall time.
    pub fn dips_per_sec(&self) -> f64 {
        self.dips as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Conflicts per second of wall time.
    pub fn conflicts_per_sec(&self) -> f64 {
        self.conflicts as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Runs the DIP loop against `oracle` on the elaborated netlist `sim`.
///
/// The oracle is any black box honouring the bounded observable —
/// typically the FSMD tape of the same design bound to the correct
/// working key, run with `max_cycles = opts.unroll_cycles`.
///
/// # Panics
///
/// Panics if the oracle responds with a shape that does not match the
/// design (wrong memory counts), or if the design has no key port.
pub fn sat_attack(
    sim: &VlogSim,
    opts: &SatAttackOptions,
    oracle: &mut dyn FnMut(&AttackQuery) -> OracleResponse,
) -> SatAttackOutcome {
    let t0 = Instant::now();
    let obs = opts.obs.clone();
    let mut attack_span = obs.span("attack.sat");
    let mut eng = AttackEngine::new(sim, opts);
    let dip_counter = obs.counter("attack.dips");
    let progress = opts.progress.clone();
    if progress.enabled() {
        progress.set_phase("sat-attack");
        if let Some(max) = opts.max_dips {
            progress.add_total(max);
        }
    }
    let mut constraints: Vec<IoConstraint> = Vec::new();
    let status = loop {
        match eng.step() {
            Step::Collapsed => break SatAttackStatus::Recovered,
            Step::NeedGrow => eng.grow_step(),
            Step::Dip(query) => {
                opts.budget.fault_hit(faultpoint::sites::ATTACK_ORACLE, eng.dips());
                let resp = {
                    let _oracle_span = obs.span("attack.oracle");
                    oracle(&query)
                };
                eng.apply_dip(&query, &resp);
                dip_counter.inc();
                progress.tick();
                constraints.push(IoConstraint { query, response: resp });
            }
            Step::Exhausted(cause) => break SatAttackStatus::Exhausted(cause),
        }
    };
    let (status, key) = eng.finish_model(status, &constraints);
    if attack_span.recording() {
        attack_span.arg("dips", eng.dips());
        attack_span.arg("conflicts", eng.solver_stats().conflicts);
        attack_span.arg("unroll_final", u64::from(eng.depth()));
    }
    eng.into_outcome(status, key, t0.elapsed(), constraints)
}

/// One accumulated constraint's growable encodings: the oracle label
/// plus one pinned-input unrolling per key copy, kept so growth can
/// re-encode only the new frames and re-assert at the new depth.
struct ConsEntry {
    resp: OracleResponse,
    ua: UnrollState,
    ub: UnrollState,
}

/// What one engine step decided.
enum Step {
    /// The key space provably collapsed at the full bound (or the
    /// boundary probe showed the shallow proof already covers it).
    Collapsed,
    /// A model or an UNSAT proof touched the k-boundary frame: the
    /// unrolling must grow before the loop can conclude anything.
    NeedGrow,
    /// A genuine distinguishing input — both copies terminate within
    /// the current depth (or the depth is already the full bound).
    Dip(AttackQuery),
    /// A budget ran out or the attack's own `Budget` fired.
    Exhausted(ExhaustCause),
}

/// The incremental DIP-loop state machine behind [`sat_attack`]: one
/// CNF, one miter at the current depth, every accumulated constraint
/// kept growable.
struct AttackEngine<'a> {
    sim: &'a VlogSim,
    enc: Encoder<'a>,
    g: Gates,
    opts: SatAttackOptions,
    inputs: EncInputs,
    key_a: KeyLits,
    key_b: KeyLits,
    ua: UnrollState,
    ub: UnrollState,
    /// Activation literal of the current depth's miter difference
    /// clause; permanently released (unit `!act`) when the depth grows.
    act: Lit,
    k_max: u32,
    cons: Vec<ConsEntry>,
    /// Both keys of the latest satisfiable miter answer: the candidates
    /// [`AttackEngine::finish_model`] checks before it solves.
    last_keys: Vec<KeyBits>,
    dips: u64,
    growths: u64,
}

impl<'a> AttackEngine<'a> {
    /// Builds the initial miter at `opts.initial_unroll` frames.
    ///
    /// # Panics
    ///
    /// Panics if the design has no key port.
    fn new(sim: &'a VlogSim, opts: &SatAttackOptions) -> AttackEngine<'a> {
        assert!(sim.key_width() > 0, "design has no working key to recover");
        let enc = Encoder::new(sim);
        let mut g = Gates::new();
        g.solver().set_obs(opts.obs.clone());
        // The solver observes the same cooperative budget at its own
        // check cadence, so a cancel or deadline lands mid-solve, not
        // only between DIPs.
        g.solver().set_ctrl(opts.budget.clone());
        let k_max = opts.unroll_cycles.max(1);
        let k0 = opts.initial_unroll.clamp(1, k_max);
        let mut encode_span = opts.obs.span("attack.encode");
        let inputs = enc.fresh_inputs(&mut g);
        let key_a = KeyLits::fresh(&mut g, sim);
        let key_b = KeyLits::fresh(&mut g, sim);
        let mut ua = enc.begin(&mut g, &inputs, &key_a);
        let mut ub = enc.begin(&mut g, &inputs, &key_b);
        // One frame at a time, all of `ua` then all of `ub`, so a fired
        // budget stops the encode between frames. `grow(u, 1)` k times
        // encodes exactly what `grow(u, k)` does.
        for u in [&mut ua, &mut ub] {
            for _ in 0..k0 {
                if opts.budget.exceeded().is_some() {
                    break;
                }
                enc.grow(&mut g, u, 1);
            }
        }
        let tru = g.tru();
        let mut eng = AttackEngine {
            sim,
            enc,
            g,
            opts: opts.clone(),
            inputs,
            key_a,
            key_b,
            ua,
            ub,
            act: tru,
            k_max,
            cons: Vec::new(),
            last_keys: Vec::new(),
            dips: 0,
            growths: 0,
        };
        eng.refresh_miter();
        encode_span.arg("unroll", u64::from(eng.depth()));
        encode_span.arg("vars", eng.g.solver_ref().num_vars() as u64);
        encode_span.arg("clauses", eng.g.solver_ref().num_clauses() as u64);
        eng
    }

    /// Current unroll depth.
    fn depth(&self) -> u32 {
        self.ua.cycles()
    }

    /// DIPs applied so far.
    fn dips(&self) -> u64 {
        self.dips
    }

    /// Cumulative solver statistics.
    fn solver_stats(&self) -> sat::SolverStats {
        self.g.solver_ref().stats()
    }

    /// Builds (or rebuilds, after growth) the miter difference clause at
    /// the current depth under a fresh activation literal.
    fn refresh_miter(&mut self) {
        let oa = self.enc.observables(&mut self.g, &self.ua);
        let ob = self.enc.observables(&mut self.g, &self.ub);
        let diff = observable_diff(&mut self.g, &oa, &ob);
        let act = self.g.fresh();
        self.g.assert_clause(&[!act, diff]);
        self.act = act;
    }

    fn set_budget(&mut self) {
        let stats = self.g.solver_ref().stats();
        let remaining =
            self.opts.conflict_budget.map(|total| total.saturating_sub(stats.conflicts));
        self.g.solver().set_conflict_budget(remaining);
        let steps_left =
            self.opts.step_budget.map(|total| total.saturating_sub(stats.propagations));
        self.g.solver().set_step_budget(steps_left);
    }

    /// Attributes a solver `Budget` outcome to the resource that ran dry.
    fn budget_cause(&self) -> ExhaustCause {
        let conflicts_spent = self.g.solver_ref().stats().conflicts;
        match self.opts.conflict_budget {
            Some(total) if conflicts_spent >= total => ExhaustCause::ConflictBudget,
            _ => ExhaustCause::StepBudget,
        }
    }

    /// One decision of the DIP loop: solve the miter at the current
    /// depth and classify the result.
    fn step(&mut self) -> Step {
        if let Some(kind) = self.opts.budget.exceeded() {
            return Step::Exhausted(cancel_cause(kind));
        }
        if let Some(max) = self.opts.max_dips {
            if self.dips >= max {
                return Step::Exhausted(ExhaustCause::DipBudget);
            }
        }
        self.set_budget();
        let mut dip_span = self.opts.obs.span("attack.dip");
        let conflicts_before = self.g.solver_ref().stats().conflicts;
        let act = self.act;
        let outcome = self.g.solve_assuming(&[act]);
        if dip_span.recording() {
            dip_span.arg("dip", self.dips);
            dip_span.arg("depth", u64::from(self.depth()));
            dip_span
                .arg("conflict_delta", self.g.solver_ref().stats().conflicts - conflicts_before);
            dip_span.arg("vars", self.g.solver_ref().num_vars() as u64);
            dip_span.arg("clauses", self.g.solver_ref().num_clauses() as u64);
        }
        match outcome {
            SolveOutcome::Sat => {
                self.last_keys = vec![self.key_a.model_key(&self.g), self.key_b.model_key(&self.g)];
                let done_a = self.g.model(self.ua.done());
                let done_b = self.g.model(self.ub.done());
                if (done_a && done_b) || self.depth() == self.k_max {
                    // Both copies terminated within k ≤ k_max, so their
                    // frozen outputs equal the k_max observable — a
                    // genuine DIP. (At the full bound every model is.)
                    Step::Dip(AttackQuery {
                        args: self.inputs.args.iter().map(|a| a.model_value(&self.g)).collect(),
                        mems: self
                            .inputs
                            .mems
                            .iter()
                            .map(|(_, elems)| {
                                elems.iter().map(|e| e.model_value(&self.g)).collect()
                            })
                            .collect(),
                    })
                } else {
                    // The disagreement is about *termination within k*,
                    // which the full-bound observable may not share — a
                    // boundary artifact. Deepen instead of querying.
                    Step::NeedGrow
                }
            }
            SolveOutcome::Unsat => {
                if self.depth() == self.k_max {
                    return Step::Collapsed;
                }
                // Shallow collapse proof. Sound iff no consistent key
                // can still be running at the boundary: if some key is
                // not done within k on some input, the proof leaned on
                // the truncated frames — grow. If every consistent key
                // finishes within k on every input, the depth-k
                // observable equals the full-bound one and the collapse
                // stands.
                self.set_budget();
                let not_done = !self.ua.done();
                match self.g.solve_assuming(&[not_done]) {
                    SolveOutcome::Sat => Step::NeedGrow,
                    SolveOutcome::Unsat => Step::Collapsed,
                    SolveOutcome::Budget => Step::Exhausted(self.budget_cause()),
                    SolveOutcome::Cancelled => Step::Exhausted(self.cancelled_cause()),
                }
            }
            SolveOutcome::Budget => Step::Exhausted(self.budget_cause()),
            SolveOutcome::Cancelled => Step::Exhausted(self.cancelled_cause()),
        }
    }

    /// Attributes a solver `Cancelled` outcome: the solver's ctrl is the
    /// attack's own `Budget`, so whichever stop condition it holds.
    fn cancelled_cause(&self) -> ExhaustCause {
        self.opts.budget.exceeded().map_or(ExhaustCause::Cancelled, cancel_cause)
    }

    /// Deepens the unrolling (doubling, capped at the full bound):
    /// retires the old miter clause, grows both miter copies and every
    /// accumulated constraint by the new frames only, and re-asserts
    /// each constraint at the new depth.
    fn grow_step(&mut self) {
        let k = self.depth();
        debug_assert!(k < self.k_max);
        let new_k = k.saturating_mul(2).min(self.k_max);
        let delta = new_k - k;
        let mut grow_span = self.opts.obs.span("attack.grow");
        let act = self.act;
        self.g.assert_true(!act);
        self.enc.grow(&mut self.g, &mut self.ua, delta);
        self.enc.grow(&mut self.g, &mut self.ub, delta);
        self.refresh_miter();
        let exact = new_k == self.k_max;
        for c in &mut self.cons {
            for u in [&mut c.ua, &mut c.ub] {
                self.enc.grow(&mut self.g, u, delta);
                let obs_u = self.enc.observables(&mut self.g, u);
                constrain_lazy(&mut self.g, &obs_u, &c.resp, exact);
            }
        }
        self.growths += 1;
        if grow_span.recording() {
            grow_span.arg("from", u64::from(k));
            grow_span.arg("to", u64::from(new_k));
            grow_span.arg("vars", self.g.solver_ref().num_vars() as u64);
            grow_span.arg("clauses", self.g.solver_ref().num_clauses() as u64);
        }
    }

    /// Encodes the oracle's label for a DIP at the current depth: one
    /// pinned-input growable unrolling per key copy, constrained as an
    /// implication (`done_k → outputs = label`) so the fact stays sound
    /// as the depth grows.
    fn apply_dip(&mut self, query: &AttackQuery, resp: &OracleResponse) {
        let _pin_span = self.opts.obs.span("attack.constrain");
        let pinned = self.enc.pinned_inputs(&mut self.g, &query.args, &query.mems);
        let k = self.depth();
        let exact = k == self.k_max;
        let mut states = Vec::with_capacity(2);
        for key in [&self.key_a, &self.key_b] {
            let mut u = self.enc.begin(&mut self.g, &pinned, key);
            self.enc.grow(&mut self.g, &mut u, k);
            let obs_u = self.enc.observables(&mut self.g, &u);
            constrain_lazy(&mut self.g, &obs_u, resp, exact);
            states.push(u);
        }
        let ub = states.pop().expect("two key copies");
        let ua = states.pop().expect("two key copies");
        self.cons.push(ConsEntry { resp: resp.clone(), ua, ub });
        self.dips += 1;
        if self.opts.obs.enabled() {
            self.opts.obs.sample("attack.vars", self.g.solver_ref().num_vars() as u64);
            self.opts.obs.sample("attack.clauses", self.g.solver_ref().num_clauses() as u64);
        }
    }

    /// A key that reproduces every collected I/O pair at the full bound,
    /// found within what is left of the attack's budget:
    ///
    /// 1. with no constraint every key is consistent, so `key_a`'s
    ///    saved phases are returned without a solve;
    /// 2. otherwise the first key of the latest satisfiable miter answer
    ///    that [`AttackEngine::reproduces`] every label is returned;
    /// 3. otherwise, unless the attack's `Budget` has fired, the solver
    ///    searches the constraints (the miter's difference clause is
    ///    released by leaving `act` free) under the remaining conflict
    ///    and step budgets, and its key is returned if it passes the
    ///    same check.
    ///
    /// Anything else yields no key, and a `Recovered` status whose key
    /// search ran out of budget comes back as `Exhausted` under that
    /// budget. (Only an oracle that contradicts itself leaves a collapse
    /// without a key: its constraints have no model.)
    fn finish_model(
        &mut self,
        status: SatAttackStatus,
        constraints: &[IoConstraint],
    ) -> (SatAttackStatus, Option<KeyBits>) {
        let _model_span = self.opts.obs.span("attack.model");
        if constraints.is_empty() {
            return (status, Some(self.key_a.model_key(&self.g)));
        }
        if let Some(key) = self.last_keys.iter().find(|k| self.reproduces(k, constraints)) {
            return (status, Some(key.clone()));
        }
        let outcome = match self.opts.budget.exceeded() {
            Some(_) => SolveOutcome::Cancelled,
            None => {
                self.set_budget();
                self.g.solver().solve()
            }
        };
        let cause = match outcome {
            SolveOutcome::Sat => {
                let key = self.key_a.model_key(&self.g);
                return (status, self.reproduces(&key, constraints).then_some(key));
            }
            SolveOutcome::Unsat => return (status, None),
            SolveOutcome::Budget => self.budget_cause(),
            SolveOutcome::Cancelled => self.cancelled_cause(),
        };
        match status {
            SatAttackStatus::Recovered => (SatAttackStatus::Exhausted(cause), None),
            exhausted => (exhausted, None),
        }
    }

    /// Whether the netlist run with `key` at the full bound reproduces
    /// every label: a `CycleLimit` run where the label says `done:
    /// false`, otherwise a finished run with the label's `ret` and
    /// output memories.
    fn reproduces(&self, key: &KeyBits, constraints: &[IoConstraint]) -> bool {
        let opts = SimOptions { max_cycles: u64::from(self.k_max), snapshot_on_timeout: false };
        let free = self.enc.free_mem_ids();
        let out = self.enc.out_mem_ids();
        constraints.iter().all(|c| {
            let mems: Vec<(usize, Vec<u64>)> =
                free.iter().copied().zip(c.query.mems.iter().cloned()).collect();
            match self.sim.simulate(&c.query.args, key, &mems, &opts) {
                Err(SimError::CycleLimit) => !c.response.done,
                Ok(r) => {
                    c.response.done
                        && r.ret == c.response.ret
                        && out.iter().map(|&m| &r.mems[m]).eq(&c.response.mems)
                }
                Err(_) => false,
            }
        })
    }

    /// Packages the terminal state into the public outcome.
    fn into_outcome(
        self,
        status: SatAttackStatus,
        key: Option<KeyBits>,
        wall: Duration,
        constraints: Vec<IoConstraint>,
    ) -> SatAttackOutcome {
        let stats = self.g.solver_ref().stats();
        SatAttackOutcome {
            status,
            key,
            dips: self.dips,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            vars: self.g.solver_ref().num_vars(),
            clauses: self.g.solver_ref().num_clauses(),
            unroll_final: self.depth(),
            growths: self.growths,
            wall,
            constraints,
        }
    }
}

/// The exhaust cause a fired attack `Budget` reports.
fn cancel_cause(kind: CancelKind) -> ExhaustCause {
    match kind {
        CancelKind::Cancelled => ExhaustCause::Cancelled,
        CancelKind::DeadlineExpired => ExhaustCause::Deadline,
    }
}

/// The miter's difference observable: the two copies disagree on
/// termination, or both terminate and any output bit differs.
fn observable_diff(g: &mut Gates, a: &Unrolling, b: &Unrolling) -> sat::Lit {
    let done_diff = g.xor(a.done, b.done);
    let mut out_bits = Vec::new();
    if let (Some(ra), Some(rb)) = (&a.ret, &b.ret) {
        out_bits.extend(ra.0.iter().zip(&rb.0).map(|(&x, &y)| (x, y)));
    }
    for ((mi, ma), (mj, mb)) in a.out_mems.iter().zip(&b.out_mems) {
        debug_assert_eq!(mi, mj);
        for (ea, eb) in ma.iter().zip(mb) {
            out_bits.extend(ea.0.iter().zip(&eb.0).map(|(&x, &y)| (x, y)));
        }
    }
    let diffs: Vec<sat::Lit> = out_bits.into_iter().map(|(x, y)| g.xor(x, y)).collect();
    let out_diff = g.or_many(&diffs);
    let both_done = g.and(a.done, b.done);
    let out_and_done = g.and(both_done, out_diff);
    g.or(done_diff, out_and_done)
}

/// Constrains one pinned-input unrolling to the oracle's label in a
/// depth-robust form. At the full bound (`exact`) the label is the
/// observable itself and is asserted outright. At a shallower depth
/// only implications are sound: termination within k implies the frozen
/// outputs are the full-bound image, so `done_k → outputs = label`; and
/// an oracle that never terminated within the full bound certainly
/// didn't within k, so `¬done_k` is a unit fact.
fn constrain_lazy(g: &mut Gates, u: &Unrolling, resp: &OracleResponse, exact: bool) {
    if exact {
        constrain_to_response(g, u, resp);
        return;
    }
    if !resp.done {
        g.assert_true(!u.done);
        return;
    }
    let release = !u.done;
    if let (Some(rv), Some(want)) = (&u.ret, resp.ret) {
        pin_under(g, release, rv, want);
    }
    for (slot, (_, elems)) in u.out_mems.iter().enumerate() {
        let Some(want) = resp.mems.get(slot) else { continue };
        for (j, e) in elems.iter().enumerate() {
            pin_under(g, release, e, want.get(j).copied().unwrap_or(0));
        }
    }
}

/// `release ∨ (v = want)`, bit by bit — a guarded [`Bv::pin`].
fn pin_under(g: &mut Gates, release: Lit, v: &Bv, want: u64) {
    for (i, &bit) in v.0.iter().enumerate() {
        let want_bit = i < 64 && (want >> i) & 1 == 1;
        g.assert_clause(&[release, if want_bit { bit } else { !bit }]);
    }
}

/// Constrains one pinned-input unrolling to reproduce the oracle's label.
fn constrain_to_response(g: &mut Gates, u: &Unrolling, resp: &OracleResponse) {
    if !resp.done {
        g.assert_true(!u.done);
        return;
    }
    g.assert_true(u.done);
    if let (Some(rv), Some(want)) = (&u.ret, resp.ret) {
        rv.pin(g, want);
    }
    for (slot, (_, elems)) in u.out_mems.iter().enumerate() {
        let Some(want) = resp.mems.get(slot) else { continue };
        for (j, e) in elems.iter().enumerate() {
            e.pin(g, want.get(j).copied().unwrap_or(0));
        }
    }
}
