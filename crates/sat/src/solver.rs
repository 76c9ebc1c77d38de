//! The CDCL solver core.
//!
//! A MiniSat-lineage solver: two-watched-literal propagation with blocker
//! literals, VSIDS-style dynamic variable activity with phase saving,
//! first-UIP conflict-clause learning with recursive minimization, Luby
//! restarts, glue- and activity-driven learnt-clause reduction, and
//! incremental solving under assumptions, all in safe `std` Rust. The
//! solver can be queried for a model after every satisfiable call and
//! extended with new variables and clauses between calls.
//!
//! # Clause store
//!
//! A binary clause `(a ∨ b)` never enters the clause store: it lives as the
//! implications `¬a → b` and `¬b → a` in per-literal lists that propagate
//! before any longer clause. Every longer clause lives in one flat `u32`
//! arena as a header word followed by its literals, the layout of
//! MiniSat's clause allocator, so a watch visit that gets past its blocker
//! reads the length and the literals from one cache line:
//!
//! ```text
//! [len << 2 | flags] [lit 0] [lit 1] … [lit len-1]  ([glue] [activity lo] [activity hi])
//! ```
//!
//! A clause is named by the offset of its header (its *cref*); watch
//! entries and reasons hold crefs, which stay below the tag bit that marks
//! a binary reason. A learnt clause carries its glue and its `f64`
//! activity after the literals. Literals 0 and 1 are the watched pair, and
//! a clause that is the reason of an assignment keeps the implied literal
//! in slot 0, so `reason[var(lit 0)] == cref` says whether it is locked.
//!
//! `reduce_db` walks the arena in allocation order and evicts half of the
//! unlocked learnt clauses with glue above 2, ordered by a stable (glue
//! descending, activity ascending) sort. Survivors slide down in place, a
//! locked clause's reason follows it to its new offset, and every watch
//! list is rebuilt in clause order.

use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

// `neg` returns this variable's negative literal — a constructor, not a
// negation of `Var` itself, so `std::ops::Neg` is the wrong shape.
#[allow(clippy::should_implement_trait)]
impl Var {
    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn neg(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` when this is the negated polarity.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite-polarity literal of the same variable.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index (for watch lists).
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "-" } else { "" }, self.var().0)
    }
}

/// Outcome of a `solve` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found (read it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource budget (conflicts via [`Solver::set_conflict_budget`],
    /// propagations via [`Solver::set_step_budget`]) ran out before an
    /// answer was reached.
    Budget,
    /// The attached [`sim_core::Budget`] stopped the search: its token
    /// was cancelled or its wall-clock deadline expired (see
    /// [`Solver::set_ctrl`]). The solver is back at decision level 0 and
    /// remains usable.
    Cancelled,
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals enqueued through the dedicated binary implication lists.
    pub bin_props: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Long learnt clauses currently in the database (binary learnt
    /// clauses graduate to the implication lists and are not counted).
    pub learnt: u64,
    /// Literals removed from learnt clauses by recursive minimization.
    pub minimized: u64,
    /// Learnt clauses protected from eviction by glue ≤ 2 across all
    /// database reductions (cumulative).
    pub glue_kept: u64,
}

/// VSIDS variable-activity decay: the activity increment grows by
/// `1 / VAR_DECAY` per conflict.
const VAR_DECAY: f64 = 0.95;
/// Learnt-clause activity decay.
const CLAUSE_DECAY: f64 = 0.999;
/// Luby restart unit, in conflicts.
const RESTART_BASE: u64 = 128;

/// One watch-list entry: the arena offset of the watching clause plus a
/// *blocker* literal — some other literal of the clause, checked before
/// the clause itself is touched. When the blocker is already true the
/// clause is satisfied and the arena is not read at all, which is the
/// common case on the miter instances this solver feeds on.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    blocker: Lit,
}

/// Header flag: a learnt clause, followed by its glue and activity.
const LEARNT: u32 = 1;
/// Header flag, set only inside `reduce_db`: the clause is evicted.
const DROPPED: u32 = 2;
/// Words a learnt clause carries after its literals.
const LEARNT_EXTRA: usize = 3;

/// The literal slots of the clause whose header is at `cref`.
#[inline(always)]
fn lits(arena: &[u32], cref: usize) -> std::ops::Range<usize> {
    cref + 1..cref + 1 + (arena[cref] >> 2) as usize
}

/// The offset of the clause allocated after the one at `cref`.
fn next_clause(arena: &[u32], cref: usize) -> usize {
    let end = lits(arena, cref).end;
    if arena[cref] & LEARNT != 0 {
        end + LEARNT_EXTRA
    } else {
        end
    }
}

/// The `f64` activity stored in the two words at `at`, one past a learnt
/// clause's glue.
fn read_activity(arena: &[u32], at: usize) -> f64 {
    f64::from_bits(u64::from(arena[at]) | u64::from(arena[at + 1]) << 32)
}

fn write_activity(arena: &mut [u32], at: usize, a: f64) {
    let bits = a.to_bits();
    arena[at] = bits as u32;
    arena[at + 1] = (bits >> 32) as u32;
}

const UNDEF: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// Literal truth value against a raw assignment slice — a free function
/// so `propagate` can keep the clause arena mutably borrowed while it
/// reads assignments.
#[inline(always)]
fn lv(assign: &[u8], l: Lit) -> u8 {
    let a = assign[l.var().index()];
    // A negative literal swaps TRUE and FALSE (1 ^ 3 = 2, 2 ^ 3 = 1).
    if a == UNDEF || !l.is_neg() {
        a
    } else {
        a ^ (TRUE | FALSE)
    }
}

const NO_REASON: u32 = u32::MAX;
/// Tag bit marking a reason as a binary implication: the low bits hold
/// the *other* literal of the binary clause instead of a cref (crefs are
/// asserted below it). `NO_REASON` (`u32::MAX`) also carries the tag, so
/// always test for it first where both can occur.
const BIN_TAG: u32 = 1 << 31;

fn bin_reason(other: Lit) -> u32 {
    debug_assert_eq!(other.0 & BIN_TAG, 0);
    BIN_TAG | other.0
}

/// A propagation conflict: either a long clause (its arena offset) or a
/// binary clause living in the implication lists.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    Long(u32),
    Bin(Lit, Lit),
}

/// The CDCL solver.
///
/// ```
/// use sat::{SolveOutcome, Solver};
///
/// let mut s = Solver::new();
/// let (a, b) = (s.new_var(), s.new_var());
/// s.add_clause(&[a.pos(), b.pos()]);
/// s.add_clause(&[a.neg()]);
/// assert_eq!(s.solve(), SolveOutcome::Sat);
/// assert!(!s.value(a) && s.value(b));
/// // Incremental: learn more, solve again.
/// s.add_clause(&[b.neg()]);
/// assert_eq!(s.solve(), SolveOutcome::Unsat);
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// Every clause of three or more literals, header and literals
    /// inline (see the module docs), in allocation order.
    arena: Vec<u32>,
    /// `watches[lit.code()]`: clauses currently watching `lit`, each
    /// with a blocker literal that short-circuits satisfied clauses.
    watches: Vec<Vec<Watch>>,
    /// `bin_imps[lit.code()]`: literals implied the moment `lit` becomes
    /// true — every binary clause `(a ∨ b)` lives here as `¬a → b` and
    /// `¬b → a`, never in the clause arena, and is propagated before any
    /// long-clause watch traversal.
    bin_imps: Vec<Vec<Lit>>,
    /// Clauses held: binary, long original, and long learnt not evicted.
    n_clauses: usize,
    assign: Vec<u8>,
    /// Saved polarity per variable (phase saving).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// VSIDS activity per variable plus the indexed max-heap over it.
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    cla_inc: f64,
    /// `false` once the clause set is unsatisfiable at level 0.
    ok: bool,
    /// Conflict budget for each `solve` call (`None` = unbounded).
    budget: Option<u64>,
    /// Propagation-count budget for each `solve` call (`None` =
    /// unbounded) — bounds UNSAT-hard instances that rack up few
    /// conflicts.
    step_budget: Option<u64>,
    /// Cooperative cancellation + wall-clock deadline, checked every
    /// [`CTRL_CHECK_INTERVAL`] propagated literals (binary implications
    /// included) and carrying the `sat.propagate` fault site.
    ctrl: sim_core::Budget,
    /// Monotonic count of control checks performed (the fault-site
    /// coordinate), cumulative across restarts and solve calls.
    ctrl_ticks: u64,
    /// Propagation-count threshold at which the next control check runs.
    next_ctrl: u64,
    stats: SolverStats,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Reused clause buffer: `add_clause` normalizes into it and
    /// `analyze` builds the learnt clause in it.
    lits_buf: Vec<Lit>,
    /// `level_stamp[level]`: the conflict count of the last `analyze`
    /// that met `level` while counting glue.
    level_stamp: Vec<u64>,
    /// Scratch stacks for recursive learnt-clause minimization.
    min_stack: Vec<Lit>,
    min_clear: Vec<Lit>,
    /// Learnt-clause count that triggers the next database reduction.
    next_reduce: usize,
    /// Telemetry handle (disabled by default): `sat.solve` spans plus
    /// conflict/propagation/learnt-DB samples at every restart.
    obs: obs::Obs,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            watches: Vec::new(),
            bin_imps: Vec::new(),
            n_clauses: 0,
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            budget: None,
            step_budget: None,
            ctrl: sim_core::Budget::unlimited(),
            ctrl_ticks: 0,
            next_ctrl: 0,
            stats: SolverStats::default(),
            seen: Vec::new(),
            lits_buf: Vec::new(),
            level_stamp: Vec::new(),
            min_stack: Vec::new(),
            min_clear: Vec::new(),
            next_reduce: 4000,
            obs: obs::Obs::off(),
        }
    }

    /// Attaches a telemetry handle. Enabled, every solve call records a
    /// `sat.solve` span (with effort deltas as args), bumps the
    /// `sat.conflicts` / `sat.decisions` / `sat.propagations` /
    /// `sat.restarts` counters, and samples the cumulative effort plus
    /// the learnt-DB size at each restart — the solver's progress over
    /// time without touching the search itself.
    pub fn set_obs(&mut self, obs: obs::Obs) {
        self.obs = obs;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNDEF);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_imps.push(Vec::new());
        self.bin_imps.push(Vec::new());
        self.seen.push(false);
        self.heap_pos.push(usize::MAX);
        self.heap_insert(v);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + binary + currently retained learnt).
    pub fn num_clauses(&self) -> usize {
        self.n_clauses
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Sets the per-`solve` conflict budget (`None` = unbounded).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Sets the per-`solve` propagation-count ("step") budget (`None` =
    /// unbounded). Complements the conflict budget: an UNSAT-hard
    /// instance can propagate forever while racking up few conflicts,
    /// and a step budget still bounds it. Exhaustion reports
    /// [`SolveOutcome::Budget`], exactly like the conflict budget.
    pub fn set_step_budget(&mut self, steps: Option<u64>) {
        self.step_budget = steps;
    }

    /// Attaches a cooperative control handle: the search observes the
    /// budget's cancellation token and wall-clock deadline at a fixed
    /// iteration cadence (and at every restart) and returns
    /// [`SolveOutcome::Cancelled`] when either trips, leaving the solver
    /// at level 0 and reusable. Enabled telemetry bumps a
    /// `sat.cancelled` counter per cancelled solve.
    pub fn set_ctrl(&mut self, ctrl: sim_core::Budget) {
        self.ctrl = ctrl;
    }

    /// The attached control handle.
    pub fn ctrl(&self) -> &sim_core::Budget {
        &self.ctrl
    }

    /// Adds a clause. Returns `false` when the clause set has become
    /// unsatisfiable at the top level (further calls keep returning
    /// `false`).
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (the solver always returns to decision
    /// level 0 before handing control back, so this only fires on misuse).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(self.trail_lim.is_empty(), "add_clause mid-search");
        if !self.ok {
            return false;
        }
        // Normalize in the reused buffer: sort, dedup, detect tautologies
        // and root-true literals, drop root-false literals.
        let mut c = std::mem::take(&mut self.lits_buf);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let satisfied = c.windows(2).any(|w| w[1] == !w[0]) // (x ∨ ¬x)
            || c.iter().any(|&l| self.lit_value(l) == TRUE);
        c.retain(|&l| self.lit_value(l) == UNDEF);
        let ok = match c.len() {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                self.ok = self.propagate().is_none();
                self.ok
            }
            2 => {
                self.attach_binary(c[0], c[1]);
                true
            }
            _ => {
                self.attach(&c, false, 0);
                true
            }
        };
        self.lits_buf = c;
        ok
    }

    /// Solves the current clause set with no assumptions.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_assuming(&[])
    }

    /// Solves under the given assumption literals. A later call without
    /// them sees the same clause set unrestricted — this is what makes
    /// activation-literal patterns (miter on/off) cheap.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        let mut span = self.obs.span("sat.solve");
        let before = self.stats;
        let budget_end = self.budget.map(|b| self.stats.conflicts.saturating_add(b));
        let step_end = self.step_budget.map(|b| self.stats.propagations.saturating_add(b));
        let mut restart = 0u64;
        let outcome = loop {
            let limit = luby(restart) * RESTART_BASE;
            match self.search(limit, assumptions, budget_end, step_end) {
                Search::Sat => {
                    // Every variable is assigned, and `enqueue` saved each
                    // one's phase: the model stays readable through
                    // `value` after the return to level 0.
                    self.cancel_until(0);
                    break SolveOutcome::Sat;
                }
                Search::Unsat => {
                    self.cancel_until(0);
                    break SolveOutcome::Unsat;
                }
                Search::Budget => {
                    self.cancel_until(0);
                    break SolveOutcome::Budget;
                }
                Search::Cancelled => {
                    self.cancel_until(0);
                    if self.obs.enabled() {
                        self.obs.counter("sat.cancelled").inc();
                    }
                    break SolveOutcome::Cancelled;
                }
                Search::Restart => {
                    self.stats.restarts += 1;
                    if self.obs.enabled() {
                        self.obs.sample("sat.conflicts", self.stats.conflicts);
                        self.obs.sample("sat.propagations", self.stats.propagations);
                        self.obs.sample("sat.decisions", self.stats.decisions);
                        self.obs.sample("sat.learnt", self.stats.learnt);
                    }
                    self.cancel_until(0);
                    restart += 1;
                }
            }
        };
        if span.recording() {
            let d = self.stats;
            span.arg("conflicts", d.conflicts - before.conflicts);
            span.arg("decisions", d.decisions - before.decisions);
            span.arg("propagations", d.propagations - before.propagations);
            span.arg("learnt", d.learnt);
            self.obs.counter("sat.solves").inc();
            self.obs.counter("sat.conflicts").add(d.conflicts - before.conflicts);
            self.obs.counter("sat.decisions").add(d.decisions - before.decisions);
            self.obs.counter("sat.propagations").add(d.propagations - before.propagations);
            self.obs.counter("sat.restarts").add(d.restarts - before.restarts);
            self.obs.counter("sat.bin_props").add(d.bin_props - before.bin_props);
            self.obs.counter("sat.minimized_lits").add(d.minimized - before.minimized);
            self.obs.counter("sat.glue_kept").add(d.glue_kept - before.glue_kept);
            self.obs.gauge("sat.learnt").set(d.learnt);
        }
        outcome
    }

    /// The model value of `v` after a [`SolveOutcome::Sat`] answer.
    pub fn value(&self, v: Var) -> bool {
        self.phase[v.index()]
    }

    /// The model value of a literal after a [`SolveOutcome::Sat`] answer.
    pub fn lit_true(&self, l: Lit) -> bool {
        self.value(l.var()) != l.is_neg()
    }

    // ------------------------------------------------------------ search

    /// Propagated literals (long-clause dequeues *plus* binary-list
    /// implications) between cooperative-control checks. Frequent enough
    /// that a deadline or cancel stops a propagation-heavy search within
    /// microseconds; rare enough that an unlimited budget costs one
    /// compare per search iteration. Counting binary propagations keeps
    /// the effective interval honest on binary-heavy instances, where a
    /// single search iteration can flood thousands of implications.
    const CTRL_CHECK_INTERVAL: u64 = 256;

    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        budget_end: Option<u64>,
        step_end: Option<u64>,
    ) -> Search {
        let mut conflicts = 0u64;
        loop {
            // Cooperative control: the step budget is a plain compare
            // every iteration; the deadline/cancel check (which may read
            // the clock) and the `sat.propagate` fault site run every
            // `CTRL_CHECK_INTERVAL` *propagated literals* — binary
            // implications included — with the cumulative check ordinal
            // as the fault coordinate. Pacing by propagation work rather
            // than loop iterations keeps the check interval honest when
            // one iteration floods a long binary chain.
            if let Some(end) = step_end {
                if self.stats.propagations >= end {
                    return Search::Budget;
                }
            }
            let work = self.stats.propagations + self.stats.bin_props;
            if work >= self.next_ctrl {
                let ord = self.ctrl_ticks;
                self.ctrl_ticks += 1;
                self.next_ctrl = work + Self::CTRL_CHECK_INTERVAL;
                self.ctrl.fault_hit(sim_core::faultpoint::sites::SAT_PROPAGATE, ord);
                if self.ctrl.is_exceeded() {
                    return Search::Cancelled;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Search::Unsat;
                }
                let (bt, glue) = self.analyze(confl);
                // Never undo assumption decisions past where the learnt
                // clause asserts; backtracking *through* assumptions is
                // fine — the decision loop below re-applies them.
                self.cancel_until(bt);
                let learnt = std::mem::take(&mut self.lits_buf);
                let asserting = learnt[0];
                match learnt.len() {
                    1 => self.enqueue(asserting, NO_REASON),
                    2 => {
                        // Binary learnt clauses graduate straight to the
                        // implication lists — never reduced, propagated
                        // before any watch traversal.
                        self.attach_binary(learnt[0], learnt[1]);
                        self.enqueue(asserting, bin_reason(learnt[1]));
                    }
                    _ => {
                        let cref = self.attach(&learnt, true, glue);
                        self.enqueue(asserting, cref);
                    }
                }
                self.lits_buf = learnt;
                self.decay_activities();
                if self.stats.learnt as usize >= self.next_reduce {
                    self.reduce_db();
                }
                if let Some(end) = budget_end {
                    if self.stats.conflicts >= end {
                        return Search::Budget;
                    }
                }
                if conflicts >= conflict_limit {
                    return Search::Restart;
                }
            } else {
                // Decisions: assumptions first (one per propagation round,
                // so implication levels stay exact), then VSIDS.
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        TRUE => self.trail_lim.push(self.trail.len()),
                        FALSE => return Search::Unsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, NO_REASON);
                            break;
                        }
                    }
                }
                if self.qhead < self.trail.len() {
                    continue; // an assumption was enqueued: propagate it
                }
                let Some(v) = self.pick_branch_var() else {
                    return Search::Sat;
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.phase[v.index()] { v.pos() } else { v.neg() };
                self.enqueue(lit, NO_REASON);
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> u8 {
        lv(&self.assign, l)
    }

    #[inline(always)]
    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var().index();
        self.assign[v] = if l.is_neg() { FALSE } else { TRUE };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = UNDEF;
            self.reason[v.index()] = NO_REASON;
            if self.heap_pos[v.index()] == usize::MAX {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = keep;
    }

    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Binary implications of `p` first: a flat literal list, no
            // clause-arena indirection, and it seeds the queue before
            // any long-clause watch traversal touches memory.
            let nb = self.bin_imps[p.code()].len();
            for i in 0..nb {
                let q = self.bin_imps[p.code()][i];
                match lv(&self.assign, q) {
                    TRUE => {}
                    FALSE => return Some(Conflict::Bin(q, !p)),
                    _ => {
                        self.stats.bin_props += 1;
                        self.enqueue(q, bin_reason(!p));
                    }
                }
            }
            let false_lit = !p;
            // Clauses watching ¬p must find a new watch or propagate.
            // The loop reads assignments through `lv` on the `assign`
            // field directly so the clause arena can stay mutably
            // borrowed across the watch search.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = 0usize;
            let mut confl = None;
            let n = ws.len();
            let mut wi = 0usize;
            while wi < n {
                let w = ws[wi];
                wi += 1;
                // Blocker check: a satisfied clause costs one array read.
                if lv(&self.assign, w.blocker) == TRUE {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let range = lits(&self.arena, w.cref as usize);
                let cl = &mut self.arena[range];
                if cl[0] == false_lit.0 {
                    cl.swap(0, 1);
                }
                debug_assert_eq!(cl[1], false_lit.0);
                let first = Lit(cl[0]);
                if first != w.blocker && lv(&self.assign, first) == TRUE {
                    // Satisfied through the other watch: remember it as
                    // the blocker for next time.
                    ws[keep] = Watch { cref: w.cref, blocker: first };
                    keep += 1;
                    continue;
                }
                let mut moved = None;
                for k in 2..cl.len() {
                    let l = Lit(cl[k]);
                    if lv(&self.assign, l) != FALSE {
                        cl.swap(1, k);
                        moved = Some(l);
                        break;
                    }
                }
                if let Some(l) = moved {
                    self.watches[l.code()].push(Watch { cref: w.cref, blocker: first });
                    continue;
                }
                // No new watch: unit or conflict.
                ws[keep] = w;
                keep += 1;
                if lv(&self.assign, first) == FALSE {
                    confl = Some(Conflict::Long(w.cref));
                    // Copy the rest back and stop.
                    while wi < n {
                        ws[keep] = ws[wi];
                        keep += 1;
                        wi += 1;
                    }
                    break;
                }
                self.enqueue(first, w.cref);
            }
            ws.truncate(keep);
            self.watches[false_lit.code()] = ws;
            if confl.is_some() {
                return confl;
            }
        }
        None
    }

    /// First-UIP conflict analysis: builds the learnt clause in
    /// `lits_buf` (asserting literal first, recursively minimized) and
    /// returns the backtrack level and the clause's literal block
    /// distance (glue).
    fn analyze(&mut self, confl: Conflict) -> (u32, u32) {
        self.lits_buf.clear();
        self.lits_buf.push(Lit(0)); // slot 0 = asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut ante = confl;
        loop {
            match ante {
                Conflict::Long(cref) => {
                    self.bump_clause(cref);
                    for k in lits(&self.arena, cref as usize) {
                        let q = Lit(self.arena[k]);
                        if Some(q) == p {
                            continue; // the pivot: the literal this clause implied
                        }
                        self.analyze_mark(q, &mut counter);
                    }
                }
                Conflict::Bin(a, b) => {
                    for q in [a, b] {
                        if Some(q) == p {
                            continue;
                        }
                        self.analyze_mark(q, &mut counter);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                self.lits_buf[0] = !pl;
                break;
            }
            let r = self.reason[pl.var().index()];
            debug_assert_ne!(r, NO_REASON);
            ante = if r & BIN_TAG != 0 {
                Conflict::Bin(pl, Lit(r & !BIN_TAG))
            } else {
                debug_assert_eq!(self.arena[r as usize + 1], pl.0, "implied literal in slot 0");
                Conflict::Long(r)
            };
        }
        // Recursive minimization: a learnt literal whose implication-
        // graph antecedents all resolve into the clause (or level 0) is
        // redundant — the rest of the clause already subsumes it. The
        // `seen` marks for all learnt literals stay up during the walk,
        // which is what makes dropping several literals at once sound; a
        // dropped literal's mark is cleared at the end with the walk's
        // own marks, through `min_clear`.
        let abstract_levels = self.lits_buf[1..]
            .iter()
            .fold(0u64, |acc, l| acc | 1u64 << (self.level[l.var().index()] & 63));
        let mut n = 1;
        for i in 1..self.lits_buf.len() {
            let l = self.lits_buf[i];
            if self.reason[l.var().index()] == NO_REASON || !self.lit_redundant(l, abstract_levels)
            {
                self.lits_buf[n] = l;
                n += 1;
            } else {
                self.stats.minimized += 1;
                self.min_clear.push(l);
            }
        }
        self.lits_buf.truncate(n);
        for l in self.lits_buf[1..].iter().chain(&self.min_clear) {
            self.seen[l.var().index()] = false;
        }
        self.min_clear.clear();
        // Glue: distinct decision levels across the minimized clause,
        // each level stamped with this conflict's ordinal when first met.
        let stamp = self.stats.conflicts;
        let top = self.decision_level() as usize;
        if self.level_stamp.len() <= top {
            self.level_stamp.resize(top + 1, 0);
        }
        let mut glue = 0;
        for l in &self.lits_buf {
            let lev = self.level[l.var().index()] as usize;
            if self.level_stamp[lev] != stamp {
                self.level_stamp[lev] = stamp;
                glue += 1;
            }
        }
        // Backtrack to the second-highest level; move that literal into
        // watch position 1.
        let learnt = &mut self.lits_buf;
        let bt = if n == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..n {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (bt, glue)
    }

    fn analyze_mark(&mut self, q: Lit, counter: &mut usize) {
        let v = q.var().index();
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(q.var());
            if self.level[v] >= self.decision_level() {
                *counter += 1;
            } else {
                self.lits_buf.push(q);
            }
        }
    }

    /// The MiniSat `litRedundant` walk: true when `l`'s assignment is
    /// implied (through the implication graph) by literals already seen —
    /// i.e. by the rest of the learnt clause. Newly marked literals are
    /// pushed to `min_clear`; on failure the marks added by *this* walk
    /// are rolled back so an irredundant subtree isn't cached as seen.
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u64) -> bool {
        self.min_stack.clear();
        self.min_stack.push(l);
        let top = self.min_clear.len();
        while let Some(p) = self.min_stack.pop() {
            let r = self.reason[p.var().index()];
            debug_assert_ne!(r, NO_REASON);
            let ok = if r & BIN_TAG != 0 {
                self.min_check(Lit(r & !BIN_TAG), abstract_levels)
            } else {
                let mut all = true;
                // Slot 0 is the literal this clause implied — skip it.
                for k in lits(&self.arena, r as usize).skip(1) {
                    let q = Lit(self.arena[k]);
                    if !self.min_check(q, abstract_levels) {
                        all = false;
                        break;
                    }
                }
                all
            };
            if !ok {
                for i in top..self.min_clear.len() {
                    let v = self.min_clear[i].var().index();
                    self.seen[v] = false;
                }
                self.min_clear.truncate(top);
                return false;
            }
        }
        true
    }

    /// One antecedent literal of the redundancy walk: already-seen or
    /// level-0 literals resolve away; an implied literal inside the
    /// clause's level set recurses; anything else (a decision, or a
    /// level outside the clause) proves the candidate irredundant.
    fn min_check(&mut self, q: Lit, abstract_levels: u64) -> bool {
        let v = q.var().index();
        if self.seen[v] || self.level[v] == 0 {
            return true;
        }
        if self.reason[v] != NO_REASON && (1u64 << (self.level[v] & 63)) & abstract_levels != 0 {
            self.seen[v] = true;
            self.min_stack.push(q);
            self.min_clear.push(q);
            true
        } else {
            false
        }
    }

    fn attach(&mut self, c: &[Lit], learnt: bool, glue: u32) -> u32 {
        debug_assert!(c.len() >= 3);
        let cref = self.arena.len() as u32;
        assert!(cref < BIN_TAG, "clause arena past 2^31 words");
        self.watches[c[0].code()].push(Watch { cref, blocker: c[1] });
        self.watches[c[1].code()].push(Watch { cref, blocker: c[0] });
        self.arena.push((c.len() as u32) << 2 | u32::from(learnt));
        self.arena.extend(c.iter().map(|l| l.0));
        if learnt {
            self.arena.extend([glue, 0, 0]);
            let at = self.arena.len() - 2;
            write_activity(&mut self.arena, at, self.cla_inc);
            self.stats.learnt += 1;
        }
        self.n_clauses += 1;
        cref
    }

    /// Installs a binary clause `(a ∨ b)` as a pair of implications in
    /// the dedicated lists. Binary clauses are never evicted.
    fn attach_binary(&mut self, a: Lit, b: Lit) {
        self.bin_imps[(!a).code()].push(b);
        self.bin_imps[(!b).code()].push(a);
        self.n_clauses += 1;
    }

    /// Halves the learnt-clause database. Eviction order is (glue
    /// descending, activity ascending), a stable sort over the candidates
    /// in allocation order: a clause spanning few decision levels is
    /// structurally valuable regardless of how recently it fired, so
    /// glue ≤ 2 clauses are kept unconditionally (counted in
    /// `stats.glue_kept`), as are reason clauses. Binary clauses live in
    /// the implication lists and never reach this path.
    ///
    /// Survivors slide down the arena in allocation order; a locked
    /// clause's reason entry is forwarded to its new offset as it moves,
    /// and every watch list is rebuilt in clause order with the two
    /// watched literals as each other's blockers.
    fn reduce_db(&mut self) {
        // (glue, activity, cref) of every evictable learnt clause.
        let mut cand: Vec<(u32, f64, u32)> = Vec::new();
        let mut protected = 0u64;
        let mut c = 0;
        while c < self.arena.len() {
            let end = lits(&self.arena, c).end;
            if self.arena[c] & LEARNT != 0 && !self.is_locked(c) {
                let glue = self.arena[end];
                if glue <= 2 {
                    protected += 1;
                } else {
                    cand.push((glue, read_activity(&self.arena, end + 1), c as u32));
                }
            }
            c = next_clause(&self.arena, c);
        }
        self.stats.glue_kept += protected;
        self.next_reduce += self.next_reduce / 2;
        if cand.is_empty() {
            return;
        }
        cand.sort_by(|a, b| {
            b.0.cmp(&a.0).then(a.1.partial_cmp(&b.1).expect("activities are finite"))
        });
        for &(_, _, c) in &cand[..cand.len() / 2] {
            self.arena[c as usize] |= DROPPED;
        }
        for w in &mut self.watches {
            w.clear();
        }
        let (mut from, mut to) = (0, 0);
        while from < self.arena.len() {
            let next = next_clause(&self.arena, from);
            if self.arena[from] & DROPPED != 0 {
                self.stats.learnt -= 1;
                self.n_clauses -= 1;
            } else {
                let cref = to as u32;
                let (l0, l1) = (Lit(self.arena[from + 1]), Lit(self.arena[from + 2]));
                // Offsets only shrink, so a forwarded reason can never
                // equal the old offset of a later clause.
                if self.is_locked(from) {
                    self.reason[l0.var().index()] = cref;
                }
                self.watches[l0.code()].push(Watch { cref, blocker: l1 });
                self.watches[l1.code()].push(Watch { cref, blocker: l0 });
                self.arena.copy_within(from..next, to);
                to += next - from;
            }
            from = next;
        }
        self.arena.truncate(to);
    }

    /// Whether the clause at `cref` is the reason of an assignment (its
    /// implied literal sits in slot 0).
    fn is_locked(&self, cref: usize) -> bool {
        self.reason[Lit(self.arena[cref + 1]).var().index()] == cref as u32
    }

    // -------------------------------------------------------- activities

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = cref as usize;
        if self.arena[c] & LEARNT == 0 {
            return;
        }
        let at = lits(&self.arena, c).end + 1;
        let a = read_activity(&self.arena, at) + self.cla_inc;
        write_activity(&mut self.arena, at, a);
        if a > 1e20 {
            let mut c = 0;
            while c < self.arena.len() {
                if self.arena[c] & LEARNT != 0 {
                    let at = lits(&self.arena, c).end + 1;
                    let a = read_activity(&self.arena, at) * 1e-20;
                    write_activity(&mut self.arena, at, a);
                }
                c = next_clause(&self.arena, c);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.cla_inc /= CLAUSE_DECAY;
    }

    // -------------------------------------------------- decision heap

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos != usize::MAX {
            self.heap_up(pos);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].index()] <= self.activity[self.heap[parent].index()] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].index()] > self.activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].index()] > self.activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a].index()] = a;
        self.heap_pos[self.heap[b].index()] = b;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(&v) = self.heap.first() {
            let last = self.heap.len() - 1;
            self.heap_swap(0, last);
            self.heap.pop();
            self.heap_pos[v.index()] = usize::MAX;
            self.heap_down(0);
            if self.assign[v.index()] == UNDEF {
                return Some(v);
            }
        }
        None
    }
}

enum Search {
    Sat,
    Unsat,
    Budget,
    Cancelled,
    Restart,
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    let mut x = i;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.pos()]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value(a));
        assert!(!s.add_clause(&[a.neg()]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn models_satisfy_all_clauses() {
        // Random 3-SAT at a satisfiable-ish density; verify each model.
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..30 {
            let n = 20 + (round % 10);
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..(3 * n) {
                let c: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = vars[rng.gen_range(0..n)];
                        if rng.gen_bool(0.5) {
                            v.pos()
                        } else {
                            v.neg()
                        }
                    })
                    .collect();
                clauses.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve() == SolveOutcome::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|&l| s.lit_true(l)), "model violates {c:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_formulas() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let n = rng.gen_range(3..9usize);
            let n_clauses = rng.gen_range(2..24usize);
            let clauses: Vec<Vec<(usize, bool)>> = (0..n_clauses)
                .map(|_| {
                    (0..rng.gen_range(1..4usize))
                        .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let brute = (0..1u32 << n).any(|m| {
                clauses.iter().all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
            });
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for c in &clauses {
                let lits: Vec<Lit> = c
                    .iter()
                    .map(|&(v, pos)| if pos { vars[v].pos() } else { vars[v].neg() })
                    .collect();
                s.add_clause(&lits);
            }
            let got = s.solve();
            assert_eq!(got == SolveOutcome::Sat, brute, "clauses {clauses:?}");
        }
    }

    #[test]
    fn pigeonhole_is_unsat() {
        // 4 pigeons, 3 holes: classic resolution-hard-ish UNSAT instance.
        let (pigeons, holes) = (4usize, 3usize);
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in x.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (p1, row1) in x.iter().enumerate() {
                for row2 in x.iter().skip(p1 + 1) {
                    s.add_clause(&[row1[h].neg(), row2[h].neg()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause(&[a.pos(), b.pos()]);
        assert_eq!(s.solve_assuming(&[a.neg(), b.neg()]), SolveOutcome::Unsat);
        assert_eq!(s.solve_assuming(&[a.neg()]), SolveOutcome::Sat);
        assert!(s.value(b));
        // The same solver, unrestricted, is still satisfiable.
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn conflict_budget_reports_exhaustion() {
        // Large pigeonhole with a 1-conflict budget must give up.
        let (pigeons, holes) = (7usize, 6usize);
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in x.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (p1, row1) in x.iter().enumerate() {
                for row2 in x.iter().skip(p1 + 1) {
                    s.add_clause(&[row1[h].neg(), row2[h].neg()]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveOutcome::Budget);
        // Raising the budget finishes the proof.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    /// A pigeonhole instance (UNSAT, propagation-heavy) for the budget
    /// and cancellation tests.
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let mut x = vec![vec![Var(0); holes]; pigeons];
        for p in x.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for row in &x {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for (p1, row1) in x.iter().enumerate() {
                for row2 in x.iter().skip(p1 + 1) {
                    s.add_clause(&[row1[h].neg(), row2[h].neg()]);
                }
            }
        }
        s
    }

    #[test]
    fn step_budget_bounds_propagation_heavy_search() {
        let mut s = pigeonhole(8, 7);
        s.set_step_budget(Some(1));
        assert_eq!(s.solve(), SolveOutcome::Budget);
        // Lifting the step budget finishes the proof on the same solver.
        s.set_step_budget(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn expired_deadline_cancels_and_solver_stays_usable() {
        use sim_core::{Budget, Deadline};
        let mut s = pigeonhole(8, 7);
        s.set_ctrl(Budget::with_deadline(Deadline::at(std::time::Instant::now())));
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        s.set_ctrl(Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn cancelled_token_stops_the_search() {
        let ctrl = sim_core::Budget::unlimited();
        let mut s = pigeonhole(8, 7);
        s.set_ctrl(ctrl.clone());
        ctrl.cancel();
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert!(s.ctrl().is_exceeded());
        // Swapping in a fresh handle lets the same solver finish.
        s.set_ctrl(sim_core::Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn cancelled_solves_bump_the_obs_counter() {
        let o = obs::Obs::noop();
        let ctrl = sim_core::Budget::unlimited();
        ctrl.cancel();
        let mut s = pigeonhole(7, 6);
        s.set_obs(o.clone());
        s.set_ctrl(ctrl);
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert_eq!(o.counter("sat.cancelled").get(), 1);
    }

    #[test]
    fn injected_fault_cancels_at_the_sat_site() {
        use sim_core::faultpoint::{sites, FaultPlan};
        let ctrl = sim_core::Budget::unlimited()
            .with_faults(FaultPlan::new().cancel_at(sites::SAT_PROPAGATE, 0));
        let mut s = pigeonhole(8, 7);
        s.set_ctrl(ctrl.clone());
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert_eq!(ctrl.faults_fired(), vec![(sites::SAT_PROPAGATE.to_string(), 0)]);
    }

    #[test]
    fn binary_chain_propagates_and_counts() {
        // x0 pinned true; (¬x_i ∨ x_{i+1}) forces the whole chain true
        // through the binary implication lists.
        let n = 500usize;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 1 {
            s.add_clause(&[vars[i].neg(), vars[i + 1].pos()]);
        }
        s.add_clause(&[vars[0].pos()]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        for (i, v) in vars.iter().enumerate() {
            assert!(s.value(*v), "bit {i}");
        }
        assert!(s.stats().bin_props as usize >= n - 1, "stats: {:?}", s.stats());
    }

    /// Several disjoint binary implication chains: each decision floods
    /// a few hundred binary propagations in a single search iteration.
    fn binary_chains(chains: usize, len: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..chains {
            let vars: Vec<Var> = (0..len).map(|_| s.new_var()).collect();
            for i in 0..len - 1 {
                // (x_i ∨ ¬x_{i+1}): deciding x_i false (the default
                // phase) cascades the rest of the chain false.
                s.add_clause(&[vars[i].pos(), vars[i + 1].neg()]);
            }
        }
        s
    }

    #[test]
    fn ctrl_cadence_counts_binary_propagations() {
        // Regression for the check cadence: the instance solves in a
        // handful of search iterations, but each one floods hundreds of
        // binary implications. A fault armed at check ordinal 3 only
        // fires if the cadence is paced by propagation work — the old
        // per-iteration cadence would need 768+ iterations to get there
        // and would return Sat without ever hitting the site.
        use sim_core::faultpoint::{sites, FaultPlan};
        let ctrl = sim_core::Budget::unlimited()
            .with_faults(FaultPlan::new().cancel_at(sites::SAT_PROPAGATE, 3));
        let mut s = binary_chains(8, 400);
        s.set_ctrl(ctrl.clone());
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        assert_eq!(ctrl.faults_fired(), vec![(sites::SAT_PROPAGATE.to_string(), 3)]);
        // With a fresh control handle, the same solver finishes.
        s.set_ctrl(sim_core::Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn tight_deadline_cancels_a_binary_heavy_search() {
        use sim_core::{Budget, Deadline};
        let mut s = binary_chains(8, 2000);
        s.set_ctrl(Budget::with_deadline(Deadline::at(std::time::Instant::now())));
        assert_eq!(s.solve(), SolveOutcome::Cancelled);
        s.set_ctrl(Budget::unlimited());
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn minimization_shrinks_learnt_clauses() {
        let mut s = pigeonhole(8, 7);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().minimized > 0, "stats: {:?}", s.stats());
    }

    impl Solver {
        /// Moves the first learnt-database reduction from 4,000 learnt
        /// clauses down to `learnt`, so small formulas reach `reduce_db`.
        fn set_first_reduce(&mut self, learnt: usize) {
            self.next_reduce = learnt;
        }

        /// Database reductions run so far, read off the threshold's
        /// growth from `first` (each call raises it by half).
        fn reductions_since(&self, first: usize) -> usize {
            std::iter::successors(Some(first), |t| Some(t + t / 2))
                .take_while(|&t| t < self.next_reduce)
                .count()
        }

        /// Checks the arena after compaction: headers walk to its end,
        /// the learnt count matches, every long clause is watched exactly
        /// through its first two literals, and every long reason names a
        /// clause whose slot 0 holds the implied literal.
        fn check_arena(&self) {
            let mut watched = std::collections::HashMap::new();
            let (mut c, mut learnt) = (0, 0);
            while c < self.arena.len() {
                assert!(lits(&self.arena, c).len() >= 3, "short clause at {c}");
                assert_eq!(self.arena[c] & DROPPED, 0, "evicted clause left at {c}");
                learnt += u64::from(self.arena[c] & LEARNT);
                watched.insert(c as u32, 0);
                c = next_clause(&self.arena, c);
            }
            assert_eq!(c, self.arena.len(), "arena walk overran");
            assert_eq!(learnt, self.stats.learnt);
            for (code, ws) in self.watches.iter().enumerate() {
                for w in ws {
                    let n = watched.get_mut(&w.cref).expect("watch names a clause header");
                    *n += 1;
                    let c = w.cref as usize;
                    assert!(self.arena[c + 1..c + 3].contains(&(code as u32)), "stale watch");
                }
            }
            assert!(watched.values().all(|&n| n == 2), "each clause watched twice");
            for (v, &r) in self.reason.iter().enumerate() {
                if r & BIN_TAG == 0 {
                    assert_eq!(Lit(self.arena[r as usize + 1]).var().index(), v);
                }
            }
        }
    }

    /// A random formula over `n` variables with clauses of 3 to 5
    /// literals, so learnt and original clauses of several sizes share
    /// the arena.
    fn random_formula(rng: &mut StdRng, n: usize, m: usize) -> Vec<Vec<(usize, bool)>> {
        (0..m)
            .map(|_| {
                (0..rng.gen_range(3..6)).map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5))).collect()
            })
            .collect()
    }

    fn brute_force_sat(n: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        (0..1u32 << n)
            .any(|m| clauses.iter().all(|c| c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos)))
    }

    fn add_formula(s: &mut Solver, vars: &[Var], clauses: &[Vec<(usize, bool)>]) {
        for c in clauses {
            let lits: Vec<Lit> =
                c.iter().map(|&(v, pos)| if pos { vars[v].pos() } else { vars[v].neg() }).collect();
            s.add_clause(&lits);
        }
    }

    /// Solves and checks the verdict against brute force and a model
    /// against every clause, then the arena.
    fn solve_and_check(s: &mut Solver, vars: &[Var], clauses: &[Vec<(usize, bool)>]) {
        let got = s.solve();
        assert_eq!(got == SolveOutcome::Sat, brute_force_sat(vars.len(), clauses), "{clauses:?}");
        if got == SolveOutcome::Sat {
            for c in clauses {
                assert!(c.iter().any(|&(v, pos)| s.value(vars[v]) == pos), "model violates {c:?}");
            }
        }
        s.check_arena();
    }

    #[test]
    fn forced_reductions_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(0xdb);
        let mut reduced_twice = 0;
        for _ in 0..120 {
            let n = rng.gen_range(12..17usize);
            let mut clauses = random_formula(&mut rng, n, 8 * n);
            let mut s = Solver::new();
            s.set_first_reduce(2);
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            add_formula(&mut s, &vars, &clauses);
            solve_and_check(&mut s, &vars, &clauses);
            reduced_twice += usize::from(s.reductions_since(2) >= 2);
            // Incremental use after compaction: more clauses, solve again.
            let more = random_formula(&mut rng, n, n / 2);
            add_formula(&mut s, &vars, &more);
            clauses.extend(more);
            solve_and_check(&mut s, &vars, &clauses);
        }
        assert!(reduced_twice >= 30, "only {reduced_twice} formulas reduced twice");
    }

    #[test]
    fn a_reduction_evicts_half_the_candidates() {
        let mut rng = StdRng::seed_from_u64(0xe71c);
        let mut evicted = 0;
        for _ in 0..40 {
            let n = 16;
            let mut clauses = random_formula(&mut rng, n, 8 * n);
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            add_formula(&mut s, &vars, &clauses);
            solve_and_check(&mut s, &vars, &clauses);
            // Reduce by hand at level 0: unlocked learnt clauses with
            // glue > 2 are the candidates, and half of them go.
            let mut cand = 0;
            let mut c = 0;
            while c < s.arena.len() {
                if s.arena[c] & LEARNT != 0 && !s.is_locked(c) && s.arena[lits(&s.arena, c).end] > 2
                {
                    cand += 1;
                }
                c = next_clause(&s.arena, c);
            }
            let held = s.stats().learnt;
            s.reduce_db();
            assert_eq!(s.stats().learnt, held - cand / 2);
            evicted += cand / 2;
            s.check_arena();
            solve_and_check(&mut s, &vars, &clauses);
            let more = random_formula(&mut rng, n, n / 2);
            add_formula(&mut s, &vars, &more);
            clauses.extend(more);
            solve_and_check(&mut s, &vars, &clauses);
        }
        assert!(evicted > 0, "no reduction evicted anything");
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, … pinned x0 = 0 → alternating model.
        let n = 24usize;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 1 {
            let (a, b) = (vars[i], vars[i + 1]);
            s.add_clause(&[a.pos(), b.pos()]);
            s.add_clause(&[a.neg(), b.neg()]);
        }
        s.add_clause(&[vars[0].neg()]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(s.value(*v), i % 2 == 1, "bit {i}");
        }
    }
}
