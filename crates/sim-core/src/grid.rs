//! The work-stealing parallel (case × key) grid executor.
//!
//! TAO's security loops are embarrassingly parallel grids: corruptibility
//! sweeps run many wrong keys over a stimulus, differential verification
//! runs every trial key over every test case, oracle-guided attacks
//! enumerate candidate keys. [`GridExec`] shards those trials over worker
//! threads with **one per-worker context** (typically a bound tape
//! runner), stealing work from a shared atomic cursor, and writes each
//! trial's result into a slot indexed by trial — so the output is
//! bit-identical for any worker count and any steal order.
//!
//! Trials are ordered **key-major** (`trial = key_idx * n_cases +
//! case_idx`): consecutive steals by one worker tend to share a key, so
//! the runner's per-key binding (decrypted constants, selected variant
//! slices, cached dispatches) is mostly reused. [`GridExec::grid`]
//! steals all cases of one key at once and binds each key exactly once
//! globally; a sweep whose trials differ widely in cost steals one
//! trial at a time instead, so no worker is left holding the last long
//! chunk.
//!
//! One worker body serves every entry point, and the calling thread is
//! worker 0 of every fan-out: it spawns `workers − 1` threads, runs the
//! optional lead job of [`GridExec::run_cells_with_lead`] while they
//! steal, then steals too. [`GridExec::run_cells`] returns one
//! [`TrialCell`] per slot; [`GridExec::run`] is the same fan-out, one
//! trial per steal, that re-raises the first trial panic after every
//! slot has run; [`GridExec::grid`] is the (case × key) grid of a
//! [`Simulator`] on it. The telemetry and progress hooks sit inline in
//! that body: on a disabled handle each is one branch and reads no
//! clock.
//!
//! ## Robustness
//!
//! Each trial body runs under `catch_unwind`, so one dying trial becomes
//! a per-slot [`TrialCell::Panicked`] (surfaced as
//! [`SimError::WorkerPanic`] by the grid) while every other slot
//! completes bit-identically. A [`Budget`] attached with
//! [`GridExec::with_budget`] is checked before every steal: once it is
//! cancelled or past its deadline, workers drain at the next chunk
//! boundary, leaving unreached slots as [`TrialCell::Skipped`]
//! ([`SimError::Cancelled`]). Results stay slot-indexed and
//! worker-count-invariant even when trials die.

// The lint wall for this hot path: no `unwrap`/`expect` — every slot
// outcome is an explicit cell.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::contract::{SimError, SimOptions, SimStats, TestCase};
use crate::ctrl::Budget;
use crate::faultpoint;
use crate::traits::{BatchRunner, Simulator};
use hls_core::KeyBits;
use obs::{Obs, ProgressTracker};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The outcome of one grid trial under the panic-isolated, budgeted
/// executor: the value, a caught panic, or never-reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialCell<T> {
    /// The trial completed and produced `T` (which may itself be an
    /// application-level `Err`).
    Done(T),
    /// The trial body panicked; the panic was caught at the trial
    /// boundary and the rest of the sweep continued.
    Panicked {
        /// The stringified panic payload.
        payload: String,
    },
    /// The executor's [`Budget`] was exhausted before any worker reached
    /// this slot.
    Skipped,
}

impl<T> TrialCell<T> {
    /// The completed value, if any.
    pub fn as_done(&self) -> Option<&T> {
        match self {
            TrialCell::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// The host's core count, resolved once per process:
/// `available_parallelism` reads the cgroup quota files on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Stringifies a caught panic payload (`String` and `&str` payloads kept
/// verbatim, anything else labeled).
fn payload_string(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Evaluates one trial with panic isolation. The worker's context is
/// minted lazily (and re-minted after a panic, since an unwound trial
/// may have left the shared runner mid-run); minting itself is caught,
/// so a dying factory injures only the trials that needed it.
fn eval_cell<C, T, M, F>(
    ctx_slot: &mut Option<C>,
    make_ctx: &M,
    f: &F,
    budget: &Budget,
    i: usize,
) -> TrialCell<T>
where
    M: Fn() -> C,
    F: Fn(&mut C, usize) -> T,
{
    if ctx_slot.is_none() {
        match catch_unwind(AssertUnwindSafe(make_ctx)) {
            Ok(c) => *ctx_slot = Some(c),
            Err(p) => return TrialCell::Panicked { payload: payload_string(p) },
        }
    }
    let Some(ctx) = ctx_slot.as_mut() else {
        return TrialCell::Panicked { payload: "worker context unavailable".to_string() };
    };
    match catch_unwind(AssertUnwindSafe(|| {
        budget.fault_hit(faultpoint::sites::GRID_TRIAL, i as u64);
        f(ctx, i)
    })) {
        Ok(v) => TrialCell::Done(v),
        Err(p) => {
            *ctx_slot = None;
            TrialCell::Panicked { payload: payload_string(p) }
        }
    }
}

/// The parallel grid executor. `threads == 0` requests one worker per
/// available core; any value yields identical results.
///
/// Telemetry is off by default; [`GridExec::with_obs`] attaches an
/// [`obs::Obs`] handle, after which every fan-out records `grid.run` /
/// `grid.worker` spans (per-worker steal counts, busy vs. idle nanos),
/// the `grid.steals` / `grid.trials` counters, the `grid.trial_ns`
/// latency histogram, and counts `grid.panics` (caught trial panics) and
/// `grid.cancelled` (slots skipped by an exhausted budget). With the
/// handle off every hook is one branch and no clock is read.
///
/// Live progress is likewise off by default; [`GridExec::with_progress`]
/// attaches an [`obs::ProgressTracker`], after which every fan-out
/// announces its trial count up front (so `total` is deterministic at
/// any worker count) and ticks once per resolved slot.
///
/// No budget is attached by default; [`GridExec::with_budget`] attaches
/// one, which every fan-out checks before each steal and whose armed
/// fault plan reaches the [`faultpoint::sites::GRID_TRIAL`] site.
#[derive(Debug, Clone)]
pub struct GridExec {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    obs: Obs,
    progress: ProgressTracker,
    budget: Budget,
}

impl Default for GridExec {
    /// One worker per available core.
    fn default() -> Self {
        GridExec {
            threads: 0,
            obs: Obs::off(),
            progress: ProgressTracker::off(),
            budget: Budget::unlimited(),
        }
    }
}

impl GridExec {
    /// An executor with an explicit worker count.
    pub fn new(threads: usize) -> GridExec {
        GridExec { threads, ..GridExec::default() }
    }

    /// The strictly sequential executor (one worker, run inline on the
    /// calling thread — no spawn cost).
    pub fn sequential() -> GridExec {
        GridExec::new(1)
    }

    /// Attaches a telemetry handle; results are bit-identical with any
    /// handle (enforced by the no-op-equivalence tests).
    pub fn with_obs(mut self, obs: Obs) -> GridExec {
        self.obs = obs;
        self
    }

    /// The attached telemetry handle (disabled unless set).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attaches a live progress feed; results are bit-identical with
    /// any tracker.
    pub fn with_progress(mut self, progress: ProgressTracker) -> GridExec {
        self.progress = progress;
        self
    }

    /// The attached progress feed (disabled unless set).
    pub fn progress(&self) -> &ProgressTracker {
        &self.progress
    }

    /// Attaches a cooperative budget: once it is cancelled or past its
    /// deadline, workers drain at the next chunk boundary and unreached
    /// slots come back [`TrialCell::Skipped`]. Completed slots are
    /// bit-identical to an unbudgeted run.
    pub fn with_budget(mut self, budget: Budget) -> GridExec {
        self.budget = budget;
        self
    }

    /// The attached budget (unlimited unless set).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Resolves the worker count for `n` work items: the requested thread
    /// count (or the core count when 0), capped at `n`.
    pub fn workers_for(&self, n: usize) -> usize {
        let t = if self.threads == 0 { cores() } else { self.threads };
        t.min(n.max(1))
    }

    /// [`GridExec::run_cells`] with one trial per steal, unwrapped, for
    /// loops whose every trial must produce a value: evaluates
    /// `f(ctx, i)` for `i in 0..n` and returns the values in index order.
    ///
    /// # Panics
    ///
    /// A trial panic does not stop the sweep: every slot runs first, and
    /// then the first panicking slot's payload is re-raised as its string
    /// form (a `&str` comes back as a `String`, a non-string payload as
    /// the text "non-string panic payload"), at any worker count. A slot
    /// skipped under an attached budget also panics: a sweep that may
    /// drain early belongs on [`GridExec::run_cells`].
    pub fn run<C, T, M, F>(&self, n: usize, make_ctx: M, f: F) -> Vec<T>
    where
        T: Send,
        M: Fn() -> C + Sync,
        F: Fn(&mut C, usize) -> T + Sync,
    {
        self.run_cells(n, 1, make_ctx, f)
            .into_iter()
            .enumerate()
            .map(|(i, cell)| match cell {
                TrialCell::Done(v) => v,
                TrialCell::Panicked { payload } => resume_unwind(Box::new(payload)),
                TrialCell::Skipped => {
                    panic!("GridExec::run: trial {i} skipped by the budget; use run_cells to drain")
                }
            })
            .collect()
    }

    /// The panic-isolated, budget-aware fan-out: evaluates `f(ctx, i)`
    /// for `i in 0..n` and returns one [`TrialCell`] per slot —
    /// worker-count-invariant even when trials die.
    ///
    /// - `make_ctx` runs at most once per worker **on that worker's
    ///   thread** (again after a trial panic), so the context (a tape
    ///   runner, a scratch key buffer) never crosses threads and needs
    ///   neither `Send` nor `Sync`. The calling thread is worker 0; with
    ///   one worker no thread is spawned.
    /// - The shared cursor advances `chunk` trials per steal, and a
    ///   worker evaluates the whole chunk before stealing again. For
    ///   (case × key) grids with key-major trial order, `chunk = n_cases`
    ///   means **all cases of one key land on one worker** — the per-key
    ///   runner binding happens exactly once globally, and
    ///   sub-millisecond trials stop hammering the cursor. Trials of
    ///   widely different cost balance better at `chunk = 1`.
    /// - A panicking trial yields [`TrialCell::Panicked`] in its own
    ///   slot; the worker re-mints its context and keeps going, so the
    ///   rest of the chunk (and sweep) still completes.
    /// - Workers check the attached budget before every steal and drain
    ///   when it is cancelled or past its deadline; unreached slots come
    ///   back [`TrialCell::Skipped`]. With one worker the completed set
    ///   is a strict prefix (chunk-granular) of the trial order.
    /// - The [`faultpoint::sites::GRID_TRIAL`] site fires inside the
    ///   catch scope with the trial index as its coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero while there is work to do. Trial
    /// panics never propagate.
    pub fn run_cells<C, T, M, F>(
        &self,
        n: usize,
        chunk: usize,
        make_ctx: M,
        f: F,
    ) -> Vec<TrialCell<T>>
    where
        T: Send,
        M: Fn() -> C + Sync,
        F: Fn(&mut C, usize) -> T + Sync,
    {
        self.run_cells_with_lead(n, chunk, || (), make_ctx, f).1
    }

    /// [`GridExec::run_cells`] with a lead job: the calling thread runs
    /// `lead` before it starts stealing, while the other workers already
    /// steal trials, and its value comes back with the cells. The lead
    /// is not a trial: it has no slot, no [`TrialCell`] and no
    /// [`faultpoint::sites::GRID_TRIAL`] coordinate, it is not timed as
    /// worker busy time, and its allocations stay in the calling
    /// thread's heap. With one worker it simply runs first.
    ///
    /// # Panics
    ///
    /// As [`GridExec::run_cells`]; a panic in `lead` propagates to the
    /// caller once the other workers have drained.
    pub fn run_cells_with_lead<L, C, T, G, M, F>(
        &self,
        n: usize,
        chunk: usize,
        lead: G,
        make_ctx: M,
        f: F,
    ) -> (L, Vec<TrialCell<T>>)
    where
        T: Send,
        G: FnOnce() -> L,
        M: Fn() -> C + Sync,
        F: Fn(&mut C, usize) -> T + Sync,
    {
        if n == 0 {
            return (lead(), Vec::new());
        }
        assert!(chunk > 0, "chunk size must be positive");
        let n_chunks = n.div_ceil(chunk);
        let workers = self.workers_for(n_chunks);
        let (obs, progress, budget) = (&self.obs, &self.progress, &self.budget);
        progress.add_total(n as u64);
        let mut run_span = obs.span("grid.run");
        run_span.arg("trials", n as u64);
        run_span.arg("chunk", chunk as u64);
        run_span.arg("workers", workers as u64);
        let steals = obs.counter("grid.steals");
        let trials = obs.counter("grid.trials");
        let trial_ns = obs.histogram("grid.trial_ns");
        obs.gauge("grid.workers").fetch_max(workers as u64);
        obs.histogram("grid.chunk_trials").record(chunk.min(n) as u64);

        // Workers buffer (index, cell) pairs locally and hand them back
        // when they exit, so micro-trials (attack enumerations steal
        // millions) never serialize on a shared slot lock.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut wspan = obs.span("grid.worker");
            let start = obs.now_ns();
            let mut ctx: Option<C> = None;
            let mut local: Vec<(usize, TrialCell<T>)> = Vec::new();
            let (mut n_steals, mut busy) = (0u64, 0u64);
            while !budget.is_exceeded() {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                n_steals += 1;
                for i in c * chunk..((c + 1) * chunk).min(n) {
                    let t0 = obs.now_ns();
                    local.push((i, eval_cell(&mut ctx, &make_ctx, &f, budget, i)));
                    let dt = obs.now_ns().saturating_sub(t0);
                    busy += dt;
                    trial_ns.record(dt);
                    progress.tick();
                }
            }
            steals.add(n_steals);
            trials.add(local.len() as u64);
            wspan.arg("steals", n_steals);
            wspan.arg("trials", local.len() as u64);
            wspan.arg("busy_ns", busy);
            wspan.arg("idle_ns", obs.now_ns().saturating_sub(start).saturating_sub(busy));
            local
        };
        let (led, locals) = std::thread::scope(|scope| {
            let others: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let led = lead();
            let mut locals = vec![worker()];
            // Trial panics are caught inside the worker, so a failed join
            // is a bug in the executor itself: re-raise its own payload.
            locals
                .extend(others.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
            (led, locals)
        });

        let mut out: Vec<TrialCell<T>> = Vec::with_capacity(n);
        out.resize_with(n, || TrialCell::Skipped);
        let (mut n_done, mut n_panics) = (0usize, 0usize);
        for (i, cell) in locals.into_iter().flatten() {
            n_done += 1;
            if matches!(cell, TrialCell::Panicked { .. }) {
                n_panics += 1;
            }
            out[i] = cell;
        }
        let n_skipped = n - n_done;
        if n_panics > 0 {
            obs.counter("grid.panics").add(n_panics as u64);
        }
        if n_skipped > 0 {
            obs.counter("grid.cancelled").add(n_skipped as u64);
            // Skipped slots are resolved (they will never run): count
            // them so a cancelled sweep's feed still reaches done ==
            // total instead of stalling short.
            progress.add_done(n_skipped as u64);
        }
        run_span.arg("panics", n_panics as u64);
        run_span.arg("skipped", n_skipped as u64);
        (led, out)
    }

    /// Runs the full (case × key) grid on `sim`, one minted runner per
    /// worker, and returns `grid[k][c]` for key `k` and case `c` — the
    /// same contents as a plain nested loop over one runner, for every
    /// worker count.
    ///
    /// Stealing is **key-chunked**: one steal takes all cases of one key,
    /// so each key is bound exactly once globally and tiny trials don't
    /// contend on the cursor.
    ///
    /// Every slot comes back: a trial that panics reports
    /// [`SimError::WorkerPanic`] in its own slot, and a trial the
    /// attached budget never reached reports [`SimError::Cancelled`].
    pub fn grid<S: Simulator>(
        &self,
        sim: &S,
        cases: &[TestCase],
        keys: &[KeyBits],
        opts: &SimOptions,
    ) -> Vec<Vec<Result<SimStats, SimError>>> {
        let n_cases = cases.len();
        if n_cases == 0 || keys.is_empty() {
            return keys.iter().map(|_| Vec::new()).collect();
        }
        let flat = self.run_cells(
            keys.len() * n_cases,
            n_cases,
            || sim.new_runner(),
            |runner, i| runner.run_case(&cases[i % n_cases], &keys[i / n_cases], opts),
        );
        let mut rows = Vec::with_capacity(keys.len());
        let mut it = flat.into_iter().map(|cell| match cell {
            TrialCell::Done(r) => r,
            TrialCell::Panicked { payload } => Err(SimError::WorkerPanic { payload }),
            TrialCell::Skipped => Err(SimError::Cancelled),
        });
        for _ in keys {
            rows.push(it.by_ref().take(n_cases).collect());
        }
        rows
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::contract::OutputImage;
    use crate::faultpoint::{sites, FaultPlan};
    use std::sync::atomic::AtomicUsize;

    /// Toy backend: `ret = args[0] * 10 + key.bit(0)`, `cycles = args[0]`
    /// (so tight budgets reproduce `CycleLimit`), wrong arity errors.
    struct Toy {
        runners_minted: AtomicUsize,
    }
    struct ToyRunner;

    impl Simulator for Toy {
        type Runner<'a> = ToyRunner;
        fn new_runner(&self) -> ToyRunner {
            self.runners_minted.fetch_add(1, Ordering::Relaxed);
            ToyRunner
        }
    }

    impl BatchRunner for ToyRunner {
        fn run_case(
            &mut self,
            case: &TestCase,
            key: &KeyBits,
            opts: &SimOptions,
        ) -> Result<SimStats, SimError> {
            if case.args.len() != 1 {
                return Err(SimError::ArityMismatch { expected: 1, got: case.args.len() });
            }
            let cycles = case.args[0].max(1);
            if cycles > opts.max_cycles {
                return Err(SimError::CycleLimit);
            }
            Ok(SimStats {
                ret: Some(case.args[0] * 10 + key.bit(0) as u64),
                cycles,
                timed_out: false,
            })
        }

        fn outputs(
            &mut self,
            case: &TestCase,
            key: &KeyBits,
            opts: &SimOptions,
        ) -> Result<(OutputImage, SimStats), SimError> {
            let stats = self.run_case(case, key, opts)?;
            let ret = stats.ret.map(|v| (v, hls_ir::Type::int(32, false)));
            Ok((OutputImage { ret, mems: Vec::new() }, stats))
        }
    }

    fn toy() -> Toy {
        Toy { runners_minted: AtomicUsize::new(0) }
    }

    #[test]
    fn run_returns_results_in_index_order() {
        for threads in [1, 2, 7] {
            let out = GridExec::new(threads).run(20, || (), |_, i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn run_handles_empty_and_single_item() {
        assert!(GridExec::default().run(0, || (), |_, i| i).is_empty());
        assert_eq!(GridExec::new(8).run(1, || (), |_, i| i + 1), vec![1]);
    }

    #[test]
    fn one_context_per_worker() {
        let sim = toy();
        let exec = GridExec::new(3);
        let cases = [TestCase::args(&[1])];
        let keys: Vec<KeyBits> = (0..10).map(|_| KeyBits::zero(4)).collect();
        exec.grid(&sim, &cases, &keys, &SimOptions::default());
        let minted = sim.runners_minted.load(Ordering::Relaxed);
        assert!(minted <= 3, "minted {minted} runners for 3 workers");
        assert!(minted >= 1);
    }

    #[test]
    fn grid_shape_and_values_match_for_all_worker_counts() {
        let sim = toy();
        let cases = [TestCase::args(&[2]), TestCase::args(&[5]), TestCase::args(&[3, 4])];
        let keys = [KeyBits::zero(1), KeyBits::from_fn(1, || 1)];
        let opts = SimOptions { max_cycles: 4, snapshot_on_timeout: false };
        let seq = GridExec::sequential().grid(&sim, &cases, &keys, &opts);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].len(), 3);
        // Values: case 0 ok, case 1 exceeds the 4-cycle budget, case 2 is
        // an interface error; key 1 adds its low bit.
        assert_eq!(seq[0][0].as_ref().unwrap().ret, Some(20));
        assert_eq!(seq[1][0].as_ref().unwrap().ret, Some(21));
        assert_eq!(seq[0][1], Err(SimError::CycleLimit));
        assert!(matches!(seq[0][2], Err(SimError::ArityMismatch { .. })));
        for threads in [0, 2, 5] {
            let par = GridExec::new(threads).grid(&sim, &cases, &keys, &opts);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn empty_grids_keep_their_shape() {
        let sim = toy();
        let opts = SimOptions::default();
        assert!(GridExec::default().grid(&sim, &[], &[KeyBits::zero(1)], &opts)[0].is_empty());
        assert!(GridExec::default().grid(&sim, &[TestCase::args(&[1])], &[], &opts).is_empty());
    }

    #[test]
    fn chunked_results_match_single_trial_stealing() {
        for threads in [1, 2, 5] {
            let single: Vec<TrialCell<usize>> = GridExec::new(threads)
                .run(20, || (), |_, i| 3 * i + 1)
                .into_iter()
                .map(TrialCell::Done)
                .collect();
            for chunk in [1, 3, 4, 20, 100] {
                let chunked = GridExec::new(threads).run_cells(20, chunk, || (), |_, i| 3 * i + 1);
                assert_eq!(single, chunked, "threads={threads} chunk={chunk}");
            }
        }
        assert!(GridExec::new(4).run_cells(0, 7, || (), |_, i| i).is_empty());
    }

    #[test]
    fn chunked_grid_binds_each_key_on_one_worker() {
        // With chunk = n_cases, all cases of a key run on one worker: the
        // worker count never exceeds the key count even with more threads.
        let sim = toy();
        let cases = [TestCase::args(&[1]), TestCase::args(&[2]), TestCase::args(&[3])];
        let keys = [KeyBits::zero(1), KeyBits::from_fn(1, || 1)];
        let exec = GridExec::new(6);
        let par = exec.grid(&sim, &cases, &keys, &SimOptions::default());
        let minted = sim.runners_minted.load(Ordering::Relaxed);
        assert!(minted <= keys.len(), "minted {minted} runners for {} key chunks", keys.len());
        let seq = GridExec::sequential().grid(&sim, &cases, &keys, &SimOptions::default());
        assert_eq!(par, seq);
    }

    #[test]
    fn instrumented_runs_are_bit_identical_and_count_everything() {
        // No-op-sink equivalence: the instrumented executor returns the
        // same slot-ordered results, and concurrent worker increments on
        // the shared counters land exactly (trials from 4 workers sum to
        // the grid size).
        let sim = toy();
        let cases: Vec<TestCase> = (1..=5).map(|x| TestCase::args(&[x])).collect();
        let keys: Vec<KeyBits> = (0..8).map(|i| KeyBits::from_fn(1, || i & 1)).collect();
        let opts = SimOptions::default();
        let plain = GridExec::new(4).grid(&sim, &cases, &keys, &opts);
        let o = Obs::noop();
        let exec = GridExec::new(4).with_obs(o.clone());
        assert!(exec.obs().enabled());
        let seen = exec.grid(&sim, &cases, &keys, &opts);
        assert_eq!(seen, plain);
        assert_eq!(o.counter("grid.trials").get(), (cases.len() * keys.len()) as u64);
        assert_eq!(o.counter("grid.steals").get(), keys.len() as u64);
        assert_eq!(o.histogram("grid.trial_ns").count(), (cases.len() * keys.len()) as u64);
        assert_eq!(o.counter("grid.panics").get(), 0);
        assert_eq!(o.counter("grid.cancelled").get(), 0);
        // The sequential instrumented path counts identically.
        let o1 = Obs::noop();
        let seq = GridExec::sequential().with_obs(o1.clone()).grid(&sim, &cases, &keys, &opts);
        assert_eq!(seq, plain);
        assert_eq!(o1.counter("grid.trials").get(), (cases.len() * keys.len()) as u64);
    }

    #[test]
    fn progress_totals_are_deterministic_at_any_worker_count() {
        // Progress-on/obs-off (every obs call inert) must stay
        // bit-identical, with the same done/total at 1, 2 or 5 workers.
        let sim = toy();
        let cases: Vec<TestCase> = (1..=5).map(|x| TestCase::args(&[x])).collect();
        let keys: Vec<KeyBits> = (0..8).map(|i| KeyBits::from_fn(1, || i & 1)).collect();
        let opts = SimOptions::default();
        let plain = GridExec::new(4).grid(&sim, &cases, &keys, &opts);
        let n = (cases.len() * keys.len()) as u64;
        for threads in [1, 2, 5] {
            let buf = std::sync::Arc::new(obs::ProgressBuffer::new());
            let p = ProgressTracker::new(std::sync::Arc::clone(&buf));
            let exec = GridExec::new(threads).with_progress(p.clone());
            assert!(!exec.obs().enabled());
            assert!(exec.progress().enabled());
            let seen = exec.grid(&sim, &cases, &keys, &opts);
            assert_eq!(seen, plain, "progress tracking must not change results");
            let snap = match p.snapshot() {
                Some(s) => s,
                None => unreachable!("live tracker snapshots"),
            };
            assert_eq!((snap.done, snap.total), (n, n), "threads={threads}");
            let last = match buf.last() {
                Some(s) => s,
                None => unreachable!("fan-out published"),
            };
            assert_eq!(last.total, n);
        }
    }

    #[test]
    fn cancelled_sweeps_still_drive_progress_to_total() {
        let budget = Budget::unlimited();
        budget.cancel();
        let p = ProgressTracker::new(obs::ProgressBuffer::new());
        let exec = GridExec::new(2).with_progress(p.clone()).with_budget(budget);
        let cells = exec.run_cells(6, 1, || (), |_, i| i);
        assert!(cells.iter().all(|c| matches!(c, TrialCell::Skipped)));
        let snap = match p.snapshot() {
            Some(s) => s,
            None => unreachable!("live tracker snapshots"),
        };
        assert_eq!((snap.done, snap.total), (6, 6), "skipped slots are resolved");
    }

    #[test]
    fn workers_capped_by_items_and_floor_one() {
        assert_eq!(GridExec::new(8).workers_for(3), 3);
        assert_eq!(GridExec::new(2).workers_for(100), 2);
        assert!(GridExec::default().workers_for(100) >= 1);
        assert_eq!(GridExec::new(4).workers_for(0), 1);
    }

    #[test]
    fn a_worker_out_of_work_waits_as_idle_until_the_fan_out_ends() {
        // Trial 0 stalls 50 ms and trial 1 returns at once, so whichever
        // worker takes trial 1 then waits about 50 ms for the other.
        let sink = std::sync::Arc::new(obs::ChromeTraceSink::new());
        let stall =
            FaultPlan::new().stall_at(sites::GRID_TRIAL, 0, std::time::Duration::from_millis(50));
        let exec = GridExec::new(2)
            .with_obs(Obs::new(sink.clone()))
            .with_budget(Budget::unlimited().with_faults(stall));
        let cells = exec.run_cells(2, 1, || (), |_, i| i);
        assert!(cells.iter().all(|c| c.as_done().is_some()));
        let trace = obs::analyze::parse_trace(&sink.to_json()).expect("own trace parses");
        let ws = obs::analyze::worker_stats(&trace);
        assert_eq!(ws.len(), 2, "both workers recorded a span");
        let busy: u64 = ws.iter().map(|w| w.busy_ns).sum();
        let idle: u64 = ws.iter().map(|w| w.idle_ns).sum();
        let util = busy as f64 * 100.0 / (busy + idle) as f64;
        assert!(util <= 60.0, "the fan-out read {util:.1}% utilized");
    }

    #[test]
    fn the_caller_is_worker_zero_and_leads_before_it_steals() {
        let caller = std::thread::current().id();
        assert_eq!(GridExec::new(3).run_cells_with_lead(0, 1, || 7, || (), |_, i| i), (7, vec![]));
        for threads in [1, 2, 5] {
            let led = std::sync::atomic::AtomicBool::new(false);
            let (lead_thread, cells) = GridExec::new(threads).run_cells_with_lead(
                40,
                1,
                || {
                    led.store(true, Ordering::Relaxed);
                    std::thread::current().id()
                },
                || std::thread::current().id(),
                |owner, i| {
                    assert_eq!(
                        *owner,
                        std::thread::current().id(),
                        "a context stays on its thread"
                    );
                    assert!(
                        *owner != caller || led.load(Ordering::Relaxed),
                        "stole before leading"
                    );
                    (i, *owner)
                },
            );
            assert_eq!(lead_thread, caller, "threads={threads}");
            let done: Vec<_> = cells.iter().map(|c| *c.as_done().unwrap()).collect();
            assert!(done.iter().enumerate().all(|(i, d)| d.0 == i), "threads={threads}");
            let spawned: std::collections::HashSet<_> =
                done.iter().map(|d| d.1).filter(|&t| t != caller).collect();
            assert!(spawned.len() < threads, "threads={threads}: {} spawned", spawned.len());
        }
    }

    #[test]
    fn a_panicking_trial_injures_only_its_own_slot() {
        crate::faultpoint::install_quiet_hook();
        for threads in [1, 2, 5] {
            let cells = GridExec::new(threads).run_cells(
                10,
                1,
                || (),
                |_, i| {
                    assert!(i != 3 && i != 7, "trial {i} dies");
                    i * 2
                },
            );
            assert_eq!(cells.len(), 10);
            for (i, cell) in cells.iter().enumerate() {
                if i == 3 || i == 7 {
                    assert!(
                        matches!(cell, TrialCell::Panicked { payload } if payload.contains("dies")),
                        "threads={threads} slot {i}: {cell:?}"
                    );
                } else {
                    assert_eq!(cell, &TrialCell::Done(i * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn injected_grid_panic_lands_at_its_coordinate_for_every_worker_count() {
        crate::faultpoint::install_quiet_hook();
        let plan = FaultPlan::new().panic_at(sites::GRID_TRIAL, 4);
        for threads in [1, 2, 5] {
            let budget = Budget::unlimited().with_faults(plan.clone());
            let exec = GridExec::new(threads).with_budget(budget.clone());
            let cells = exec.run_cells(8, 1, || (), |_, i| i + 100);
            for (i, cell) in cells.iter().enumerate() {
                if i == 4 {
                    assert!(matches!(cell, TrialCell::Panicked { .. }), "threads={threads}");
                } else {
                    assert_eq!(cell, &TrialCell::Done(i + 100), "threads={threads}");
                }
            }
            assert_eq!(budget.faults_fired(), vec![(sites::GRID_TRIAL.to_string(), 4)]);
        }
    }

    #[test]
    fn cancellation_drains_to_a_prefix_on_one_worker() {
        let budget =
            Budget::unlimited().with_faults(FaultPlan::new().cancel_at(sites::GRID_TRIAL, 5));
        let cells =
            GridExec::sequential().with_budget(budget.clone()).run_cells(12, 2, || (), |_, i| i);
        assert!(budget.is_exceeded());
        // Chunk-granular drain: the chunk containing trial 5 completes,
        // everything after is skipped — a strict prefix.
        let done: Vec<usize> = cells.iter().filter_map(|c| c.as_done().copied()).collect();
        assert_eq!(done, (0..6).collect::<Vec<_>>());
        assert!(cells[6..].iter().all(|c| matches!(c, TrialCell::Skipped)));
    }

    #[test]
    fn cancelled_sweeps_complete_only_budgeted_slots_and_match_fault_free() {
        let sim = toy();
        let cases = [TestCase::args(&[1]), TestCase::args(&[2])];
        let keys: Vec<KeyBits> = (0..6).map(|i| KeyBits::from_fn(1, || i & 1)).collect();
        let opts = SimOptions::default();
        let reference = GridExec::sequential().grid(&sim, &cases, &keys, &opts);
        for threads in [1, 2, 5] {
            let budget =
                Budget::unlimited().with_faults(FaultPlan::new().cancel_at(sites::GRID_TRIAL, 4));
            let rows = GridExec::new(threads).with_budget(budget).grid(&sim, &cases, &keys, &opts);
            assert_eq!(rows.len(), keys.len());
            let mut completed = 0;
            for (k, row) in rows.iter().enumerate() {
                for (c, cell) in row.iter().enumerate() {
                    match cell {
                        Err(SimError::Cancelled) => {}
                        other => {
                            assert_eq!(other, &reference[k][c], "threads={threads}");
                            completed += 1;
                        }
                    }
                }
            }
            // The cancelling trial's own chunk always completes.
            assert!(completed >= 2, "threads={threads}: {completed}");
        }
    }

    #[test]
    fn pre_exhausted_budget_skips_everything() {
        let sim = toy();
        let budget = Budget::unlimited();
        budget.cancel();
        let rows = GridExec::new(3).with_budget(budget).grid(
            &sim,
            &[TestCase::args(&[1])],
            &[KeyBits::zero(1), KeyBits::zero(1)],
            &SimOptions::default(),
        );
        assert_eq!(rows, vec![vec![Err(SimError::Cancelled)], vec![Err(SimError::Cancelled)]]);
    }

    #[test]
    fn instrumented_cells_count_panics_and_skips() {
        crate::faultpoint::install_quiet_hook();
        let o = Obs::noop();
        let budget = Budget::unlimited().with_faults(
            FaultPlan::new().panic_at(sites::GRID_TRIAL, 1).cancel_at(sites::GRID_TRIAL, 2),
        );
        let exec = GridExec::sequential().with_obs(o.clone()).with_budget(budget);
        let cells = exec.run_cells(6, 1, || (), |_, i| i);
        assert_eq!(cells[0], TrialCell::Done(0));
        assert!(matches!(cells[1], TrialCell::Panicked { .. }));
        assert_eq!(cells[2], TrialCell::Done(2));
        assert!(cells[3..].iter().all(|c| matches!(c, TrialCell::Skipped)));
        assert_eq!(o.counter("grid.panics").get(), 1);
        assert_eq!(o.counter("grid.cancelled").get(), 3);
    }

    #[test]
    fn a_dying_context_factory_injures_only_trials_that_needed_it() {
        crate::faultpoint::install_quiet_hook();
        fn dying_factory() {
            panic!("factory dies")
        }
        let cells = GridExec::sequential().run_cells(3, 1, dying_factory, |_, i| i);
        assert!(cells
            .iter()
            .all(|c| matches!(c, TrialCell::Panicked { payload } if payload.contains("factory"))));
    }

    #[test]
    fn infallible_paths_still_propagate_trial_panics() {
        crate::faultpoint::install_quiet_hook();
        for threads in [1, 2, 5] {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                GridExec::new(threads).run(
                    8,
                    || (),
                    |_, i| {
                        assert!(i != 5, "trial 5 dies");
                        i
                    },
                )
            }));
            let Err(payload) = caught else {
                panic!("run() must re-raise a trial panic once every slot has run")
            };
            assert_eq!(payload_string(payload), "trial 5 dies", "threads={threads}");
        }
    }

    #[test]
    fn a_budget_skip_under_run_panics_and_names_run_cells() {
        let budget = Budget::unlimited();
        budget.cancel();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            GridExec::new(2).with_budget(budget).run(4, || (), |_, i| i)
        }));
        let Err(payload) = caught else { panic!("a skipped slot has no value to return") };
        assert!(payload_string(payload).contains("run_cells"));
    }
}
