//! Portfolio SAT attack: diversified solver configurations racing on a
//! [`sim_core::GridExec`] grid, first finisher wins each round.
//!
//! Every racer owns a complete [`sat_attack`](crate::sat_attack) engine
//! — its own CNF, miter, and accumulated constraints — differing only
//! in [`SolverConfig`] (VSIDS decay, restart scaling, phase
//! initialization, seed). Each DIP-loop decision runs as a *round*: all
//! racers solve the same question concurrently under a round-scoped
//! child [`Budget`](sim_core::Budget); the first to finish cancels the round, and the
//! lowest-indexed finisher's answer drives the loop (a deterministic
//! tie-break, so the winner report is reproducible modulo racing).
//! The coordinator queries the oracle once per DIP and broadcasts the
//! constraint (or the depth growth) to every racer, keeping the fleet
//! in lockstep.
//!
//! ```text
//!             ┌────────── round: one DIP-loop decision ──────────┐
//!             │ racer 0 (default cfg)      ──┐                   │
//!  coordinator│ racer 1 (fast decay)       ──┼─► first finisher  │
//!  ───────────┤ racer 2 (phase-true)       ──┤   cancels round,  │
//!   oracle,   │ racer 3 (seeded phases)    ──┘   answer wins     │
//!   broadcast └──────────────────────────────────────────────────┘
//! ```

use crate::attack::{
    AttackEngine, AttackQuery, ExhaustCause, IoConstraint, OracleResponse, SatAttackOptions,
    SatAttackOutcome, SatAttackStatus, Step,
};
use sat::SolverConfig;
use sim_core::ctrl::CancelKind;
use sim_core::faultpoint;
use sim_core::GridExec;
use std::sync::Mutex;
use std::time::Instant;
use vlog::VlogSim;

/// Portfolio shape: how many racers and how many grid workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioOptions {
    /// Diversified solver configurations racing per round (≥ 1; see
    /// [`diversified_configs`]).
    pub racers: usize,
    /// Grid worker threads (`None` = one per racer).
    pub threads: Option<usize>,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        PortfolioOptions { racers: 4, threads: None }
    }
}

/// One racer's contribution over the whole attack.
#[derive(Debug, Clone)]
pub struct RacerReport {
    /// The racer's solver diversification.
    pub config: SolverConfig,
    /// Rounds this racer's answer drove the loop.
    pub wins: u64,
    /// The racer's cumulative solver conflicts.
    pub conflicts: u64,
    /// The racer's cumulative solver propagations.
    pub propagations: u64,
}

/// The portfolio attack's result: the winner path's outcome plus the
/// per-racer race report.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The attack outcome along the winning path (counters are the
    /// terminal-round winner's, not a fleet sum).
    pub outcome: SatAttackOutcome,
    /// Racer index whose answer ended the attack.
    pub winner: usize,
    /// DIP-loop rounds raced.
    pub rounds: u64,
    /// One report per racer, in racer-index order.
    pub racers: Vec<RacerReport>,
}

/// `n` deterministic solver configurations spanning the portfolio's
/// diversification axes. Index 0 is always the default configuration,
/// so a one-racer portfolio degenerates to the plain attack.
pub fn diversified_configs(n: usize) -> Vec<SolverConfig> {
    (0..n)
        .map(|i| {
            let mut c = SolverConfig::default();
            match i % 4 {
                0 => {}
                1 => {
                    // Aggressive: fast decay forgets stale activity,
                    // short Luby unit restarts often.
                    c.var_decay = 0.85;
                    c.restart_base = 64;
                }
                2 => {
                    // Conservative: slow decay, long runs between
                    // restarts, positive initial phases.
                    c.var_decay = 0.99;
                    c.restart_base = 512;
                    c.phase_init = true;
                }
                _ => {
                    // Randomized: seeded phases + activity jitter.
                    c.clause_decay = 0.99;
                }
            }
            if i >= 4 || i % 4 == 3 {
                // Distinct deterministic seed per racer (splitmix-style
                // spread; never zero, which means "unseeded").
                c.seed = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            }
            c
        })
        .collect()
}

/// Runs the DIP loop as a portfolio of racing solver configurations.
///
/// Semantics match [`sat_attack`](crate::sat_attack) — same observable,
/// same budgets (shared across the fleet: `opts.budget` cancels every
/// racer; conflict/step budgets apply per racer) — but each round's
/// answer comes from whichever racer finishes it first.
///
/// # Panics
///
/// Panics if the design has no key port, or if the oracle responds with
/// a shape that does not match the design.
pub fn sat_attack_portfolio(
    sim: &VlogSim,
    opts: &SatAttackOptions,
    popts: &PortfolioOptions,
    oracle: &mut dyn FnMut(&AttackQuery) -> OracleResponse,
) -> PortfolioOutcome {
    let t0 = Instant::now();
    let n = popts.racers.max(1);
    let obs = opts.obs.clone();
    let mut span = obs.span("attack.portfolio");
    let configs = diversified_configs(n);
    let engines: Vec<Mutex<AttackEngine>> =
        configs.iter().map(|&c| Mutex::new(AttackEngine::new(sim, opts, Some(c)))).collect();
    let grid = GridExec::new(popts.threads.unwrap_or(n)).with_obs(obs.clone());

    let dip_counter = obs.counter("attack.dips");
    // Progress counts DIPs, not racer micro-steps: the per-round fleet
    // grid stays progress-free (it would announce n per round), and the
    // feed ticks once per distinguishing input like the single-engine
    // attack does.
    let progress = opts.progress.clone();
    if progress.enabled() {
        progress.set_phase("sat-attack");
        if let Some(max) = opts.max_dips {
            progress.add_total(max);
        }
    }
    let mut wins = vec![0u64; n];
    let mut rounds = 0u64;
    let mut winner = 0usize;
    let mut constraints: Vec<IoConstraint> = Vec::new();
    let status = loop {
        rounds += 1;
        // Round-scoped budget: a child of the attack budget, so the
        // attack's cancel/deadline still reaches mid-solve racers, but
        // the first finisher can stop this round's stragglers without
        // killing the attack.
        let round = opts.budget.child();
        for e in &engines {
            e.lock().unwrap().set_round_ctrl(round.clone());
        }
        let steps: Vec<Step> = grid.run(
            n,
            || (),
            |_, i| {
                let s = engines[i].lock().unwrap().step();
                if !matches!(s, Step::RoundCancelled) {
                    round.cancel();
                }
                s
            },
        );
        // Deterministic tie-break: the lowest-indexed racer that
        // actually finished drives the loop.
        let Some(w) = (0..n).find(|&i| !matches!(steps[i], Step::RoundCancelled)) else {
            // Only reachable when the attack budget fired between the
            // racers' own checks; attribute it there.
            break SatAttackStatus::Exhausted(match opts.budget.exceeded() {
                Some(CancelKind::DeadlineExpired) => ExhaustCause::Deadline,
                _ => ExhaustCause::Cancelled,
            });
        };
        winner = w;
        wins[w] += 1;
        match &steps[w] {
            Step::Collapsed => break SatAttackStatus::Recovered,
            Step::NeedGrow => {
                grid.run(n, || (), |_, i| engines[i].lock().unwrap().grow_step());
            }
            Step::Dip(query) => {
                let query = query.clone();
                let dips = engines[w].lock().unwrap().dips();
                opts.budget.fault_hit(faultpoint::sites::ATTACK_ORACLE, dips);
                let resp = {
                    let _oracle_span = obs.span("attack.oracle");
                    oracle(&query)
                };
                grid.run(n, || (), |_, i| engines[i].lock().unwrap().apply_dip(&query, &resp));
                dip_counter.inc();
                progress.tick();
                constraints.push(IoConstraint { query, response: resp });
            }
            Step::Exhausted(cause) => break SatAttackStatus::Exhausted(*cause),
            Step::RoundCancelled => unreachable!("winner is a finisher"),
        }
    };

    let mut engines: Vec<AttackEngine> =
        engines.into_iter().map(|m| m.into_inner().unwrap()).collect();
    let key = engines[winner].finish_model();
    let racers: Vec<RacerReport> = engines
        .iter()
        .zip(&wins)
        .map(|(e, &w)| {
            let st = e.solver_stats();
            RacerReport {
                config: e.solver_config(),
                wins: w,
                conflicts: st.conflicts,
                propagations: st.propagations,
            }
        })
        .collect();
    if span.recording() {
        span.arg("racers", n as u64);
        span.arg("rounds", rounds);
        span.arg("winner", winner as u64);
    }
    let outcome = engines.swap_remove(winner).into_outcome(status, key, t0.elapsed(), constraints);
    PortfolioOutcome { outcome, winner, rounds, racers }
}
