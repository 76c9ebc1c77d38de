//! Exact loop detection for deterministic simulation runs.
//!
//! Once a run has reset, a compiled simulator gets no new input: args,
//! key and memory overrides are fixed. So if the run's *full* state after
//! cycle `s` equals its full state after a later cycle `c`, and the
//! design did not finish in between, the run repeats the same `c − s`
//! cycles forever and can only end at its cycle budget. Its state there
//! is the state after `c + (budget − c) mod (c − s)`, so the runner may
//! skip every whole lap and simulate only the remainder.
//!
//! [`LoopDetector`] finds such a repeat with Brent's cycle detection
//! (R. P. Brent, "An improved Monte Carlo factorization algorithm",
//! BIT 20, 1980): it snapshots the state after cycles 63, 127, 255, …
//! and compares each later state with the latest snapshot. A run that
//! loops with pre-period `μ` and period `λ` is caught within about
//! `max(64, 2·max(μ, λ)) + λ` cycles, the first comparison that matches
//! yields the exact period, and a run of `n` cycles copies its state
//! only `O(log n)` times. Nothing is hashed: a match is an exact equality
//! of every state word. The schedule starts at 63 rather than 1: the
//! five earlier snapshots would cost every finishing run as much as the
//! later ones do, and a loop they would catch is caught by cycle
//! `63 + λ` anyway.
//!
//! The runner supplies its state in three parts. The **filter** word is
//! compared inline in the runner's cycle loop, and only a match calls
//! [`LoopDetector::skip`]; it should change often within a loop body (an
//! FSM state index). The **head** is one slice compared next, starting
//! with the word that last told a candidate apart from the snapshot (a
//! loop counter, typically), so a run that finishes pays about one
//! compare per call. The **tail** parts (memory images, pending writes)
//! are produced and compared only when the head matches. The filter word
//! counts as state: a match needs filter, head and tail all equal, so
//! correctness never depends on how selective the filter is.

/// The cycle after which a run takes its first snapshot.
const FIRST_SNAPSHOT: u64 = 63;

/// Brent's cycle detection over a run's full state, with the snapshot
/// buffer reused across runs. See the [module docs](self).
///
/// A runner calls [`LoopDetector::start`] at reset,
/// [`LoopDetector::snapshot`] after each cycle on the schedule it
/// returns, and [`LoopDetector::skip`] after any cycle whose filter word
/// equals the snapshot's.
#[derive(Debug, Clone, Default)]
pub struct LoopDetector {
    /// The snapshot: head words, then every tail part in order.
    snap: Vec<u64>,
    /// Number of leading `snap` words that came from the head.
    head_len: usize,
    /// The snapshot's filter word.
    filter: u64,
    /// Cycle after which the snapshot was taken (0 = no snapshot yet).
    at: u64,
    /// Head index of the word that last told a candidate apart from the
    /// snapshot, compared first.
    hint: usize,
}

impl LoopDetector {
    /// Forgets the previous run's snapshot and returns the cycle after
    /// which to take the first one.
    pub fn start(&mut self) -> u64 {
        self.at = 0;
        FIRST_SNAPSHOT
    }

    /// Records the state after `cycle` as the snapshot and returns the
    /// cycle of the next one on Brent's schedule (`2·cycle + 1`).
    pub fn snapshot<'a>(
        &mut self,
        cycle: u64,
        filter: u64,
        head: &[u64],
        tail: impl IntoIterator<Item = &'a [u64]>,
    ) -> u64 {
        self.snap.clear();
        self.snap.extend_from_slice(head);
        self.head_len = head.len();
        for part in tail {
            self.snap.extend_from_slice(part);
        }
        self.filter = filter;
        self.at = cycle;
        cycle.saturating_mul(2).saturating_add(1)
    }

    /// Compares the state after `cycle` with the snapshot. When they are
    /// equal the run loops forever with period `cycle − s` (`s` the
    /// snapshot's cycle), and this returns the whole laps it may skip:
    /// the largest multiple of the period that keeps `cycle + skip ≤
    /// budget`. The state after `cycle + skip` equals the current one.
    ///
    /// `tail` is called only when the filter and head words match. After
    /// a skip the detector stays disarmed until the next snapshot: the
    /// remainder is shorter than one period, so it holds no repeat.
    pub fn skip<'a, I: IntoIterator<Item = &'a [u64]>>(
        &mut self,
        cycle: u64,
        budget: u64,
        filter: u64,
        head: &[u64],
        tail: impl FnOnce() -> I,
    ) -> Option<u64> {
        // A run under a budget of `u64::MAX` cannot time out, so it never
        // ends and there is nothing to skip to.
        if self.at == 0
            || cycle <= self.at
            || budget == u64::MAX
            || filter != self.filter
            || head.len() != self.head_len
        {
            return None;
        }
        let snap_head = &self.snap[..self.head_len];
        if head.get(self.hint) != snap_head.get(self.hint) {
            return None;
        }
        if let Some(i) = head.iter().zip(snap_head).position(|(a, b)| a != b) {
            self.hint = i;
            return None;
        }
        let mut rest = &self.snap[self.head_len..];
        for part in tail() {
            match rest.split_at_checked(part.len()) {
                Some((s, r)) if s == part => rest = r,
                _ => return None,
            }
        }
        if !rest.is_empty() {
            return None;
        }
        let period = cycle - self.at;
        self.at = 0;
        Some(budget.saturating_sub(cycle) / period * period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy machine with pre-period `mu` and period `lambda`: from 0 it
    /// counts up, and from `mu + lambda − 1` it steps back to `mu`. The
    /// state after cycle `t` is `t` before the loop and `mu + (t − mu)
    /// mod lambda` in it. Its head is `[x, 7]` and its tail one constant
    /// part, so only `x` tells states apart.
    struct Toy {
        mu: u64,
        lambda: u64,
    }

    impl Toy {
        fn state(&self, t: u64) -> u64 {
            if t < self.mu {
                t
            } else {
                self.mu + (t - self.mu) % self.lambda
            }
        }

        fn step(&self, x: u64) -> u64 {
            if x + 1 < self.mu.saturating_add(self.lambda) {
                x + 1
            } else {
                self.mu
            }
        }

        /// Runs to `budget` the way a tape runner does: Brent's schedule
        /// folded into the budget compare, the filter compare inline,
        /// then the skip, which only advances the cycle counter. Returns
        /// the state after the budget, the cycles simulated and whether
        /// the run fast-forwarded.
        fn run(&self, budget: u64, filter: impl Fn(u64) -> u64) -> (u64, u64, bool) {
            let mut det = LoopDetector::default();
            let mut limit = budget.min(det.start());
            let mut filt = u64::MAX;
            let (mut x, mut cycles, mut simulated, mut skipped) = (0u64, 0u64, 0u64, false);
            let tail = [5u64, 6];
            loop {
                cycles += 1;
                if cycles > limit {
                    if cycles > budget {
                        return (x, simulated, skipped);
                    }
                    limit = budget.min(det.snapshot(cycles - 1, filter(x), &[x, 7], [&tail[..]]));
                    filt = filter(x);
                } else if filter(x) == filt {
                    if let Some(n) =
                        det.skip(cycles - 1, budget, filter(x), &[x, 7], || [&tail[..]])
                    {
                        assert!(cycles - 1 + n <= budget);
                        cycles = cycles - 1 + n;
                        limit = budget;
                        skipped = true;
                        continue;
                    }
                }
                x = self.step(x);
                simulated += 1;
            }
        }
    }

    /// Runs the toy and checks the state at the budget against the
    /// closed form; returns the cycles simulated and whether it skipped.
    fn check(mu: u64, lambda: u64, budget: u64) -> (u64, bool) {
        let toy = Toy { mu, lambda };
        let (got, simulated, skipped) = toy.run(budget, |x| x % 3);
        assert_eq!(got, toy.state(budget), "mu {mu} lambda {lambda} budget {budget}");
        (simulated, skipped)
    }

    #[test]
    fn pre_period_zero_and_period_one_are_caught() {
        // A machine that never changes: caught at the first compare
        // after the first snapshot.
        assert_eq!(check(0, 1, 1_000_000), (FIRST_SNAPSHOT + 1, true));
        // Period 1 after a pre-period; pre-period 0 with a longer period.
        assert_eq!(check(13, 1, 1_000_000), (FIRST_SNAPSHOT + 1, true));
        let (simulated, skipped) = check(0, 9, 1_000_000);
        assert!(skipped);
        assert!(simulated < FIRST_SNAPSHOT + 2 * 9, "{simulated}");
    }

    #[test]
    fn budgets_inside_the_pre_period_simulate_every_cycle() {
        for budget in [0, 1, 2, 30, 99] {
            assert_eq!(check(100, 7, budget), (budget, false));
        }
    }

    #[test]
    fn budgets_on_and_one_past_a_period_boundary_are_exact() {
        let (mu, lambda) = (21u64, 12u64);
        for laps in [5u64, 40, 1_000] {
            let boundary = mu + laps * lambda;
            for budget in [boundary - 1, boundary, boundary + 1] {
                let (simulated, skipped) = check(mu, lambda, budget);
                assert!(skipped, "budget {budget}");
                // Caught within max(64, 2·max(mu, lambda)) + lambda
                // cycles, then less than one period of remainder.
                let caught = (2 * mu.max(lambda)).max(FIRST_SNAPSHOT + 1) + lambda;
                assert!(simulated < caught + lambda, "{simulated}");
            }
        }
    }

    #[test]
    fn skips_land_on_the_budget_for_many_shapes() {
        for mu in 0..20 {
            for lambda in 1..20 {
                for budget in [0, 1, mu, mu + lambda, 3 * (mu + lambda) + 1, 500] {
                    check(mu, lambda, budget);
                }
            }
        }
    }

    #[test]
    fn a_matching_filter_word_alone_is_not_a_recurrence() {
        // Every state shares the filter word 0 and no state repeats: the
        // full comparison must reject every candidate.
        let toy = Toy { mu: u64::MAX, lambda: 1 };
        assert_eq!(toy.run(5_000, |_| 0), (5_000, 5_000, false));
    }

    #[test]
    fn tail_and_head_shape_are_part_of_the_state() {
        let armed = || {
            let mut det = LoopDetector::default();
            det.start();
            det.snapshot(1, 4, &[1, 2], [&[3u64, 4][..], &[5][..]]);
            det
        };
        let skip = |filter: u64, head: &[u64], tail: &[&[u64]]| {
            armed().skip(3, 11, filter, head, || tail.iter().copied())
        };
        assert_eq!(skip(4, &[1, 2], &[&[3, 4], &[5]]), Some(8));
        assert_eq!(skip(4, &[1, 2], &[&[3, 4, 5]]), Some(8), "tail parts are one sequence");
        assert_eq!(skip(5, &[1, 2], &[&[3, 4], &[5]]), None, "filter word");
        assert_eq!(skip(4, &[1, 2], &[&[3, 4], &[6]]), None);
        assert_eq!(skip(4, &[1, 2], &[&[3, 4]]), None);
        assert_eq!(skip(4, &[1, 2], &[&[3, 4], &[5], &[0]]), None);
        assert_eq!(skip(4, &[1], &[&[2, 3, 4], &[5]]), None);
        // Never at the snapshot's cycle, not after `start`, and not twice.
        let tail = || [&[3u64, 4, 5][..]];
        assert_eq!(armed().skip(1, 11, 4, &[1, 2], tail), None);
        let mut det = armed();
        det.start();
        assert_eq!(det.skip(3, 11, 4, &[1, 2], tail), None);
        let mut det = armed();
        assert_eq!(det.skip(3, 11, 4, &[1, 2], tail), Some(8));
        assert_eq!(det.skip(3, 11, 4, &[1, 2], tail), None);
        // A remainder shorter than one period skips nothing.
        assert_eq!(armed().skip(3, 4, 4, &[1, 2], tail), Some(0));
    }
}
