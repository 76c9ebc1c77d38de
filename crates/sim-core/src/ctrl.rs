//! Cooperative cancellation, deadlines, and effort budgets.
//!
//! Everything long-running in the workspace — `GridExec` sweeps, CDCL
//! search, the DIP attack loop, DSE phases — checks a [`Budget`] at its
//! natural cadence and **drains gracefully** instead of vanishing: the
//! grid returns per-slot cells, the solver returns
//! `SolveOutcome::Cancelled`, the attack returns partial effort plus
//! its accumulated I/O constraints, the explorer returns the partial
//! Pareto front with a `was_cancelled` marker.
//!
//! The plane is pure std and strictly cooperative: nothing is killed,
//! loops observe the handle and stop at a safe point. A [`Budget`]
//! combines three independent stop conditions:
//!
//! - a [`CancelToken`] — atomic, cloneable, hierarchical: cancelling a
//!   parent cancels every child, cancelling a child leaves the parent
//!   running (one DSE point can give up without stopping the sweep);
//! - a [`Deadline`] — a wall-clock `Instant` cutoff;
//! - an optional armed [`FaultPlan`] —
//!   the deterministic fault-injection harness rides the same handle
//!   (see [`crate::faultpoint`]), so injected faults reach exactly the
//!   code paths the budget governs and parallel tests never share
//!   injection state.
//!
//! ```
//! use sim_core::ctrl::{Budget, CancelKind};
//! use std::time::Duration;
//!
//! let job = Budget::unlimited().with_deadline_after(Duration::from_secs(60));
//! let probe = job.child(); // cancel the probe without cancelling the job
//! probe.cancel();
//! assert_eq!(probe.exceeded(), Some(CancelKind::Cancelled));
//! assert_eq!(job.exceeded(), None);
//! ```

use crate::faultpoint::{FaultAction, FaultPlan};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Why a [`Budget`] stopped the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelKind {
    /// The token (or one of its ancestors) was cancelled explicitly.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
}

impl fmt::Display for CancelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelKind::Cancelled => write!(f, "cancelled"),
            CancelKind::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

#[derive(Debug)]
struct TokenInner {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

/// An atomic, cloneable, hierarchical cancellation flag.
///
/// Clones share one flag. [`CancelToken::child`] creates a token that
/// observes its parent chain: the child reports cancelled when any
/// ancestor is, but cancelling the child never touches the parent.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, uncancelled root token.
    pub fn new() -> Self {
        CancelToken { inner: Arc::new(TokenInner { flag: AtomicBool::new(false), parent: None }) }
    }

    /// A child token: cancelled when this token (or any ancestor) is,
    /// but cancellable on its own without affecting the parent.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Raises the flag on this token (and thereby on every descendant).
    /// Idempotent.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut t = self;
        loop {
            if t.inner.flag.load(Ordering::Acquire) {
                return true;
            }
            match &t.inner.parent {
                Some(p) => t = p,
                None => return false,
            }
        }
    }

    /// Identity comparison: two handles are equal when they share the
    /// same flag (clones yes, children no).
    pub fn same(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        self.same(other)
    }
}
impl Eq for CancelToken {}

/// An optional wall-clock cutoff. `Deadline::none()` never expires and
/// never reads the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No cutoff.
    pub fn none() -> Self {
        Deadline(None)
    }

    /// Expires at `t`.
    pub fn at(t: Instant) -> Self {
        Deadline(Some(t))
    }

    /// Expires `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline(Some(Instant::now() + d))
    }

    /// Whether the cutoff has passed. Clock is read only when a cutoff
    /// is set.
    pub fn expired(&self) -> bool {
        match self.0 {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// Time left before the cutoff (`None` when unlimited, zero when
    /// already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The raw cutoff instant, if any.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }
}

/// Shared state of an armed fault plan: the plan plus a record of the
/// faults that actually fired (site, coordinate).
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) fired: Mutex<Vec<(String, u64)>>,
}

/// The combined control handle threaded through every long-running
/// loop: a [`CancelToken`], a [`Deadline`], and (under test) an armed
/// [`FaultPlan`].
///
/// Cheap to clone; clones share the token, deadline, and plan.
/// [`Budget::child`] derives a handle whose cancellation is
/// subordinate: the child stops when the parent stops, but can be
/// cancelled alone. Equality is identity on the token (what
/// `PartialEq`-deriving option structs need), not deep state.
#[derive(Debug, Clone)]
pub struct Budget {
    token: CancelToken,
    deadline: Deadline,
    faults: Option<Arc<FaultState>>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token
            && self.deadline == other.deadline
            && match (&self.faults, &other.faults) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}
impl Eq for Budget {}

impl Budget {
    /// Never expires, never cancelled (until [`Budget::cancel`] is
    /// called on this handle or a clone). The zero-cost default: one
    /// relaxed atomic load per check, no clock reads.
    pub fn unlimited() -> Self {
        Budget { token: CancelToken::new(), deadline: Deadline::none(), faults: None }
    }

    /// A budget that expires at `deadline`.
    pub fn with_deadline(deadline: Deadline) -> Self {
        Budget { token: CancelToken::new(), deadline, faults: None }
    }

    /// A budget that expires `d` from now.
    pub fn with_deadline_after(mut self, d: Duration) -> Self {
        self.deadline = Deadline::after(d);
        self
    }

    /// Arms a [`FaultPlan`] on this handle: every fault site reached by
    /// work governed by this budget (or a [`Budget::child`] of it)
    /// consults the plan. Plans are budget-scoped, not process-global,
    /// so concurrently running tests never observe each other's faults.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(FaultState { plan, fired: Mutex::new(Vec::new()) }));
        self
    }

    /// A subordinate handle: stops when `self` stops (cancel or
    /// deadline), cancellable alone, sharing the armed fault plan.
    pub fn child(&self) -> Self {
        Budget { token: self.token.child(), deadline: self.deadline, faults: self.faults.clone() }
    }

    /// Cancels this handle (and every child derived from it).
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The stop condition that currently holds, if any. Explicit
    /// cancellation wins over deadline expiry when both hold.
    pub fn exceeded(&self) -> Option<CancelKind> {
        if self.token.is_cancelled() {
            Some(CancelKind::Cancelled)
        } else if self.deadline.expired() {
            Some(CancelKind::DeadlineExpired)
        } else {
            None
        }
    }

    /// Shorthand for `self.exceeded().is_some()`.
    pub fn is_exceeded(&self) -> bool {
        self.exceeded().is_some()
    }

    /// The cancellation token (e.g. to share with a sibling).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The wall-clock cutoff.
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// A named fault-injection site: no-op (one branch) unless a plan
    /// is armed on this handle. `coord` is the site's deterministic
    /// coordinate — trial index for grid trials, check ordinal for SAT
    /// search, DIP index for oracle calls, point index for DSE — so a
    /// seeded plan injures the *same logical work item* at every worker
    /// count.
    ///
    /// # Panics
    ///
    /// By design: a matching [`FaultAction::Panic`] spec panics with a
    /// payload prefixed by
    /// [`faultpoint::PANIC_MARKER`](crate::faultpoint::PANIC_MARKER).
    pub fn fault_hit(&self, site: &str, coord: u64) {
        let Some(state) = &self.faults else { return };
        let Some(action) = state.plan.action_at(site, coord) else { return };
        {
            let mut fired = state.fired.lock().unwrap_or_else(PoisonError::into_inner);
            fired.push((site.to_string(), coord));
        }
        match action {
            FaultAction::Stall(d) => std::thread::sleep(d),
            FaultAction::Cancel => self.cancel(),
            FaultAction::Panic => crate::faultpoint::injected_panic(site, coord),
        }
    }

    /// The (site, coordinate) pairs whose fault specs actually fired,
    /// in firing order. Empty when no plan is armed.
    pub fn faults_fired(&self) -> Vec<(String, u64)> {
        match &self.faults {
            Some(s) => s.fired.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_budget_is_unlimited() {
        let b = Budget::unlimited();
        assert_eq!(b.exceeded(), None);
        assert!(!b.is_exceeded());
        assert_eq!(b.deadline().remaining(), None);
    }

    #[test]
    fn cancel_is_shared_by_clones_and_idempotent() {
        let b = Budget::unlimited();
        let c = b.clone();
        b.cancel();
        b.cancel();
        assert_eq!(c.exceeded(), Some(CancelKind::Cancelled));
    }

    #[test]
    fn child_cancellation_is_one_way() {
        let parent = Budget::unlimited();
        let child = parent.child();
        let grandchild = child.child();
        child.cancel();
        assert_eq!(parent.exceeded(), None);
        assert_eq!(child.exceeded(), Some(CancelKind::Cancelled));
        assert_eq!(grandchild.exceeded(), Some(CancelKind::Cancelled));
        parent.cancel();
        assert!(parent.is_exceeded());
    }

    #[test]
    fn parent_cancellation_reaches_children() {
        let parent = Budget::unlimited();
        let child = parent.child();
        parent.cancel();
        assert_eq!(child.exceeded(), Some(CancelKind::Cancelled));
    }

    #[test]
    fn deadlines_expire() {
        let b = Budget::with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        assert_eq!(b.exceeded(), Some(CancelKind::DeadlineExpired));
        let far = Budget::unlimited().with_deadline_after(Duration::from_secs(3600));
        assert_eq!(far.exceeded(), None);
        assert!(far.deadline().remaining().is_some());
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let b = Budget::with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        b.cancel();
        assert_eq!(b.exceeded(), Some(CancelKind::Cancelled));
    }

    #[test]
    fn children_inherit_the_deadline() {
        let b = Budget::with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        assert_eq!(b.child().exceeded(), Some(CancelKind::DeadlineExpired));
    }

    #[test]
    fn equality_is_identity_on_the_token() {
        let a = Budget::unlimited();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Budget::unlimited());
        assert_ne!(a, a.child());
    }

    #[test]
    fn fault_hit_without_a_plan_is_a_no_op() {
        let b = Budget::unlimited();
        b.fault_hit("grid.trial", 0);
        assert!(b.faults_fired().is_empty());
    }
}
