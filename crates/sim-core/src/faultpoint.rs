//! Deterministic fault injection for the execution engine.
//!
//! `tests/failure_injection.rs` corrupts *designs*; this module injects
//! faults into the *engine* — panics, stalls, and spurious
//! cancellations at named sites inside grid workers, SAT search, DIP
//! oracle calls, and DSE phases — so every degradation path in the
//! [`ctrl`](crate::ctrl) plane is exercised under test rather than
//! reasoned about.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s: *site* × *coordinate* ×
//! *action*. Plans are armed on a [`Budget`](crate::ctrl::Budget)
//! handle (`Budget::with_faults`), **not** on process-global state:
//! concurrently running tests cannot observe each other's faults, and
//! because the coordinate is a logical index (trial number, DIP
//! ordinal, DSE point) rather than an arrival order, a seeded plan
//! injures the *same work item* at every worker count. A budget with no
//! plan pays one branch per site.
//!
//! Sites currently compiled in:
//!
//! | site                                  | coordinate          |
//! |---------------------------------------|---------------------|
//! | [`sites::GRID_TRIAL`] (`grid.trial`)  | trial (slot) index  |
//! | [`sites::SAT_PROPAGATE`] (`sat.propagate`) | deadline-check ordinal |
//! | [`sites::ATTACK_ORACLE`] (`attack.oracle`) | DIP ordinal    |
//! | [`sites::DSE_PHASE`] (`dse.phase`)    | phase number (0–3)  |
//! | [`sites::DSE_POINT`] (`dse.point`)    | design-point index  |

use std::time::Duration;

/// Named fault sites compiled into the workspace. A plan may name any
/// string, but these are the ones with live [`fault_hit`] calls.
///
/// [`fault_hit`]: crate::ctrl::Budget::fault_hit
pub mod sites {
    /// One grid trial, inside the worker's `catch_unwind` scope.
    pub const GRID_TRIAL: &str = "grid.trial";
    /// CDCL search, at the solver's periodic deadline-check cadence.
    pub const SAT_PROPAGATE: &str = "sat.propagate";
    /// The attack's oracle query, once per DIP iteration.
    pub const ATTACK_ORACLE: &str = "attack.oracle";
    /// A DSE phase boundary (frontend / prepare / schedule / evaluate).
    pub const DSE_PHASE: &str = "dse.phase";
    /// One DSE design-point evaluation.
    pub const DSE_POINT: &str = "dse.point";
}

/// Prefix of every injected panic payload; lets harnesses (and the
/// quiet panic hook) distinguish injected faults from real bugs.
pub const PANIC_MARKER: &str = "faultpoint";

/// Panics with the canonical injected-fault payload for `site` at
/// `coord`. Used by [`Budget::fault_hit`](crate::ctrl::Budget::fault_hit).
pub(crate) fn injected_panic(site: &str, coord: u64) -> ! {
    std::panic::panic_any(format!("{PANIC_MARKER}: injected panic at {site}[{coord}]"))
}

/// `true` when a caught panic payload came from an armed fault plan.
pub fn is_injected_payload(payload: &str) -> bool {
    payload.starts_with(PANIC_MARKER)
}

/// What an armed fault does when its site × coordinate is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a [`PANIC_MARKER`]-prefixed payload (exercises
    /// `catch_unwind` isolation and poison recovery).
    Panic,
    /// Sleep for the given duration (exercises deadline expiry).
    Stall(Duration),
    /// Cancel the governing budget (exercises graceful drain).
    Cancel,
}

/// One armed fault: fire `action` when `site` is hit at `coord`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Site name (see [`sites`]).
    pub site: String,
    /// Deterministic coordinate the site reports (trial index, DIP
    /// ordinal, …).
    pub coord: u64,
    /// What happens on the hit.
    pub action: FaultAction,
}

/// A deterministic set of faults to inject. Build with the `*_at`
/// methods or derive one from a seed with [`FaultPlan::seeded`]; arm it
/// with [`Budget::with_faults`](crate::ctrl::Budget::with_faults).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a panic at `site` coordinate `coord`.
    pub fn panic_at(mut self, site: &str, coord: u64) -> Self {
        self.specs.push(FaultSpec { site: site.into(), coord, action: FaultAction::Panic });
        self
    }

    /// Adds a stall of `d` at `site` coordinate `coord`.
    pub fn stall_at(mut self, site: &str, coord: u64, d: Duration) -> Self {
        self.specs.push(FaultSpec { site: site.into(), coord, action: FaultAction::Stall(d) });
        self
    }

    /// Adds a spurious cancellation at `site` coordinate `coord`.
    pub fn cancel_at(mut self, site: &str, coord: u64) -> Self {
        self.specs.push(FaultSpec { site: site.into(), coord, action: FaultAction::Cancel });
        self
    }

    /// A reproducible plan: `n` faults drawn from `seed` over `sites`,
    /// coordinates in `0..coord_range`, actions cycling through
    /// panic / cancel / short stall. Same seed, same plan.
    pub fn seeded(seed: u64, sites: &[&str], n: usize, coord_range: u64) -> Self {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut plan = FaultPlan::new();
        for k in 0..n {
            let site = sites[(next() % sites.len().max(1) as u64) as usize];
            let coord = next() % coord_range.max(1);
            plan = match k % 3 {
                0 => plan.panic_at(site, coord),
                1 => plan.cancel_at(site, coord),
                _ => plan.stall_at(site, coord, Duration::from_millis(1)),
            };
        }
        plan
    }

    /// The armed specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The action armed at `site` × `coord`, if any (first match wins).
    pub(crate) fn action_at(&self, site: &str, coord: u64) -> Option<FaultAction> {
        self.specs.iter().find(|s| s.site == site && s.coord == coord).map(|s| s.action)
    }
}

/// Installs a process-wide panic hook that silences injected-fault
/// panics (payloads carrying [`PANIC_MARKER`]) and delegates everything
/// else to the previously installed hook. Idempotent; call from chaos
/// harnesses and fault tests so expected injections don't spray
/// backtraces over real failures.
pub fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| is_injected_payload(s))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{Budget, CancelKind};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn empty_plan_fires_nothing() {
        let b = Budget::unlimited().with_faults(FaultPlan::new());
        b.fault_hit(sites::GRID_TRIAL, 0);
        assert!(b.faults_fired().is_empty());
        assert_eq!(b.exceeded(), None);
    }

    #[test]
    fn panic_spec_panics_with_marker_at_exact_coord() {
        install_quiet_hook();
        let b = Budget::unlimited().with_faults(FaultPlan::new().panic_at(sites::GRID_TRIAL, 2));
        b.fault_hit(sites::GRID_TRIAL, 0);
        b.fault_hit(sites::GRID_TRIAL, 1);
        let err = catch_unwind(AssertUnwindSafe(|| b.fault_hit(sites::GRID_TRIAL, 2)))
            .expect_err("coord 2 must panic");
        let payload = err.downcast_ref::<String>().expect("string payload").clone();
        assert!(is_injected_payload(&payload), "{payload}");
        assert_eq!(b.faults_fired(), vec![(sites::GRID_TRIAL.to_string(), 2)]);
        // Other sites at the same coordinate are untouched.
        b.fault_hit(sites::DSE_POINT, 2);
        assert_eq!(b.faults_fired().len(), 1);
    }

    #[test]
    fn cancel_spec_cancels_the_budget() {
        let b = Budget::unlimited().with_faults(FaultPlan::new().cancel_at(sites::DSE_POINT, 1));
        let clone = b.clone();
        clone.fault_hit(sites::DSE_POINT, 0);
        assert_eq!(b.exceeded(), None);
        clone.fault_hit(sites::DSE_POINT, 1);
        assert_eq!(b.exceeded(), Some(CancelKind::Cancelled));
        // The fired record is shared plan state, visible from every clone.
        assert_eq!(b.faults_fired(), vec![(sites::DSE_POINT.to_string(), 1)]);
    }

    #[test]
    fn stall_spec_sleeps_past_a_deadline() {
        let plan = FaultPlan::new().stall_at("x", 0, Duration::from_millis(5));
        let b = Budget::unlimited().with_deadline_after(Duration::from_millis(1)).with_faults(plan);
        b.fault_hit("x", 0);
        assert_eq!(b.exceeded(), Some(CancelKind::DeadlineExpired));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let sites = [sites::GRID_TRIAL, sites::DSE_POINT];
        let a = FaultPlan::seeded(0xfa17, &sites, 6, 100);
        let b = FaultPlan::seeded(0xfa17, &sites, 6, 100);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 6);
        assert!(a.specs().iter().all(|s| s.coord < 100));
        assert_ne!(a, FaultPlan::seeded(0xfa18, &sites, 6, 100));
    }
}
