//! Cooperative work budgets for the query-path primitives.
//!
//! MAC queries are exact but worst-case expensive, and the serving layer
//! built on top of this crate needs every long-running primitive — the
//! bounded Dijkstra sweep, the multi-seed G-tree walk, the range filter —
//! to stop *cooperatively* when a deadline passes, a work limit is hit, or
//! a caller flips a cancellation flag. [`BudgetTicker`] is that mechanism:
//! a cheap amortized tick counter the hot loops charge as they go.
//!
//! The cost discipline matters more than the feature set here. A charge is
//! one saturating add plus one integer compare in the common case; the
//! expensive checks (an atomic load for cancellation, an `Instant::now()`
//! for the deadline) run only every [`CHECK_INTERVAL`] charged units. The
//! **first** charge always runs the expensive checks, so a deadline that
//! already passed (e.g. a zero deadline) trips before any real work happens.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many charged work units pass between expensive budget checks (the
/// cancellation atomic load and the deadline clock read). Work limits are
/// checked on every charge — they are a plain integer compare.
pub const CHECK_INTERVAL: u64 = 1024;

/// Why a budget stopped the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionCause {
    /// The deadline passed.
    Deadline,
    /// The work limit was spent.
    WorkLimit,
    /// The cancellation flag was set.
    Cancelled,
}

impl std::fmt::Display for ExhaustionCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustionCause::Deadline => write!(f, "deadline"),
            ExhaustionCause::WorkLimit => write!(f, "work limit"),
            ExhaustionCause::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// An armed, single-query work budget: charged by the hot loops, it reports
/// exhaustion once the deadline passes, the work limit is spent, or the
/// cancellation flag is observed set. Once exhausted it stays exhausted.
///
/// ```
/// use rsn_road::budget::{BudgetTicker, ExhaustionCause};
///
/// let mut ticker = BudgetTicker::new(None, Some(10), None);
/// assert!(ticker.charge(8)); // within the limit
/// assert!(!ticker.charge(8)); // 16 > 10: exhausted
/// assert_eq!(ticker.cause(), Some(ExhaustionCause::WorkLimit));
/// assert!(!ticker.charge(1)); // stays exhausted
/// ```
#[derive(Debug, Default)]
pub struct BudgetTicker {
    deadline: Option<Instant>,
    work_limit: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    spent: u64,
    /// Charged units until the next expensive check; starts at 0 so the
    /// first charge checks the clock and the flag immediately.
    until_check: u64,
    exhausted: Option<ExhaustionCause>,
}

impl BudgetTicker {
    /// Arms a ticker. All limits are optional; a ticker with none never
    /// exhausts. Every query-path stage takes a ticker, so unbudgeted work
    /// runs the same code with an unlimited one: its charge is a
    /// decrement-and-compare, plus two `None` checks per [`CHECK_INTERVAL`]
    /// units.
    pub fn new(
        deadline: Option<Instant>,
        work_limit: Option<u64>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        BudgetTicker {
            deadline,
            work_limit,
            cancel,
            spent: 0,
            until_check: 0,
            exhausted: None,
        }
    }

    /// A ticker that never exhausts.
    pub fn unlimited() -> Self {
        BudgetTicker::new(None, None, None)
    }

    /// Charges `units` of work. Returns `true` while the budget holds;
    /// `false` once it is exhausted (and on every later call).
    #[inline]
    pub fn charge(&mut self, units: u64) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        self.spent = self.spent.saturating_add(units);
        if let Some(limit) = self.work_limit {
            if self.spent > limit {
                self.exhausted = Some(ExhaustionCause::WorkLimit);
                return false;
            }
        }
        if self.until_check > units {
            self.until_check -= units;
            return true;
        }
        self.until_check = CHECK_INTERVAL;
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                self.exhausted = Some(ExhaustionCause::Cancelled);
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.exhausted = Some(ExhaustionCause::Deadline);
                return false;
            }
        }
        true
    }

    /// Why the budget exhausted, once it has.
    pub fn cause(&self) -> Option<ExhaustionCause> {
        self.exhausted
    }

    /// Total work units charged so far (including the charge that tripped).
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Splits the remaining budget into a [`SharedBudget`] that a pool of
    /// workers can charge concurrently. The shared budget inherits the
    /// limits, the units already spent, and any exhaustion already latched.
    /// After the parallel stage, fold the workers' charges back with
    /// [`absorb`](Self::absorb).
    pub fn share(&self) -> SharedBudget {
        SharedBudget {
            deadline: self.deadline,
            work_limit: self.work_limit,
            cancel: self.cancel.clone(),
            spent: AtomicU64::new(self.spent),
            cause: AtomicU8::new(cause_to_code(self.exhausted)),
        }
    }

    /// Folds a [`SharedBudget`] back into this ticker: the total units spent
    /// (across every worker, including aborted ones) replace the local count
    /// and a latched exhaustion carries over, so no parallel charge is ever
    /// lost. The next local charge re-runs the expensive checks.
    pub fn absorb(&mut self, shared: &SharedBudget) {
        self.spent = self.spent.max(shared.total_spent());
        if self.exhausted.is_none() {
            self.exhausted = shared.cause();
        }
        self.until_check = 0;
    }
}

#[inline]
fn cause_to_code(cause: Option<ExhaustionCause>) -> u8 {
    match cause {
        None => 0,
        Some(ExhaustionCause::Deadline) => 1,
        Some(ExhaustionCause::WorkLimit) => 2,
        Some(ExhaustionCause::Cancelled) => 3,
    }
}

#[inline]
fn code_to_cause(code: u8) -> Option<ExhaustionCause> {
    match code {
        1 => Some(ExhaustionCause::Deadline),
        2 => Some(ExhaustionCause::WorkLimit),
        3 => Some(ExhaustionCause::Cancelled),
        _ => None,
    }
}

/// One query budget charged concurrently by a pool of workers.
///
/// The shared state is two atomics: the total units spent and a one-shot
/// exhaustion latch. Workers charge through per-thread [`WorkerTicker`]
/// views that batch charges locally and synchronize every
/// [`CHECK_INTERVAL`] units, so the hot-loop cost stays an add and a
/// compare. The latch makes exhaustion **global**: the first worker to trip
/// (deadline, work limit, or cancellation) publishes the cause, every other
/// worker observes it at its next check and stops, and every worker's
/// charges — including those of a task aborted mid-flight — are flushed
/// into the shared total when its ticker finishes or drops.
#[derive(Debug)]
pub struct SharedBudget {
    deadline: Option<Instant>,
    work_limit: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    spent: AtomicU64,
    /// Exhaustion latch: 0 = live, else an [`ExhaustionCause`] code. The
    /// first tripping worker wins; later causes are ignored.
    cause: AtomicU8,
}

impl SharedBudget {
    /// A per-worker charging view. Any number may be live at once.
    pub fn worker(&self) -> WorkerTicker<'_> {
        WorkerTicker {
            shared: self,
            local: 0,
            until_check: 0,
            exhausted: code_to_cause(self.cause.load(Ordering::Acquire)),
        }
    }

    /// Latches `cause` if no worker tripped before; returns the winning
    /// cause either way.
    fn latch(&self, cause: ExhaustionCause) -> ExhaustionCause {
        match self.cause.compare_exchange(
            0,
            cause_to_code(Some(cause)),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => cause,
            Err(prev) => code_to_cause(prev).unwrap_or(cause),
        }
    }

    /// Whether any worker tripped the budget.
    pub fn is_exhausted(&self) -> bool {
        self.cause.load(Ordering::Acquire) != 0
    }

    /// The latched exhaustion cause, once a worker tripped.
    pub fn cause(&self) -> Option<ExhaustionCause> {
        code_to_cause(self.cause.load(Ordering::Acquire))
    }

    /// Total units flushed by all workers so far. Exact once every
    /// [`WorkerTicker`] has finished or dropped.
    fn total_spent(&self) -> u64 {
        self.spent.load(Ordering::Acquire)
    }

    #[inline]
    fn flush_units(&self, units: u64) -> u64 {
        if units == 0 {
            return self.spent.load(Ordering::Acquire);
        }
        self.spent
            .fetch_add(units, Ordering::AcqRel)
            .saturating_add(units)
    }
}

/// A per-worker view of a [`SharedBudget`]: same charge discipline as
/// [`BudgetTicker`], but the expensive interval check also flushes the
/// locally batched units into the shared total and consults the global
/// exhaustion latch. Dropping the ticker flushes any outstanding units, so
/// a worker that aborts mid-task never loses its charges.
#[derive(Debug)]
pub struct WorkerTicker<'a> {
    shared: &'a SharedBudget,
    /// Units charged locally since the last flush.
    local: u64,
    /// Charged units until the next flush + expensive check; starts at 0 so
    /// the first charge checks immediately (an already-expired deadline
    /// trips every worker before it does real work).
    until_check: u64,
    exhausted: Option<ExhaustionCause>,
}

impl WorkerTicker<'_> {
    /// Charges `units` of work. Returns `true` while the shared budget
    /// holds; `false` once this worker observes (or causes) exhaustion.
    #[inline]
    pub fn charge(&mut self, units: u64) -> bool {
        if self.exhausted.is_some() {
            return false;
        }
        self.local = self.local.saturating_add(units);
        if self.until_check > units {
            self.until_check -= units;
            return true;
        }
        self.until_check = CHECK_INTERVAL;
        self.check()
    }

    /// The slow path: flush local units, consult the latch, run the
    /// expensive checks.
    fn check(&mut self) -> bool {
        let total = self.shared.flush_units(self.local);
        self.local = 0;
        if let Some(cause) = self.shared.cause() {
            self.exhausted = Some(cause);
            return false;
        }
        if let Some(limit) = self.shared.work_limit {
            if total > limit {
                self.exhausted = Some(self.shared.latch(ExhaustionCause::WorkLimit));
                return false;
            }
        }
        if let Some(cancel) = &self.shared.cancel {
            if cancel.load(Ordering::Relaxed) {
                self.exhausted = Some(self.shared.latch(ExhaustionCause::Cancelled));
                return false;
            }
        }
        if let Some(deadline) = self.shared.deadline {
            if Instant::now() >= deadline {
                self.exhausted = Some(self.shared.latch(ExhaustionCause::Deadline));
                return false;
            }
        }
        true
    }

    /// The exhaustion cause this worker observed, once it has.
    pub fn cause(&self) -> Option<ExhaustionCause> {
        self.exhausted
    }
}

impl Drop for WorkerTicker<'_> {
    /// Flush outstanding local charges so an aborted task's work still
    /// counts against the shared budget.
    fn drop(&mut self) {
        self.shared.flush_units(self.local);
        self.local = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_exhausts() {
        let mut t = BudgetTicker::unlimited();
        for _ in 0..10_000 {
            assert!(t.charge(17));
        }
        assert_eq!(t.cause(), None);
        assert_eq!(t.spent(), 170_000);
    }

    #[test]
    fn work_limit_trips_exactly_and_latches() {
        let mut t = BudgetTicker::new(None, Some(5), None);
        assert!(t.charge(5)); // spent == limit is still fine
        assert!(!t.charge(1));
        assert_eq!(t.cause(), Some(ExhaustionCause::WorkLimit));
        assert!(!t.charge(0));
    }

    #[test]
    fn expired_deadline_trips_on_the_first_charge() {
        let mut t = BudgetTicker::new(Some(Instant::now() - Duration::from_secs(1)), None, None);
        assert!(!t.charge(1));
        assert_eq!(t.cause(), Some(ExhaustionCause::Deadline));
    }

    #[test]
    fn cancellation_is_observed_within_a_check_interval() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut t = BudgetTicker::new(None, None, Some(flag.clone()));
        assert!(t.charge(1)); // first charge checks: flag clear
        flag.store(true, Ordering::Relaxed);
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if !t.charge(1) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "flag must be observed within one check interval");
        assert_eq!(t.cause(), Some(ExhaustionCause::Cancelled));
    }

    #[test]
    fn spent_saturates_instead_of_overflowing() {
        let mut t = BudgetTicker::unlimited();
        assert!(t.charge(u64::MAX));
        assert!(t.charge(u64::MAX));
        assert_eq!(t.spent(), u64::MAX);
    }

    #[test]
    fn shared_expired_deadline_trips_every_worker_on_first_charge() {
        let shared =
            BudgetTicker::new(Some(Instant::now() - Duration::from_secs(1)), None, None).share();
        for _ in 0..3 {
            let mut w = shared.worker();
            assert!(!w.charge(1));
            assert_eq!(w.cause(), Some(ExhaustionCause::Deadline));
        }
        assert_eq!(shared.cause(), Some(ExhaustionCause::Deadline));
    }

    #[test]
    fn shared_latch_is_observed_by_other_workers() {
        let flag = Arc::new(AtomicBool::new(false));
        let shared = BudgetTicker::new(None, None, Some(flag.clone())).share();
        let mut a = shared.worker();
        let mut b = shared.worker();
        assert!(a.charge(1));
        assert!(b.charge(1));
        flag.store(true, Ordering::Relaxed);
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if !a.charge(1) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        // b observes the cause a latched within one of its own intervals.
        let mut observed = false;
        for _ in 0..=CHECK_INTERVAL {
            if !b.charge(1) {
                observed = true;
                break;
            }
        }
        assert!(observed);
        assert_eq!(b.cause(), Some(ExhaustionCause::Cancelled));
    }

    #[test]
    fn dropped_worker_flushes_its_charges() {
        let shared = BudgetTicker::unlimited().share();
        {
            let mut w = shared.worker();
            assert!(w.charge(1)); // first charge flushes immediately
            assert!(w.charge(7)); // batched locally
        } // dropped mid-batch: the 7 units must not be lost
        assert_eq!(shared.total_spent(), 8);
    }

    #[test]
    fn absorb_carries_spend_and_cause_back() {
        let mut t = BudgetTicker::new(None, Some(100), None);
        assert!(t.charge(10));
        let shared = t.share();
        assert_eq!(shared.total_spent(), 10);
        {
            let mut w = shared.worker();
            // 10 already spent + 95 > 100 trips the shared limit at the
            // worker's first check.
            assert!(!w.charge(95));
        }
        t.absorb(&shared);
        assert_eq!(t.cause(), Some(ExhaustionCause::WorkLimit));
        assert_eq!(t.spent(), 105);
        assert!(!t.charge(1));
    }
}
