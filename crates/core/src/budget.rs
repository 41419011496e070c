//! Query budgets: deadlines, work limits, and cooperative cancellation.
//!
//! A [`QueryBudget`] is the *declaration* a caller attaches to a query —
//! how long it may run, how much work it may do, and a flag another thread
//! can flip to stop it. Arming the budget produces a
//! [`BudgetTicker`] (from the road crate, where the hot loops live) that
//! the search stages charge as they go. Exhaustion degrades gracefully:
//! [`QuerySession::execute_with_budget`](crate::session::QuerySession::execute_with_budget)
//! returns [`QueryOutcome::Partial`](crate::result::QueryOutcome::Partial)
//! with the best-so-far communities instead of an error.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use rsn_road::budget::{BudgetTicker, ExhaustionCause, CHECK_INTERVAL};

/// Resource limits for one query: an optional deadline, an optional work
/// limit, and an optional cancellation flag. All three compose; the first
/// one to trip stops the query.
///
/// A default-constructed budget is unlimited — queries run exactly as they
/// would without one — so a serving layer can thread budgets through
/// unconditionally and only pay for the limits it sets.
///
/// ```
/// use rsn_core::QueryBudget;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let cancel = Arc::new(AtomicBool::new(false));
/// let budget = QueryBudget::new()
///     .with_deadline(Duration::from_millis(50))
///     .with_work_limit(1_000_000)
///     .with_cancel_flag(cancel.clone());
/// assert!(!budget.is_unlimited());
/// // Another thread may flip the flag at any point:
/// cancel.store(true, Ordering::Relaxed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Wall-clock allowance, measured from the moment execution starts.
    pub deadline: Option<Duration>,
    /// Maximum abstract work units (heap pops, walked index cells,
    /// arrangement tasks, verified candidates) the query may spend.
    pub work_limit: Option<u64>,
    /// Cooperative cancellation flag; set it (any ordering) to stop the
    /// query at its next budget check.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryBudget {
    /// An unlimited budget.
    pub fn new() -> Self {
        QueryBudget::default()
    }

    /// Sets the wall-clock allowance, measured from execution start.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the work limit in abstract units.
    pub fn with_work_limit(mut self, limit: u64) -> Self {
        self.work_limit = Some(limit);
        self
    }

    /// Attaches a cancellation flag.
    pub fn with_cancel_flag(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether no limit of any kind is set. An unlimited budget arms an
    /// unlimited ticker, which never exhausts: a guaranteed
    /// [`Complete`](crate::result::QueryOutcome::Complete) outcome.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.work_limit.is_none() && self.cancel.is_none()
    }

    /// Arms the budget into a ticker, resolving the relative deadline
    /// against the current instant. A deadline too far in the future to
    /// represent is treated as no deadline.
    pub fn arm(&self) -> BudgetTicker {
        let deadline = self.deadline.and_then(|d| Instant::now().checked_add(d));
        BudgetTicker::new(deadline, self.work_limit, self.cancel.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_arms_an_unexhaustible_ticker() {
        let budget = QueryBudget::new();
        assert!(budget.is_unlimited());
        let mut ticker = budget.arm();
        for _ in 0..10_000 {
            assert!(ticker.charge(100));
        }
    }

    #[test]
    fn builders_compose_and_mark_the_budget_limited() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = QueryBudget::new()
            .with_deadline(Duration::from_secs(3600))
            .with_work_limit(10)
            .with_cancel_flag(flag);
        assert!(!budget.is_unlimited());
        let mut ticker = budget.arm();
        assert!(ticker.charge(10));
        assert!(!ticker.charge(1));
        assert_eq!(ticker.cause(), Some(ExhaustionCause::WorkLimit));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let mut ticker = QueryBudget::new()
            .with_deadline(Duration::from_secs(0))
            .arm();
        assert!(!ticker.charge(1));
        assert_eq!(ticker.cause(), Some(ExhaustionCause::Deadline));
    }
}
