//! Step/deadline budgets for the solver engines.
//!
//! The fragments with negation are EXPTIME-complete (Theorems 5.2/5.3) and the
//! enumeration fallback is worse, so a service cannot *trust* its inputs to terminate
//! in useful time — it must *govern* them.  A [`Budget`] is the contract: an optional
//! step allowance (an abstract unit of engine work — a fixpoint visit, a product-state
//! expansion, a candidate document) and an optional wall-clock deadline.  Engines
//! charge a per-call [`BudgetMeter`] as they go and bail out with [`Exhausted`] the
//! moment either resource runs dry, turning a potential multi-minute spin into a
//! structured `resource_exhausted` answer.

use std::cell::Cell;
use std::time::Instant;

/// How often (in spent steps) the wall clock is consulted; `Instant::now` costs a
/// syscall on some platforms, so the meter amortises it.
const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// A resource allowance for one decision: step fuel and/or a wall-clock deadline.
///
/// `Budget::default()` is unlimited, matching the library's historical behaviour;
/// services facing untrusted input should always set `max_steps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum number of abstract engine steps, `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Give up when the wall clock passes this instant, `None` = no deadline.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// The unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A pure step budget with no deadline.
    pub fn steps(max_steps: u64) -> Budget {
        Budget {
            max_steps: Some(max_steps),
            deadline: None,
        }
    }

    /// A fresh meter charging against this budget.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            remaining: Cell::new(self.max_steps.unwrap_or(u64::MAX)),
            deadline: self.deadline,
            until_clock_check: Cell::new(DEADLINE_CHECK_INTERVAL),
        }
    }
}

/// Which resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The step allowance was spent.
    Steps,
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhausted::Steps => write!(f, "step budget exhausted"),
            Exhausted::Deadline => write!(f, "deadline exceeded"),
        }
    }
}

/// Per-decision charging state for a [`Budget`].  Cheap interior mutability so engines
/// can thread a shared `&BudgetMeter` without plumbing `&mut` through recursion.
#[derive(Debug)]
pub struct BudgetMeter {
    remaining: Cell<u64>,
    deadline: Option<Instant>,
    until_clock_check: Cell<u64>,
}

impl BudgetMeter {
    /// A meter that never exhausts.
    pub fn unlimited() -> BudgetMeter {
        Budget::unlimited().meter()
    }

    /// Charge `n` steps; `Err` the moment the allowance or the deadline is exceeded.
    pub fn spend(&self, n: u64) -> Result<(), Exhausted> {
        let remaining = self.remaining.get();
        if remaining < n {
            self.remaining.set(0);
            return Err(Exhausted::Steps);
        }
        self.remaining.set(remaining - n);
        if let Some(deadline) = self.deadline {
            let until = self.until_clock_check.get().saturating_sub(n);
            if until == 0 {
                self.until_clock_check.set(DEADLINE_CHECK_INTERVAL);
                if Instant::now() >= deadline {
                    return Err(Exhausted::Deadline);
                }
            } else {
                self.until_clock_check.set(until);
            }
        }
        Ok(())
    }

    /// Steps still available (`u64::MAX` when unlimited).
    pub fn remaining(&self) -> u64 {
        self.remaining.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_exhausts() {
        let meter = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            meter.spend(1).unwrap();
        }
    }

    #[test]
    fn step_budget_exhausts_exactly() {
        let meter = Budget::steps(3).meter();
        meter.spend(2).unwrap();
        meter.spend(1).unwrap();
        assert_eq!(meter.spend(1), Err(Exhausted::Steps));
        // Exhaustion is sticky.
        assert_eq!(meter.spend(1), Err(Exhausted::Steps));
    }

    #[test]
    fn deadline_is_detected() {
        let budget = Budget {
            max_steps: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let meter = budget.meter();
        // The clock is only consulted every DEADLINE_CHECK_INTERVAL steps.
        let mut result = Ok(());
        for _ in 0..2 * DEADLINE_CHECK_INTERVAL {
            result = meter.spend(1);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result, Err(Exhausted::Deadline));
    }
}
