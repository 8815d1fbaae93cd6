//! Per-tenant circuit breaker over the what-if backend.
//!
//! A tenant whose backend keeps faulting (transient storms, replay misses)
//! should not grind every request through a doomed INUM preparation: after
//! `threshold` *consecutive* backend failures the breaker **opens** and the
//! tenant's probe-spending verbs (`open`, `add`) are rejected immediately
//! with `err busy … retry_after_ms=<n>` — the client backs off instead of
//! hammering a sick backend.  After `cooldown` the breaker **half-opens**:
//! exactly one trial request is admitted, and its outcome decides — success
//! closes the breaker, another backend fault re-opens it for a fresh
//! cooldown.  Non-backend failures (bad requests, quota exhaustion) never
//! trip it; they say nothing about backend health.
//!
//! The breaker is deliberately per-tenant: one tenant's chaos-injected
//! backend tripping must not reject its neighbours, whose backends are fine.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The classic three-state machine.
#[derive(Debug)]
enum Inner {
    /// Normal operation; counts consecutive backend failures.
    Closed { consecutive: u32 },
    /// Rejecting everything until the cooldown elapses.
    Open { since: Instant },
    /// Cooldown elapsed: one trial request in flight decides the outcome.
    HalfOpen,
}

/// A three-state circuit breaker: trip on repeated backend faults, reject
/// fast while open, half-open on a timer.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// Trip after `threshold` consecutive failures; half-open a trial
    /// request after `cooldown`.
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker { threshold, cooldown, inner: Mutex::new(Inner::Closed { consecutive: 0 }) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit or reject a request.  `Err(retry_after)` means the breaker is
    /// open and the caller should come back after the hinted wait.
    pub(crate) fn admit(&self) -> Result<(), Duration> {
        let mut g = self.lock();
        match *g {
            Inner::Closed { .. } | Inner::HalfOpen => Ok(()),
            Inner::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cooldown {
                    *g = Inner::HalfOpen;
                    Ok(())
                } else {
                    Err(self.cooldown - elapsed)
                }
            }
        }
    }

    /// Record a request that reached the backend and succeeded: closes the
    /// breaker and clears the failure streak.
    pub(crate) fn record_success(&self) {
        *self.lock() = Inner::Closed { consecutive: 0 };
    }

    /// Record a backend fault.  In `Closed`, extends the streak and trips at
    /// the threshold; in `HalfOpen`, the failed trial re-opens immediately.
    pub(crate) fn record_failure(&self) {
        let mut g = self.lock();
        match *g {
            Inner::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                *g = if consecutive >= self.threshold {
                    Inner::Open { since: Instant::now() }
                } else {
                    Inner::Closed { consecutive }
                };
            }
            Inner::HalfOpen => *g = Inner::Open { since: Instant::now() },
            Inner::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observable breaker state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum BreakerState {
        Closed,
        Open,
        HalfOpen,
    }

    impl CircuitBreaker {
        /// Current state, transitioning `Open → HalfOpen` if the cooldown has
        /// elapsed, as [`CircuitBreaker::admit`] does.
        fn state(&self) -> BreakerState {
            let mut g = self.lock();
            if let Inner::Open { since } = *g {
                if since.elapsed() >= self.cooldown {
                    *g = Inner::HalfOpen;
                }
            }
            match *g {
                Inner::Closed { .. } => BreakerState::Closed,
                Inner::Open { .. } => BreakerState::Open,
                Inner::HalfOpen => BreakerState::HalfOpen,
            }
        }
    }

    #[test]
    fn trips_after_threshold_rejects_fast_and_half_opens_on_timer() {
        let b = CircuitBreaker::new(3, Duration::from_millis(30));
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert!(b.admit().is_ok(), "below the threshold the breaker stays closed");
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "third consecutive failure trips");
        let retry_after = b.admit().expect_err("open breaker must reject");
        assert!(retry_after <= Duration::from_millis(30), "hint bounded by the cooldown");
        std::thread::sleep(Duration::from_millis(35));
        assert_eq!(b.state(), BreakerState::HalfOpen, "cooldown elapsed: trial time");
        assert!(b.admit().is_ok(), "half-open admits the trial request");
    }

    #[test]
    fn half_open_trial_outcome_decides() {
        let b = CircuitBreaker::new(1, Duration::from_millis(10));
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.admit().is_ok());
        // Failed trial: straight back to open, fresh cooldown.
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit().is_err());
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.admit().is_ok());
        // Successful trial: closed, and the streak is gone.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit().is_ok());
    }

    #[test]
    fn successes_reset_the_streak() {
        let b = CircuitBreaker::new(2, Duration::from_secs(1));
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak must reset on success");
    }
}
