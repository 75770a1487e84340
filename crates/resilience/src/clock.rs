//! Deterministic virtual time.
//!
//! The resilience layer never reads a wall clock: backoff waits advance a
//! [`VirtualClock`] and the audit budget is measured on it, so a recovery
//! schedule is a pure function of its seeds and replays bit-for-bit.

/// A monotonically advancing logical clock, in milliseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: u64,
}

impl VirtualClock {
    /// A clock starting at `start_ms`.
    pub fn new(start_ms: u64) -> Self {
        Self { now_ms: start_ms }
    }

    /// The current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the clock by `ms` (saturating — the clock never wraps).
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new(5);
        assert_eq!(c.now_ms(), 5);
        c.advance(10);
        c.advance(0);
        assert_eq!(c.now_ms(), 15);
        c.advance(u64::MAX);
        assert_eq!(c.now_ms(), u64::MAX, "saturates instead of wrapping");
    }
}
