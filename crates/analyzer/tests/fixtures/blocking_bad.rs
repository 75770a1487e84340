//! Fixture: blocking / expensive work performed while a lock is held.
//!
//! Three shapes the `blocking` rule must catch: a pairing entry point and
//! a weighted `GT` fold each called under a bound guard, and a sleep
//! inside a closure running on a guard-extending temporary
//! (`self.inner.lock().map(|g| ...)` keeps the guard alive for the whole
//! chain, so the sleep happens inside the critical section even though
//! no guard binding is visible).

use std::sync::Mutex;
use std::time::Duration;

pub struct State {
    inner: Mutex<u64>,
}

fn miller_loop(x: u64) -> u64 {
    x.wrapping_mul(3)
}

fn weighted_product_gt(xs: &[u64], weights: &[u64]) -> u64 {
    xs.iter().zip(weights).map(|(x, r)| x.wrapping_mul(*r)).sum()
}

impl State {
    pub fn pair_under_lock(&self) -> u64 {
        let Ok(g) = self.inner.lock() else { return 0 };
        miller_loop(*g)
    }

    pub fn fold_under_lock(&self, weights: &[u64]) -> u64 {
        let Ok(g) = self.inner.lock() else { return 0 };
        weighted_product_gt(&[*g], weights)
    }

    pub fn sleep_on_temporary(&self) -> u64 {
        self.inner
            .lock()
            .map(|g| {
                std::thread::sleep(Duration::from_millis(1));
                *g
            })
            .unwrap_or(0)
    }
}
