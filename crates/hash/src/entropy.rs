//! Best-effort process entropy for verifier-side randomness.
//!
//! Small-exponent batch verification needs weights the *prover cannot
//! predict* — they must be drawn by the verifier after the batch is
//! submitted, so a deterministic seed (or one an adversary can replay)
//! would let coordinated corruptions be ground against the weights.
//!
//! [`entropy_seed`] gathers what the platform offers without any
//! dependency or `unsafe`: the OS CSPRNG via `/dev/urandom` where
//! readable, mixed with the wall clock and a process-local counter so
//! repeated calls never collide even if the OS source is unavailable
//! (then the seed is merely unpredictable to *remote* parties, which is
//! the batch-verification threat model). Everything funnels through
//! SHA-256, so any contributing entropy survives into the output.
//!
//! Tests that need reproducibility never call this — they seed
//! [`crate::HmacDrbg`] directly from a fixed test seed.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::sha256::Sha256;

/// Process-local uniqueness counter, consumed once per [`entropy_seed`]
/// call. Module-scoped (rather than function-local) so tests can assert
/// it advances exactly once per call under concurrency.
static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A 32-byte seed mixing the OS CSPRNG (when readable), the wall clock,
/// and a process-unique counter. Never blocks, never panics; each call
/// returns a distinct value.
pub fn entropy_seed() -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(b"seccloud-entropy-v1");

    let mut os = [0u8; 32];
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        if f.read_exact(&mut os).is_ok() {
            hasher.update(&os);
        }
    }
    crate::wipe(&mut os);

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0u128, |d| d.as_nanos());
    hasher.update(&nanos.to_be_bytes());
    // The counter is the only uniqueness guarantee when OS entropy and the
    // clock are both unavailable, so concurrent seeders must observe a
    // single total order of increments.
    // lint: ordering(counter is the sole uniqueness guarantee; increments need a single total order)
    hasher.update(&COUNTER.fetch_add(1, Ordering::SeqCst).to_be_bytes());
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Keep this the only test in the crate that calls `entropy_seed`: the
    // exact-count assertion below reads the process-wide `COUNTER`, so any
    // other test seeding concurrently in the same binary would race it.
    #[test]
    fn concurrent_seeders_stay_distinct_and_advance_the_counter() {
        const THREADS: usize = 4;
        const CALLS: usize = 16;
        // lint: ordering(SeqCst: the assertion below compares against concurrent SeqCst increments, so the snapshots must sit in the same total order)
        let before = COUNTER.load(Ordering::SeqCst);
        let mut seeds: Vec<[u8; 32]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| scope.spawn(|| (0..CALLS).map(|_| entropy_seed()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("seeder thread panicked"))
                .collect()
        });
        // lint: ordering(SeqCst: the assertion below compares against concurrent SeqCst increments, so the snapshots must sit in the same total order)
        let after = COUNTER.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            (THREADS * CALLS) as u64,
            "the counter must advance exactly once per call, never skip or repeat"
        );
        for s in &seeds {
            assert_ne!(*s, [0u8; 32], "an all-zero seed is vanishingly unlikely");
        }
        // Even if OS entropy were unavailable and the clock frozen, the
        // counter alone must keep every seed distinct — back-to-back calls
        // on one thread as well as concurrent calls across threads.
        seeds.sort_unstable();
        let total = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "concurrent seeds must never collide");
    }
}
