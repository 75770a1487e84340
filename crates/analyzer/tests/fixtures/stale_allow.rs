//! Fixture for stale allowances: an `allow` covers its own line and the
//! next, and one that suppresses no finding there is itself reported.
//! Never compiled — lexed by the analyzer self-tests only.

// lint: allow(transport, reason=the baseline arm names the raw channel)
pub fn raw_arm<T: WireTransport>(transport: &mut T) -> bool {
    transport.ping()
}

// lint: allow(transport, reason=nothing below names a raw channel)
pub fn resilient_arm(x: u64) -> u64 {
    x
}

pub fn shifted(x: u64) -> u64 {
    x.checked_shl(3).unwrap_or(0) // lint: allow(arith, reason=no raw shift on this line)
}
