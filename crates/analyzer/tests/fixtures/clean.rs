//! Clean fixture: exercises every rule's *happy* path — typed errors,
//! `.get(..)` indexing, a wiped secret with a redacted `Debug`, `ct_eq`
//! for tag comparison, a `SAFETY:`-commented unsafe block, and one
//! annotated allowance. Must produce zero findings under all rules.
//! Never compiled — lexed by the analyzer self-tests only.

pub enum DecodeError {
    Truncated,
}

pub fn take_u8(data: &[u8], pos: usize) -> Result<u8, DecodeError> {
    data.get(pos).copied().ok_or(DecodeError::Truncated)
}

// lint: secret
#[derive(Clone)]
pub struct SessionKey {
    bytes: [u8; 32],
}

impl Drop for SessionKey {
    fn drop(&mut self) {
        for b in self.bytes.iter_mut() {
            *b = 0;
        }
    }
}

impl core::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SessionKey").finish_non_exhaustive()
    }
}

fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    let mut acc = a.len() ^ b.len();
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= (x ^ y) as usize;
    }
    acc == 0
}

pub fn verify_tag(tag: &[u8], expected_tag: &[u8]) -> bool {
    ct_eq(tag, expected_tag)
}

pub fn read_raw(p: *const u8) -> u8 {
    // SAFETY: callers guarantee `p` is valid for reads (fixture example).
    unsafe { *p }
}

pub fn checked_invariant(v: &[u8]) -> u8 {
    // lint: allow(panic_path, reason=fixture demonstrating the escape hatch)
    v.first().copied().expect("caller keeps v non-empty")
}

pub fn first_reading(v: &[u8]) -> u8 {
    checked_invariant(v)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_freely() {
        let v = vec![1u8];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
