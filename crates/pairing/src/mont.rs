//! Montgomery-form prime fields over 4×64-bit moduli.
//!
//! The [`mont_field!`] macro instantiates a complete prime-field type from a
//! modulus given in hex. All Montgomery constants (`R² mod m`, `-m⁻¹ mod
//! 2⁶⁴`) are *derived* in `const fn`s rather than transcribed, eliminating a
//! whole class of constant-typo bugs.

/// Parses a 64-hex-digit string into 4 little-endian limbs at compile time.
///
/// # Panics
///
/// Panics (at compile time when used in a `const`) if the string is not
/// exactly 64 hexadecimal digits.
pub const fn parse_hex_limbs(s: &str) -> [u64; 4] {
    let bytes = s.as_bytes();
    assert!(bytes.len() == 64, "modulus hex must be 64 digits");
    let mut limbs = [0u64; 4];
    let mut i = 0;
    while i < 64 {
        let c = bytes[63 - i];
        let d = match c {
            b'0'..=b'9' => (c - b'0') as u64,
            b'a'..=b'f' => (c - b'a' + 10) as u64,
            b'A'..=b'F' => (c - b'A' + 10) as u64,
            _ => panic!("invalid hex digit in modulus"),
        };
        limbs[i / 16] |= d << (4 * (i % 16));
        i += 1;
    }
    limbs
}

/// Computes `-m[0]⁻¹ mod 2⁶⁴` for odd `m[0]` by Newton iteration.
pub const fn mont_neg_inv(m0: u64) -> u64 {
    // x ← x(2 − m0·x) doubles the number of correct low bits each round.
    let mut x: u64 = 1;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
        i += 1;
    }
    x.wrapping_neg()
}

/// Computes the full 512-bit square `m²` of a 4-limb modulus at compile
/// time. The lazy-reduction `Fp2` kernels add `m²` to keep `a₀b₀ − a₁b₁`
/// non-negative before a single Montgomery reduction (see `arch::generic`).
pub const fn mont_m2(m: [u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut i = 0;
    while i < 4 {
        let mut carry = 0u128;
        let mut j = 0;
        while j < 4 {
            let acc = (t[i + j] as u128) + (m[i] as u128) * (m[j] as u128) + carry;
            t[i + j] = acc as u64;
            carry = acc >> 64;
            j += 1;
        }
        t[i + 4] = carry as u64;
        i += 1;
    }
    t
}

/// Halves `x` modulo an odd `m` (both `< 2²⁵⁵`): `x/2` when even, else
/// `(x + m)/2` — the carry out of the addition cannot occur because
/// `x < m < 2²⁵⁵`.
fn half_mod(x: &seccloud_bigint::U256, m: &seccloud_bigint::U256) -> seccloud_bigint::U256 {
    if x.is_odd() {
        x.wrapping_add(m).shr(1)
    } else {
        x.shr(1)
    }
}

/// `a − b mod m` for operands already reduced below `m`.
fn sub_mod_u256(
    a: &seccloud_bigint::U256,
    b: &seccloud_bigint::U256,
    m: &seccloud_bigint::U256,
) -> seccloud_bigint::U256 {
    let (d, borrow) = a.overflowing_sub(b);
    if borrow {
        d.wrapping_add(m)
    } else {
        d
    }
}

/// Inverse of `a` modulo an odd `m < 2²⁵⁵` via binary extended Euclid.
///
/// Allocation-free and ~an order of magnitude faster than a Fermat ladder,
/// but **variable-time** in `a` — callers must restrict it to public
/// operands. Returns `None` when `a` is zero or shares a factor with `m`
/// (never for prime `m` and `0 < a < m`).
pub fn modinv_odd(
    a: &seccloud_bigint::U256,
    m: &seccloud_bigint::U256,
) -> Option<seccloud_bigint::U256> {
    use seccloud_bigint::U256;
    if a.is_zero() || !m.is_odd() {
        return None;
    }
    // Invariants: u ≡ x1·a and v ≡ x2·a (mod m); x1, x2 < m.
    let mut u = *a;
    let mut v = *m;
    let mut x1 = U256::ONE;
    let mut x2 = U256::ZERO;
    while u != U256::ONE && v != U256::ONE {
        while !u.is_odd() {
            u = u.shr(1);
            x1 = half_mod(&x1, m);
        }
        while !v.is_odd() {
            v = v.shr(1);
            x2 = half_mod(&x2, m);
        }
        // Both odd now; subtract the smaller to strip more factors of two.
        if u >= v {
            u = u.wrapping_sub(&v);
            x1 = sub_mod_u256(&x1, &x2, m);
        } else {
            v = v.wrapping_sub(&u);
            x2 = sub_mod_u256(&x2, &x1, m);
        }
        if u.is_zero() || v.is_zero() {
            return None; // gcd(a, m) = v (resp. u) ≠ 1
        }
    }
    Some(if u == U256::ONE { x1 } else { x2 })
}

/// Computes `2⁵¹² mod m` (the Montgomery `R²`) for a 4-limb modulus with
/// `2²⁵³ ≤ m < 2²⁵⁵` by 512 modular doublings.
pub const fn mont_r2(m: [u64; 4]) -> [u64; 4] {
    const fn geq(a: [u64; 4], b: [u64; 4]) -> bool {
        let mut i = 3usize;
        loop {
            if a[i] > b[i] {
                return true;
            }
            if a[i] < b[i] {
                return false;
            }
            if i == 0 {
                return true;
            }
            i -= 1;
        }
    }
    const fn sub(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        let mut borrow = 0u128;
        let mut i = 0;
        while i < 4 {
            let t = (a[i] as u128)
                .wrapping_sub(b[i] as u128)
                .wrapping_sub(borrow);
            out[i] = t as u64;
            borrow = (t >> 64) & 1;
            i += 1;
        }
        out
    }
    let mut v = [1u64, 0, 0, 0];
    let mut i = 0;
    while i < 512 {
        // v ← 2v (no carry out: v < m < 2²⁵⁵ so 2v < 2²⁵⁶)
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            out[j] = (v[j] << 1) | carry;
            carry = v[j] >> 63;
            j += 1;
        }
        v = out;
        if carry == 1 || geq(v, m) {
            // When carry==1 the true value is v + 2²⁵⁶; since m > 2²⁵³ and
            // the pre-double value was < m, v + 2²⁵⁶ < 2m, one subtract wraps
            // correctly in 256-bit arithmetic.
            v = sub(v, m);
        }
        i += 1;
    }
    v
}

/// Defines a Montgomery prime-field type.
///
/// ```ignore
/// mont_field!(Fp, "30644e72...fd47", "BN254 base field");
/// ```
#[macro_export]
macro_rules! mont_field {
    ($name:ident, $modulus_hex:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// Elements are stored in Montgomery form (`x·R mod m`, `R = 2²⁵⁶`);
        /// all arithmetic is constant-width 4-limb CIOS.
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            repr: [u64; 4],
        }

        impl $name {
            /// The field modulus as little-endian limbs.
            pub const MODULUS: [u64; 4] = $crate::mont::parse_hex_limbs($modulus_hex);
            /// The Montgomery constant `-m⁻¹ mod 2⁶⁴` (`arch` plumbing).
            #[doc(hidden)]
            pub const NEG_INV: u64 = $crate::mont::mont_neg_inv(Self::MODULUS[0]);
            /// The full 512-bit `m²` (lazy-reduction `arch` plumbing).
            #[doc(hidden)]
            pub const M2: [u64; 8] = $crate::mont::mont_m2(Self::MODULUS);
            const R2: [u64; 4] = $crate::mont::mont_r2(Self::MODULUS);

            /// The modulus as a [`seccloud_bigint::U256`].
            pub fn modulus() -> ::seccloud_bigint::U256 {
                ::seccloud_bigint::U256::from_limbs(Self::MODULUS)
            }

            /// The zero element.
            pub const fn zero() -> Self {
                Self { repr: [0; 4] }
            }

            /// The one element (Montgomery form of 1 is `R mod m`, derived).
            pub fn one() -> Self {
                Self::from_u64(1)
            }

            /// Converts a small integer into the field.
            pub fn from_u64(v: u64) -> Self {
                Self::from_u256(&::seccloud_bigint::U256::from_u64(v))
            }

            /// Converts a 256-bit integer into the field, reducing mod `m`.
            pub fn from_u256(v: &::seccloud_bigint::U256) -> Self {
                let mut raw = *v;
                let m = Self::modulus();
                while raw >= m {
                    raw = raw.wrapping_sub(&m);
                }
                // To Montgomery form: raw · R = montmul(raw, R²).
                Self {
                    repr: Self::mont_mul(raw.limbs(), &Self::R2),
                }
            }

            /// Converts 64 wide hash bytes into a near-uniform field element
            /// (big-endian interpretation reduced mod `m`).
            ///
            /// # Panics
            ///
            /// Panics if `bytes.len() != 64`.
            pub fn from_bytes_wide(bytes: &[u8]) -> Self {
                assert_eq!(bytes.len(), 64, "wide reduction expects 64 bytes");
                let hi =
                    ::seccloud_bigint::U256::from_be_bytes(&bytes[..32]).expect("32 bytes fit");
                let lo =
                    ::seccloud_bigint::U256::from_be_bytes(&bytes[32..]).expect("32 bytes fit");
                // hi·2²⁵⁶ + lo = hi·R + lo; the Montgomery form of hi·R is
                // montmul(hi·R, R²)·R⁻¹… simpler: lift both and use the field:
                // result = from(hi) · 2²⁵⁶_as_element + from(lo), where the
                // element 2²⁵⁶ mod m has Montgomery repr R² (since mont(x) =
                // x·R and x = R means repr R²·R·R⁻¹ = R²).
                let two_256 = Self { repr: Self::R2 };
                Self::from_u256(&hi)
                    .mul(&two_256)
                    .add(&Self::from_u256(&lo))
            }

            /// Returns the canonical (non-Montgomery) representation.
            pub fn to_u256(&self) -> ::seccloud_bigint::U256 {
                let one = [1u64, 0, 0, 0];
                ::seccloud_bigint::U256::from_limbs(Self::mont_mul(&self.repr, &one))
            }

            /// Serializes to 32 canonical big-endian bytes.
            pub fn to_be_bytes(&self) -> [u8; 32] {
                let v = self.to_u256().to_be_bytes();
                v.try_into().expect("U256 is 32 bytes")
            }

            /// Parses 32 canonical big-endian bytes; `None` if ≥ modulus.
            pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
                let v = ::seccloud_bigint::U256::from_be_bytes(bytes)?;
                if v >= Self::modulus() {
                    return None;
                }
                Some(Self::from_u256(&v))
            }

            /// Whether the element is zero.
            pub fn is_zero(&self) -> bool {
                self.repr == [0; 4]
            }

            /// Whether the canonical representation is odd (used to pick a
            /// deterministic square root / point sign).
            pub fn is_odd(&self) -> bool {
                self.to_u256().is_odd()
            }

            /// Field addition.
            #[inline]
            pub fn add(&self, rhs: &Self) -> Self {
                Self {
                    repr: $crate::arch::add_mod(&self.repr, &rhs.repr, &Self::MODULUS),
                }
            }

            /// Field subtraction.
            #[inline]
            pub fn sub(&self, rhs: &Self) -> Self {
                Self {
                    repr: $crate::arch::sub_mod(&self.repr, &rhs.repr, &Self::MODULUS),
                }
            }

            /// Additive inverse.
            #[inline]
            pub fn neg(&self) -> Self {
                Self {
                    repr: $crate::arch::neg_mod(&self.repr, &Self::MODULUS),
                }
            }

            /// Doubling.
            #[inline]
            pub fn double(&self) -> Self {
                self.add(self)
            }

            /// Field multiplication (CIOS Montgomery).
            #[inline]
            pub fn mul(&self, rhs: &Self) -> Self {
                Self {
                    repr: Self::mont_mul(&self.repr, &rhs.repr),
                }
            }

            /// Squaring.
            #[inline]
            pub fn square(&self) -> Self {
                self.mul(self)
            }

            /// Exponentiation by little-endian limbs.
            pub fn pow(&self, exp: &[u64]) -> Self {
                <Self as $crate::traits::FieldElement>::pow_limbs(self, exp)
            }

            /// Multiplicative inverse via Fermat (`a^(m-2)`); `None` for 0.
            ///
            /// Fixed sequence of Montgomery multiplications — use this for
            /// secret operands. For public data (curve points in pairing
            /// computations) prefer [`Self::inverse_vartime`].
            pub fn inverse(&self) -> Option<Self> {
                if self.is_zero() {
                    return None;
                }
                let exp = Self::modulus().wrapping_sub(&::seccloud_bigint::U256::from_u64(2));
                Some(self.pow(exp.limbs()))
            }

            /// Multiplicative inverse via binary extended Euclid
            /// ([`crate::mont::modinv_odd`]); `None` for 0. Several times
            /// faster than the Fermat ladder but **variable-time** in the
            /// operand — only for *public* values (Miller-loop line slopes,
            /// affine conversions of public points), never key- or
            /// scalar-dependent data.
            pub fn inverse_vartime(&self) -> Option<Self> {
                // Operating directly on the Montgomery residue aR yields
                // (aR)⁻¹ = a⁻¹R⁻¹; two R² Montgomery factors lift it back
                // to the Montgomery image a⁻¹R.
                let raw = ::seccloud_bigint::U256::from_limbs(self.repr);
                let inv = $crate::mont::modinv_odd(&raw, &Self::modulus())?;
                let t = Self::mont_mul(inv.limbs(), &Self::R2);
                Some(Self {
                    repr: Self::mont_mul(&t, &Self::R2),
                })
            }

            #[inline]
            fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
                $crate::arch::mont_mul(a, b, &Self::MODULUS, Self::NEG_INV)
            }

            /// The raw Montgomery-form limbs (`arch` plumbing; always the
            /// canonical representative `< m`).
            #[doc(hidden)]
            #[inline]
            pub fn repr(&self) -> &[u64; 4] {
                &self.repr
            }

            /// Rebuilds an element from raw Montgomery-form limbs. The
            /// caller must pass a canonical (`< m`) representative, as
            /// produced by every `arch` function.
            #[doc(hidden)]
            #[inline]
            pub fn from_repr_unchecked(repr: [u64; 4]) -> Self {
                Self { repr }
            }

            /// Constant-time select: `a` when `choice == 0`, `b` when
            /// `choice == 1`, via masked limb merges — no branch, no
            /// data-dependent load. `choice` **must** be 0 or 1.
            #[inline]
            pub fn ct_select(a: &Self, b: &Self, choice: u64) -> Self {
                let mask = choice.wrapping_neg();
                let mut repr = [0u64; 4];
                for i in 0..4 {
                    repr[i] = (a.repr[i] & !mask) | (b.repr[i] & mask);
                }
                Self { repr }
            }

            /// Constant-time zero test: `1` when zero, `0` otherwise.
            /// (Montgomery form maps 0 to 0, so a limb OR-fold suffices.)
            #[inline]
            pub fn ct_is_zero(&self) -> u64 {
                let d = self.repr[0] | self.repr[1] | self.repr[2] | self.repr[3];
                (!(d | d.wrapping_neg())) >> 63
            }
        }

        impl $crate::traits::FieldElement for $name {
            fn zero() -> Self {
                Self::zero()
            }
            fn one() -> Self {
                Self::one()
            }
            fn is_zero(&self) -> bool {
                Self::is_zero(self)
            }
            fn add(&self, rhs: &Self) -> Self {
                Self::add(self, rhs)
            }
            fn sub(&self, rhs: &Self) -> Self {
                Self::sub(self, rhs)
            }
            fn neg(&self) -> Self {
                Self::neg(self)
            }
            fn mul(&self, rhs: &Self) -> Self {
                Self::mul(self, rhs)
            }
            fn square(&self) -> Self {
                Self::square(self)
            }
            fn double(&self) -> Self {
                Self::double(self)
            }
            fn inverse(&self) -> Option<Self> {
                Self::inverse(self)
            }
            fn inverse_vartime(&self) -> Option<Self> {
                Self::inverse_vartime(self)
            }
            fn ct_select(a: &Self, b: &Self, choice: u64) -> Self {
                Self::ct_select(a, b, choice)
            }
            fn ct_is_zero(&self) -> u64 {
                Self::ct_is_zero(self)
            }
        }

        impl ::core::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                write!(f, "{}({:?})", stringify!($name), self.to_u256())
            }
        }

        impl ::core::fmt::Display for $name {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                write!(f, "{:?}", self.to_u256())
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::zero()
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self::from_u64(v)
            }
        }

        impl ::core::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name::add(&self, &rhs)
            }
        }
        impl ::core::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name::sub(&self, &rhs)
            }
        }
        impl ::core::ops::Mul for $name {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name::mul(&self, &rhs)
            }
        }
        impl ::core::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name::neg(&self)
            }
        }
    };
}
