//! Signing, designation, verification and verifier-side simulation
//! (paper Sections V-B and VII-B).

use seccloud_hash::{HmacDrbg, Sha256};
use seccloud_pairing::{pairing, pairing_prepared, Fr, G1Affine, Gt, G1, G2};

use crate::keys::{SystemParams, UserKey, UserPublic, VerifierKey, VerifierPublic};

/// The raw identity-based signature `(U, V)` before designation.
///
/// Publicly verifiable against the master public key — which is exactly why
/// the protocol never transmits it: the user immediately transforms it with
/// [`designate`] and deletes `V`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IbsSignature {
    u: G1,
    v: G1,
}

impl IbsSignature {
    /// The commitment component `U = r·Q_ID`.
    pub fn u(&self) -> &G1 {
        &self.u
    }

    /// The proof component `V = (r + h)·sk_ID`.
    pub fn v(&self) -> &G1 {
        &self.v
    }

    /// Public verification `ê(V, P₂) = ê(U + h·Q_ID, s·P₂)` — the underlying
    /// Cha–Cheon check. Anyone holding the system parameters can run this,
    /// which is the capability the designated transform removes.
    pub fn verify_public(
        &self,
        params: &SystemParams,
        signer: &UserPublic,
        message: &[u8],
    ) -> bool {
        let h = challenge_hash(&self.u.to_affine_vartime(), message);
        let lhs = pairing(&self.v.to_affine(), &G2::generator().to_affine());
        let target = self.u.add(&signer.q().mul_fr(&h));
        let rhs = pairing(&target.to_affine(), &params.p_pub_g2().to_affine());
        lhs == rhs
    }
}

/// A designated-verifier signature `(U, Σ)` with `Σ = ê(V, Q_V)`.
///
/// Only the named verifier (holding `sk_V = s·Q_V`) can check it, and the
/// verifier itself can forge indistinguishable ones ([`simulate`]), so the
/// signature convinces no third party — the paper's privacy-cheating
/// discouragement (Definition 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DesignatedSignature {
    u: G1,
    sigma: Gt,
}

impl DesignatedSignature {
    /// The commitment component `U`.
    pub fn u(&self) -> &G1 {
        &self.u
    }

    /// The designated proof `Σ ∈ GT`.
    pub fn sigma(&self) -> &Gt {
        &self.sigma
    }

    /// Constructs from raw parts (used by serialization layers and the
    /// simulator; verification decides validity).
    pub fn from_parts(u: G1, sigma: Gt) -> Self {
        Self { u, sigma }
    }

    /// Designated verification (paper eq. 5 / eq. 7):
    /// `Σ = ê(U + H2(U‖m)·Q_ID, sk_V)`.
    ///
    /// Pairs against the verifier's cached [`seccloud_pairing::G2Prepared`]
    /// key, so repeated verifications skip the twist arithmetic entirely.
    /// `U` and `U + h·Q_ID` are public, so both affine conversions take the
    /// variable-time path (free for a decoded `U`, whose `Z` is 1).
    pub fn verify(&self, verifier: &VerifierKey, signer: &UserPublic, message: &[u8]) -> bool {
        let h = challenge_hash(&self.u.to_affine_vartime(), message);
        let target = self.u.add(&signer.q().mul_fr(&h));
        pairing_prepared(&target.to_affine_vartime(), &verifier.sk_prepared()).ct_eq(&self.sigma)
    }

    /// What a *non-designated* third party can conclude from the signature:
    /// nothing. This helper runs the only check available without `sk_V` —
    /// pairing against the public `Q_V` — and documents that it never
    /// authenticates (it compares against `ê(·, Q_V)` which differs from `Σ`
    /// by the unknown master secret exponent).
    pub fn third_party_check_is_useless(
        &self,
        verifier: &VerifierPublic,
        signer: &UserPublic,
        message: &[u8],
    ) -> bool {
        let h = challenge_hash(&self.u.to_affine_vartime(), message);
        let target = self.u.add(&signer.q().mul_fr(&h));
        // A third party can compute this value…
        let guess = pairing_prepared(&target.to_affine(), &verifier.q_prepared());
        // …but it never equals Σ (unless s = 1): there is no public
        // equation linking Σ to the message.
        guess == self.sigma
    }
}

/// The challenge hash `h = H2(U ‖ m) ∈ Z_q*` (paper Section V-B-1).
///
/// Takes `U` affine so each caller picks the conversion its `U` needs:
/// the constant-time one for a fresh nonce commitment, the variable-time
/// one for a received signature.
pub(crate) fn challenge_hash(ua: &G1Affine, message: &[u8]) -> Fr {
    let mut input = Vec::with_capacity(64 + message.len());
    if ua.is_identity() {
        input.extend_from_slice(&[0u8; 64]);
    } else {
        input.extend_from_slice(&ua.x().to_be_bytes());
        input.extend_from_slice(&ua.y().to_be_bytes());
    }
    input.extend_from_slice(message);
    Fr::hash_nonzero(&input)
}

/// Signs a message block: `U = r·Q_ID`, `V = (r + H2(U‖m))·sk_ID`, with the
/// nonce `r` derived deterministically from the secret key, the message and
/// the `nonce` bytes (RFC-6979 style — no RNG misuse possible).
///
/// Keying the derivation with `sk_ID` is what keeps `r` secret: anyone who
/// can recompute `r` from public inputs takes one designated signature
/// `(U, Σ)` and recovers `ê(Q_ID, sk_V) = Σ^{1/(r+h)}`, which forges
/// designated signatures on any message. Signatures stay reproducible per
/// `(key, message, nonce)`.
pub fn sign(user: &UserKey, message: &[u8], nonce: &[u8]) -> IbsSignature {
    let sk = user.sk();
    let mut seed = [
        b"seccloud/ibs-nonce".as_slice(),
        &sk.x().to_be_bytes(),
        &sk.y().to_be_bytes(),
        &Sha256::digest(message),
        nonce,
    ]
    .concat();
    let mut drbg = HmacDrbg::new(&seed);
    seccloud_hash::wipe(&mut seed);
    let r = Fr::random_nonzero(&mut drbg);
    // Constant-time ladders: leaking the nonce `r` through the wNAF digit
    // pattern leaks `sk` via `V = (r + h)·sk`.
    let u = user.public().q().mul_fr_ct(&r);
    let h = challenge_hash(&u.to_affine(), message);
    let v = G1::from(*sk).mul_fr_ct(&r.add(&h));
    IbsSignature { u, v }
}

/// Transforms a raw signature into its designated form for `verifier`:
/// `Σ = ê(V, Q_V)` (paper Section V-B-1, "the user then transforms the
/// signature through the idea of designated signature").
pub fn designate(sig: &IbsSignature, verifier: &VerifierPublic) -> DesignatedSignature {
    DesignatedSignature {
        u: sig.u,
        sigma: pairing_prepared(&sig.v.to_affine(), &verifier.q_prepared()),
    }
}

/// Verifier-side simulation: the designated verifier fabricates a signature
/// on any `(signer, message)` pair that passes its own verification — the
/// non-transferability property (paper Section IV-B / VII-B: "the verifier
/// could take advantage of its private key to generate a fake signature").
pub fn simulate(
    verifier: &VerifierKey,
    signer: &UserPublic,
    message: &[u8],
    drbg: &mut HmacDrbg,
) -> DesignatedSignature {
    let r = Fr::random_nonzero(drbg);
    let u = signer.q().mul_fr_ct(&r);
    let h = challenge_hash(&u.to_affine(), message);
    let target = u.add(&signer.q().mul_fr(&h));
    let sigma = pairing_prepared(&target.to_affine(), &verifier.sk_prepared());
    DesignatedSignature { u, sigma }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKey;

    fn setup() -> (MasterKey, UserKey, VerifierKey, VerifierKey) {
        let m = MasterKey::from_seed(b"ibs-tests");
        let user = m.extract_user("alice@example.com");
        let cs = m.extract_verifier("cs-01");
        let da = m.extract_verifier("da-gov");
        (m, user, cs, da)
    }

    #[test]
    fn raw_signature_verifies_publicly() {
        let (m, user, _, _) = setup();
        let sig = sign(&user, b"block-0", b"n0");
        assert!(sig.verify_public(m.params(), user.public(), b"block-0"));
        assert!(!sig.verify_public(m.params(), user.public(), b"block-1"));
    }

    #[test]
    fn raw_signature_rejects_wrong_signer_or_params() {
        let (m, user, _, _) = setup();
        let sig = sign(&user, b"block-0", b"n0");
        let mallory = UserPublic::from_identity("mallory");
        assert!(!sig.verify_public(m.params(), &mallory, b"block-0"));
        let other = MasterKey::from_seed(b"other-system");
        assert!(!sig.verify_public(other.params(), user.public(), b"block-0"));
    }

    #[test]
    fn designated_signature_verifies_only_for_the_designee() {
        let (_, user, cs, da) = setup();
        let raw = sign(&user, b"m", b"n");
        let for_cs = designate(&raw, cs.public());
        assert!(for_cs.verify(&cs, user.public(), b"m"));
        // The DA cannot verify a CS-designated signature with its own key.
        assert!(!for_cs.verify(&da, user.public(), b"m"));
        // A separate designation for the DA verifies for the DA.
        let for_da = designate(&raw, da.public());
        assert!(for_da.verify(&da, user.public(), b"m"));
    }

    #[test]
    fn designated_signature_binds_message_and_signer() {
        let (_, user, cs, _) = setup();
        let d = designate(&sign(&user, b"m", b"n"), cs.public());
        assert!(!d.verify(&cs, user.public(), b"m'"));
        assert!(!d.verify(&cs, &UserPublic::from_identity("eve"), b"m"));
    }

    #[test]
    fn third_party_learns_nothing() {
        let (_, user, cs, _) = setup();
        let d = designate(&sign(&user, b"secret-data", b"n"), cs.public());
        // The only public computation never matches.
        assert!(!d.third_party_check_is_useless(cs.public(), user.public(), b"secret-data"));
    }

    #[test]
    fn simulated_signatures_verify_like_real_ones() {
        let (_, user, cs, _) = setup();
        let mut drbg = HmacDrbg::new(b"sim");
        let fake = simulate(&cs, user.public(), b"never signed this", &mut drbg);
        // The verifier's own check accepts the forgery…
        assert!(fake.verify(&cs, user.public(), b"never signed this"));
        // …which is precisely why a leaked designated signature is
        // worthless as evidence (privacy-cheating discouragement).
    }

    #[test]
    fn simulated_and_real_signatures_have_identical_shape() {
        let (_, user, cs, _) = setup();
        let real = designate(&sign(&user, b"m", b"n"), cs.public());
        let mut drbg = HmacDrbg::new(b"sim2");
        let fake = simulate(&cs, user.public(), b"m", &mut drbg);
        // Same structural form; both verify; a distinguisher has nothing
        // deterministic to latch onto.
        assert!(real.verify(&cs, user.public(), b"m"));
        assert!(fake.verify(&cs, user.public(), b"m"));
        assert_ne!(real, fake, "distinct randomness, distinct transcripts");
    }

    #[test]
    fn nonce_separation_prevents_identical_signatures() {
        let (_, user, _, _) = setup();
        let s1 = sign(&user, b"m", b"n1");
        let s2 = sign(&user, b"m", b"n2");
        assert_ne!(s1, s2);
        // Deterministic per (key, message, nonce):
        assert_eq!(sign(&user, b"m", b"n1"), s1);
    }

    #[test]
    fn nonce_depends_on_the_secret_key() {
        // Same identity, message and nonce bytes under two master keys: a
        // nonce derived from public inputs alone would give the same
        // `U = r·Q_ID` for both.
        let a = MasterKey::from_seed(b"system-a").extract_user("alice");
        let b = MasterKey::from_seed(b"system-b").extract_user("alice");
        assert_eq!(a.public().q(), b.public().q());
        assert_ne!(sign(&a, b"m", b"n").u(), sign(&b, b"m", b"n").u());
    }

    #[test]
    fn tampered_u_component_fails() {
        let (_, user, cs, _) = setup();
        let raw = sign(&user, b"m", b"n");
        let d = designate(&raw, cs.public());
        let tampered = DesignatedSignature::from_parts(d.u().double(), *d.sigma());
        assert!(!tampered.verify(&cs, user.public(), b"m"));
    }

    #[test]
    fn signature_over_empty_and_large_messages() {
        let (_, user, cs, _) = setup();
        for msg in [Vec::new(), vec![0u8; 10_000]] {
            let d = designate(&sign(&user, &msg, b"n"), cs.public());
            assert!(d.verify(&cs, user.public(), &msg));
        }
    }
}
