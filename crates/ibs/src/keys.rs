//! System initialization and identity key extraction (paper Section V-A).

use std::sync::{Arc, Mutex, MutexGuard};

use seccloud_hash::HmacDrbg;
use seccloud_pairing::{
    hash_to_g1, hash_to_g2, pairing_prepared, Fr, G1Affine, G2Affine, G2Prepared, Gt, GtPowTable,
    G1, G2,
};

/// Public system parameters published by the SIO after setup.
///
/// `params = (G1, G2, q, ê, P, P_pub, H, H1, H2)` in the paper; the groups,
/// pairing and hash functions are fixed by this workspace, so only the
/// master public keys vary per deployment. Both `s·P₁` and `s·P₂` are
/// published: the former is used by the ECDSA-style comparisons, the latter
/// by public verification of the *undesignated* signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemParams {
    p_pub_g1: G1,
    p_pub_g2: G2,
}

impl SystemParams {
    /// The master public key `s·P₁ ∈ G1`.
    pub fn p_pub_g1(&self) -> &G1 {
        &self.p_pub_g1
    }

    /// The master public key `s·P₂ ∈ G2`.
    pub fn p_pub_g2(&self) -> &G2 {
        &self.p_pub_g2
    }
}

/// The SIO's master secret `s` plus the derived public parameters.
///
/// In deployment the SIO is "the government or a trusted third party"
/// (paper footnote 1); registration is off-line.
// lint: secret
#[derive(Clone)]
pub struct MasterKey {
    s: Fr,
    params: SystemParams,
}

impl Drop for MasterKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl std::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the master secret.
        f.debug_struct("MasterKey")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl MasterKey {
    /// Zeros the master scalar; called from `Drop`. The compromise of `s`
    /// breaks every identity in the system (paper Section V-A), so it must
    /// not survive in freed memory.
    fn wipe(&mut self) {
        seccloud_hash::wipe_copy(&mut self.s, Fr::from_u64(0));
    }

    /// Generates a master key deterministically from seed bytes.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg::new(seed);
        Self::from_drbg(&mut drbg)
    }

    /// Generates a master key from an existing DRBG stream.
    pub fn from_drbg(drbg: &mut HmacDrbg) -> Self {
        let s = Fr::random_nonzero(drbg);
        Self::from_scalar(s)
    }

    /// Wraps an explicit master scalar (test hook; prefer
    /// [`MasterKey::from_seed`]).
    pub fn from_scalar(s: Fr) -> Self {
        let params = SystemParams {
            p_pub_g1: G1::generator().mul_fr_ct(&s),
            p_pub_g2: G2::generator().mul_fr_ct(&s),
        };
        Self { s, params }
    }

    /// The public system parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Extracts a *user* key: `Q_ID = H1(ID) ∈ G1`, `sk_ID = s·Q_ID`
    /// (paper eq. 4), stored affine — converted once here, with the
    /// constant-time inversion, instead of on every signature.
    pub fn extract_user(&self, identity: &str) -> UserKey {
        let q = hash_to_g1(identity.as_bytes());
        UserKey {
            public: UserPublic {
                identity: identity.to_owned(),
                q,
            },
            sk: q.mul_fr_ct(&self.s).to_affine(),
            designation_tables: Arc::default(),
        }
    }

    /// Extracts a *verifier* key (cloud server or designated agency):
    /// `Q_V = H1(ID) ∈ G2`, `sk_V = s·Q_V`, stored affine so that every
    /// prepared-key lookup is a cache probe with no inversion.
    pub fn extract_verifier(&self, identity: &str) -> VerifierKey {
        let q = hash_to_g2(identity.as_bytes());
        VerifierKey {
            public: VerifierPublic {
                identity: identity.to_owned(),
                q,
            },
            sk: q.mul_fr_ct(&self.s).to_affine(),
        }
    }
}

/// A user's public identity data: the identity string and `Q_ID = H1(ID)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserPublic {
    identity: String,
    q: G1,
}

impl UserPublic {
    /// Recomputes the public data for an identity (anyone can do this —
    /// that is the point of identity-based cryptography).
    pub fn from_identity(identity: &str) -> Self {
        Self {
            identity: identity.to_owned(),
            q: hash_to_g1(identity.as_bytes()),
        }
    }

    /// The identity string.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The identity public key `Q_ID ∈ G1`.
    pub fn q(&self) -> &G1 {
        &self.q
    }
}

/// Each verifier's `Q_V` with the fixed-base table of the Sakai–Ohgishi–
/// Kasahara key `K_V = ê(sk_ID, Q_V)` the user designates to it with.
type DesignationTables = Vec<(G2, Arc<GtPowTable>)>;

/// A user's extracted key pair.
///
/// Clones share one set of designation tables: the table of each verifier
/// this key has designated to, built on first use and kept for the key's
/// lifetime (see [`crate::sign_designated`]).
// lint: secret
#[derive(Clone)]
pub struct UserKey {
    public: UserPublic,
    sk: G1Affine,
    designation_tables: Arc<Mutex<DesignationTables>>,
}

impl Drop for UserKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl std::fmt::Debug for UserKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserKey")
            .field("identity", &self.public.identity)
            .finish_non_exhaustive()
    }
}

impl UserKey {
    /// Zeros the identity secret key and drops this key's handle on its
    /// designation tables (each table zeroizes its entries when the last
    /// clone holding it lets go); called from `Drop`.
    fn wipe(&mut self) {
        seccloud_hash::wipe_copy(&mut self.sk, G1Affine::identity());
        self.designation_tables = Arc::default();
    }

    /// The public part.
    pub fn public(&self) -> &UserPublic {
        &self.public
    }

    /// The identity string.
    pub fn identity(&self) -> &str {
        &self.public.identity
    }

    /// The secret key `sk_ID = s·Q_ID ∈ G1`, affine (crate-internal).
    pub(crate) fn sk(&self) -> &G1Affine {
        &self.sk
    }

    /// The fixed-base table of `K_V = ê(sk_ID, Q_V)` for `verifier`. The
    /// first call for a `Q_V` pays one prepared pairing (against `Q_V`'s
    /// public preparation in [`seccloud_pairing::cache::global`]) and the
    /// table build, both outside the lock; every later call, on this key
    /// or a clone, is a lookup. `K_V` itself is wiped once its table is
    /// built. Neither ever enters a prepared-key cache.
    pub(crate) fn designation_table(&self, verifier: &VerifierPublic) -> Arc<GtPowTable> {
        if let Some(table) = find_table(&self.lock_tables(), verifier.q()) {
            return table;
        }
        let mut k = pairing_prepared(&self.sk, &verifier.q_prepared());
        let table = Arc::new(GtPowTable::new(&k));
        seccloud_hash::wipe_copy(&mut k, Gt::one());
        let mut tables = self.lock_tables();
        // A clone may have built the same table meanwhile; keep the first.
        if let Some(first) = find_table(&tables, verifier.q()) {
            return first;
        }
        tables.push((*verifier.q(), Arc::clone(&table)));
        table
    }

    /// Locks the designation tables; a poisoned lock is recovered, since
    /// an entry is pushed whole or not at all.
    fn lock_tables(&self) -> MutexGuard<'_, DesignationTables> {
        match self.designation_tables.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// The table kept for `q`, if any.
fn find_table(tables: &DesignationTables, q: &G2) -> Option<Arc<GtPowTable>> {
    tables
        .iter()
        .find(|(kept, _)| kept == q)
        .map(|(_, table)| Arc::clone(table))
}

/// A verifier's public identity data: identity string and `Q_V ∈ G2`.
///
/// `Q_V` is a fixed pairing argument for the verifier's lifetime (every
/// [`crate::designate`] call pairs against it), so its Miller-loop line
/// coefficients are resolved through the process-wide
/// [`seccloud_pairing::cache`] LRU — *every* instance recomputed from the
/// same identity (e.g. a fresh decode on each wire audit) shares one
/// preparation, instead of each instance re-preparing privately.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifierPublic {
    identity: String,
    q: G2,
}

impl VerifierPublic {
    /// Recomputes the public data for a verifier identity.
    pub fn from_identity(identity: &str) -> Self {
        Self {
            identity: identity.to_owned(),
            q: hash_to_g2(identity.as_bytes()),
        }
    }

    /// The identity string.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The identity public key `Q_V ∈ G2`.
    pub fn q(&self) -> &G2 {
        &self.q
    }

    /// The prepared form of `Q_V`, shared through the process-wide
    /// prepared-key cache (prepared on first use anywhere, then amortized
    /// across every instance naming the same point). `Q_V` is public, so
    /// the cache key is converted with the variable-time inversion.
    pub fn q_prepared(&self) -> Arc<G2Prepared> {
        seccloud_pairing::cache::global().get_or_prepare(&self.q.to_affine_vartime())
    }
}

/// A verifier's extracted key pair (cloud server / designated agency).
// lint: secret
#[derive(Clone)]
pub struct VerifierKey {
    public: VerifierPublic,
    sk: G2Affine,
}

impl Drop for VerifierKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

impl std::fmt::Debug for VerifierKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifierKey")
            .field("identity", &self.public.identity)
            .finish_non_exhaustive()
    }
}

impl VerifierKey {
    /// Zeros the identity secret key and drops its cached prepared form
    /// from the secret prepared-key cache (the removed `G2Prepared` wipes
    /// its line coefficients when the last handle drops); called from
    /// `Drop`.
    fn wipe(&mut self) {
        seccloud_pairing::cache::secret().remove(&self.sk);
        seccloud_hash::wipe_copy(&mut self.sk, G2Affine::identity());
    }

    /// The public part.
    pub fn public(&self) -> &VerifierPublic {
        &self.public
    }

    /// The identity string.
    pub fn identity(&self) -> &str {
        &self.public.identity
    }

    /// The secret key `sk_V = s·Q_V ∈ G2`, affine (test hook; production
    /// paths go through the prepared form below).
    #[cfg(test)]
    pub(crate) fn sk(&self) -> &G2Affine {
        &self.sk
    }

    /// The prepared form of `sk_V`, resolved through the **secret**
    /// prepared-key cache ([`seccloud_pairing::cache::secret`]) — never
    /// the shared [`seccloud_pairing::cache::global`] instance that public
    /// points flow through. Every designated verification pairs against
    /// the same `sk_V`, so the Miller-loop line coefficients are prepared
    /// once and amortized across calls (and across clones of this key);
    /// eviction or `wipe`-driven removal zeroizes the coefficients
    /// when the last outstanding handle drops (`G2Prepared` wipes on
    /// drop).
    ///
    /// The handle is secret-derived: verification engines (batch
    /// verifiers, the sharded epoch verifier) may hold it for the
    /// verifier's own checks, but it must never be serialized or logged —
    /// exactly like `sk_V` itself. Callers that retain the `Arc` keep the
    /// preparation alive past a `wipe()` of this key; drop the handle as
    /// soon as the verification engine is done with it.
    pub fn sk_prepared(&self) -> Arc<G2Prepared> {
        seccloud_pairing::cache::secret().get_or_prepare_ct(&self.sk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seccloud_pairing::pairing;

    #[test]
    fn extraction_is_deterministic() {
        let m = MasterKey::from_seed(b"seed");
        let a1 = m.extract_user("alice");
        let a2 = m.extract_user("alice");
        assert_eq!(a1.public(), a2.public());
        assert_eq!(a1.sk(), a2.sk());
        assert_ne!(a1.public(), m.extract_user("bob").public());
    }

    #[test]
    fn different_seeds_different_master_keys() {
        let m1 = MasterKey::from_seed(b"seed-1");
        let m2 = MasterKey::from_seed(b"seed-2");
        assert_ne!(m1.params(), m2.params());
    }

    #[test]
    fn user_public_matches_anyone_recomputing_it() {
        let m = MasterKey::from_seed(b"seed");
        let alice = m.extract_user("alice");
        let recomputed = UserPublic::from_identity("alice");
        assert_eq!(alice.public(), &recomputed);
        let server = m.extract_verifier("cs");
        assert_eq!(server.public(), &VerifierPublic::from_identity("cs"));
    }

    #[test]
    fn extracted_keys_satisfy_the_master_relation() {
        // ê(sk_ID, P₂) = ê(Q_ID, s·P₂) — the defining property of eq. (4).
        let m = MasterKey::from_seed(b"relation");
        let u = m.extract_user("alice");
        let lhs = pairing(u.sk(), &G2::generator().to_affine());
        let rhs = pairing(
            &u.public().q().to_affine(),
            &m.params().p_pub_g2().to_affine(),
        );
        assert_eq!(lhs, rhs);

        // ê(P₁, sk_V) = ê(s·P₁, Q_V) for verifier keys.
        let v = m.extract_verifier("da");
        let lhs = pairing(&G1::generator().to_affine(), v.sk());
        let rhs = pairing(
            &m.params().p_pub_g1().to_affine(),
            &v.public().q().to_affine(),
        );
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn debug_never_leaks_secrets() {
        let m = MasterKey::from_seed(b"secret-seed");
        let u = m.extract_user("u");
        let v = m.extract_verifier("v");
        let dbg = format!("{m:?}{u:?}{v:?}");
        // Secrets would print as hex values of the s / sk fields; ensure the
        // redacted formatters are in use and the raw values are absent.
        assert!(dbg.contains(".."), "redaction marker missing: {dbg}");
        assert!(!dbg.contains("sk:"), "extracted secret printed: {dbg}");
        let sk_hex = format!("{:?}", u.sk());
        assert!(!dbg.contains(&sk_hex), "user secret printed");
    }

    #[test]
    fn wipe_clears_secret_material() {
        // `wipe()` is exactly what `Drop` runs; exercising it directly lets
        // the test observe the cleared state without reading freed memory.
        let mut m = MasterKey::from_seed(b"wipe-test");
        let mut u = m.extract_user("alice");
        let mut v = m.extract_verifier("cs");
        let sk_point = v.sk;
        let _ = v.sk_prepared(); // populate the secret cache so wipe() has work to do
        assert!(seccloud_pairing::cache::secret().contains(&sk_point));
        assert!(
            !seccloud_pairing::cache::global().contains(&sk_point),
            "the shared public cache must never hold secret-derived entries"
        );

        m.wipe();
        assert!(m.s.is_zero(), "master scalar must be zeroed on drop");

        u.wipe();
        assert!(u.sk.is_identity(), "user secret key must be cleared");

        v.wipe();
        assert!(v.sk.is_identity(), "verifier secret key must be cleared");
        assert!(
            !seccloud_pairing::cache::secret().contains(&sk_point),
            "secret-derived prepared lines must be dropped from the cache"
        );
    }

    #[test]
    fn designation_table_powers_match_pairings_of_scaled_keys() {
        // K_V^k = ê(k·sk_ID, Q_V): the identity sign_designated rests on.
        let m = MasterKey::from_seed(b"sok-kat");
        let u = m.extract_user("alice");
        let v = m.extract_verifier("cs");
        let table = u.designation_table(v.public());
        let q_v = v.public().q_prepared();
        let mut drbg = HmacDrbg::new(b"sok-kat-exponents");
        let exponents = [Fr::zero(), Fr::one()]
            .into_iter()
            .chain((0..20).map(|_| Fr::random_nonzero(&mut drbg)));
        for k in exponents {
            let scaled = G1::from(*u.sk()).mul_fr(&k).to_affine();
            assert_eq!(
                table.pow_ct(&k),
                pairing_prepared(&scaled, &q_v),
                "k = {k:?}"
            );
        }
    }

    #[test]
    fn designation_tables_are_shared_by_clones_and_dropped_by_wipe() {
        let m = MasterKey::from_seed(b"table-wipe");
        let mut u = m.extract_user("alice");
        let v = m.extract_verifier("cs");
        let table = u.designation_table(v.public());
        assert!(Arc::ptr_eq(
            &table,
            &u.clone().designation_table(v.public())
        ));
        assert!(Arc::ptr_eq(&table, &u.designation_table(v.public())));
        assert_eq!(u.lock_tables().len(), 1);
        // The pairing that built K_V used only Q_V's public preparation.
        assert!(seccloud_pairing::cache::global().contains(&v.public().q().to_affine_vartime()));
        let weak = Arc::downgrade(&table);
        drop(table);

        u.wipe();
        assert!(u.lock_tables().is_empty(), "wipe() must drop the tables");
        // Nothing else held the table or K_V — no cache, no clone — so its
        // entries were zeroized on drop.
        assert!(weak.upgrade().is_none(), "the table outlived wipe()");
    }

    #[test]
    fn zero_master_scalar_is_rejected_by_construction() {
        // Fr::random_nonzero never returns zero; from_scalar with an
        // explicit nonzero scalar keeps P_pub off the identity.
        let m = MasterKey::from_scalar(Fr::from_u64(1).add(&Fr::from_u64(1)));
        assert!(!m.params().p_pub_g1().is_identity());
        assert!(!m.params().p_pub_g2().is_identity());
    }
}
