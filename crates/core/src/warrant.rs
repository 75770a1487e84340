//! Delegation warrants (paper Section V-D).
//!
//! To delegate auditing to the DA, the user sends `{F, P, Y}` together with
//! "a warrant include the identity of the delegatee and the expired time".
//! The cloud server checks the warrant before answering audit challenges.

use seccloud_ibs::{sign_designated, DesignatedSignature, UserPublic, VerifierKey, VerifierPublic};

use crate::sio::CloudUser;

/// A signed delegation of audit rights, bound to a specific computation
/// request and valid until an expiry instant (logical time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warrant {
    delegator: String,
    delegatee: String,
    expires_at: u64,
    request_digest: [u8; 32],
    designations: Vec<(String, DesignatedSignature)>,
}

/// Why a warrant was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarrantError {
    /// The warrant's expiry instant is in the past.
    Expired,
    /// The warrant names a different delegatee.
    WrongDelegatee,
    /// The warrant is bound to a different computation request.
    WrongRequest,
    /// The checking verifier is not among the designated parties.
    NotDesignated,
    /// The designated signature failed to verify.
    BadSignature,
}

impl std::fmt::Display for WarrantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            WarrantError::Expired => "warrant expired",
            WarrantError::WrongDelegatee => "warrant names a different delegatee",
            WarrantError::WrongRequest => "warrant bound to a different request",
            WarrantError::NotDesignated => "verifier is not designated on this warrant",
            WarrantError::BadSignature => "warrant signature invalid",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for WarrantError {}

impl Warrant {
    /// Issues a warrant delegating audits of the request identified by
    /// `request_digest` to `delegatee`, verifiable by each of `verifiers`
    /// (typically the CS that will answer challenges and the DA itself).
    ///
    /// One signature, designated to each verifier through
    /// [`sign_designated`]: a fixed-base `GT` power per verifier the user's
    /// key has designated to before, one pairing and a table build for a
    /// new one.
    pub fn issue(
        user: &CloudUser,
        delegatee: &str,
        expires_at: u64,
        request_digest: [u8; 32],
        verifiers: &[&VerifierPublic],
    ) -> Self {
        let mut w = Self {
            delegator: user.identity().to_owned(),
            delegatee: delegatee.to_owned(),
            expires_at,
            request_digest,
            designations: Vec::new(),
        };
        let signatures = sign_designated(user.key(), &w.message(), b"warrant", verifiers);
        w.designations = verifiers
            .iter()
            .map(|v| v.identity().to_owned())
            .zip(signatures)
            .collect();
        w
    }

    fn message(&self) -> Vec<u8> {
        let mut m = Vec::new();
        m.extend_from_slice(b"seccloud/warrant");
        m.extend_from_slice(&(self.delegator.len() as u64).to_be_bytes());
        m.extend_from_slice(self.delegator.as_bytes());
        m.extend_from_slice(&(self.delegatee.len() as u64).to_be_bytes());
        m.extend_from_slice(self.delegatee.as_bytes());
        m.extend_from_slice(&self.expires_at.to_be_bytes());
        m.extend_from_slice(&self.request_digest);
        m
    }

    /// The delegating user's identity.
    pub fn delegator(&self) -> &str {
        &self.delegator
    }

    /// The delegatee (normally the DA) identity.
    pub fn delegatee(&self) -> &str {
        &self.delegatee
    }

    /// Expiry instant (logical time).
    pub fn expires_at(&self) -> u64 {
        self.expires_at
    }

    /// Full validation: designated-signature check plus the semantic checks
    /// the cloud server runs when receiving an audit challenge ("it first
    /// verifies the warrant to check whether it is expired").
    ///
    /// # Errors
    ///
    /// Returns the first failed check as a [`WarrantError`].
    pub fn verify(
        &self,
        verifier: &VerifierKey,
        owner: &UserPublic,
        expected_delegatee: &str,
        expected_request_digest: &[u8; 32],
        now: u64,
    ) -> Result<(), WarrantError> {
        if now >= self.expires_at {
            return Err(WarrantError::Expired);
        }
        if self.delegatee != expected_delegatee {
            return Err(WarrantError::WrongDelegatee);
        }
        if !seccloud_hash::ct_eq(&self.request_digest, expected_request_digest) {
            return Err(WarrantError::WrongRequest);
        }
        let sig = self
            .designations
            .iter()
            .find(|(id, _)| id == verifier.identity())
            .map(|(_, s)| s)
            .ok_or(WarrantError::NotDesignated)?;
        if !sig.verify(verifier, owner, &self.message()) {
            return Err(WarrantError::BadSignature);
        }
        Ok(())
    }

    /// Mutation hook for adversarial tests.
    #[doc(hidden)]
    pub fn tamper_expiry(&mut self, expires_at: u64) {
        self.expires_at = expires_at;
    }

    /// The bound request digest.
    pub fn request_digest(&self) -> &[u8; 32] {
        &self.request_digest
    }

    /// The `(verifier identity, designated signature)` pairs carried by the
    /// warrant.
    pub fn designations(&self) -> impl Iterator<Item = (&str, &DesignatedSignature)> {
        self.designations.iter().map(|(id, s)| (id.as_str(), s))
    }

    /// Rebuilds a warrant from serialized parts; validity is established by
    /// [`Warrant::verify`], not construction.
    pub fn from_parts(
        delegator: String,
        delegatee: String,
        expires_at: u64,
        request_digest: [u8; 32],
        designations: Vec<(String, DesignatedSignature)>,
    ) -> Self {
        Self {
            delegator,
            delegatee,
            expires_at,
            request_digest,
            designations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sio::Sio;

    fn setup() -> (
        Sio,
        CloudUser,
        crate::sio::VerifierCredential,
        crate::sio::VerifierCredential,
    ) {
        let sio = Sio::new(b"warrant-tests");
        let user = sio.register("alice");
        let cs = sio.register_verifier("cs-01");
        let da = sio.register_verifier("da");
        (sio, user, cs, da)
    }

    #[test]
    fn valid_warrant_passes_both_designees() {
        let (_, user, cs, da) = setup();
        let digest = [7u8; 32];
        let w = Warrant::issue(&user, "da", 100, digest, &[cs.public(), da.public()]);
        assert!(w.verify(cs.key(), user.public(), "da", &digest, 50).is_ok());
        assert!(w.verify(da.key(), user.public(), "da", &digest, 99).is_ok());
    }

    #[test]
    fn expiry_is_enforced() {
        let (_, user, cs, _) = setup();
        let digest = [0u8; 32];
        let w = Warrant::issue(&user, "da", 100, digest, &[cs.public()]);
        assert_eq!(
            w.verify(cs.key(), user.public(), "da", &digest, 100),
            Err(WarrantError::Expired)
        );
        assert_eq!(
            w.verify(cs.key(), user.public(), "da", &digest, 1_000),
            Err(WarrantError::Expired)
        );
    }

    #[test]
    fn delegatee_and_request_binding() {
        let (_, user, cs, _) = setup();
        let digest = [1u8; 32];
        let w = Warrant::issue(&user, "da", 100, digest, &[cs.public()]);
        assert_eq!(
            w.verify(cs.key(), user.public(), "eve", &digest, 10),
            Err(WarrantError::WrongDelegatee)
        );
        assert_eq!(
            w.verify(cs.key(), user.public(), "da", &[2u8; 32], 10),
            Err(WarrantError::WrongRequest)
        );
    }

    #[test]
    fn tampered_expiry_breaks_the_signature() {
        let (_, user, cs, _) = setup();
        let digest = [3u8; 32];
        let mut w = Warrant::issue(&user, "da", 100, digest, &[cs.public()]);
        w.tamper_expiry(10_000); // extend validity without re-signing
        assert_eq!(
            w.verify(cs.key(), user.public(), "da", &digest, 500),
            Err(WarrantError::BadSignature)
        );
    }

    #[test]
    fn non_designated_verifier_rejected() {
        let (sio, user, cs, _) = setup();
        let digest = [4u8; 32];
        let w = Warrant::issue(&user, "da", 100, digest, &[cs.public()]);
        let eve = sio.register_verifier("eve");
        assert_eq!(
            w.verify(eve.key(), user.public(), "da", &digest, 10),
            Err(WarrantError::NotDesignated)
        );
    }

    #[test]
    fn warrant_from_wrong_user_rejected() {
        let (sio, user, cs, _) = setup();
        let digest = [5u8; 32];
        let w = Warrant::issue(&user, "da", 100, digest, &[cs.public()]);
        let bob = sio.register("bob");
        assert_eq!(
            w.verify(cs.key(), bob.public(), "da", &digest, 10),
            Err(WarrantError::BadSignature)
        );
    }
}
