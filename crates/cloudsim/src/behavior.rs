//! Adversary models (paper Section III-B).

/// How a storage-cheating server mangles the data it should have kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageAttack {
    /// Semi-honest: "delete rarely access data files to reduce the storage
    /// cost" — the block is gone.
    Delete,
    /// Malicious: "arbitrarily modify the stored data" — the block's bytes
    /// are replaced with garbage.
    Corrupt,
    /// "Uses different x̂ ∉ X" — serve the block stored at another position,
    /// relabelled to the requested one.
    WrongPosition,
}

/// A cloud server's behaviour profile.
#[derive(Clone, Debug, PartialEq)]
pub enum Behavior {
    /// Follows the protocol exactly.
    Honest,
    /// Storage-cheating model: each stored block is attacked independently
    /// with probability `1 − ssc`.
    StorageCheater {
        /// Storage Secure Confidence — fraction of blocks kept intact.
        ssc: f64,
        /// The attack applied to unlucky blocks.
        attack: StorageAttack,
    },
    /// Computation-cheating model: each sub-task is skipped independently
    /// with probability `1 − csc`; a skipped task returns a uniform guess
    /// from a range of size `guess_range` (`None` ⇒ the guess never
    /// collides with the true result).
    ComputationCheater {
        /// Computing Secure Confidence — fraction of sub-tasks computed.
        csc: f64,
        /// The guessing range `R` of eq. 10.
        guess_range: Option<u64>,
    },
    /// Computes everything but leaks stored blocks and signatures to third
    /// parties (the illegal private-information-selling model); protocol
    /// behaviour is honest, the leak is modelled in [`crate::privacy`].
    PrivacyLeaker,
}

impl Behavior {
    /// Whether this behaviour follows the protocol for storage/compute.
    pub fn is_protocol_honest(&self) -> bool {
        matches!(self, Behavior::Honest | Behavior::PrivacyLeaker)
    }

    /// The storage confidence this behaviour exhibits (1.0 when honest).
    pub fn ssc(&self) -> f64 {
        match self {
            Behavior::StorageCheater { ssc, .. } => *ssc,
            Behavior::Honest | Behavior::ComputationCheater { .. } | Behavior::PrivacyLeaker => 1.0,
        }
    }

    /// The computing confidence this behaviour exhibits (1.0 when honest).
    pub fn csc(&self) -> f64 {
        match self {
            Behavior::ComputationCheater { csc, .. } => *csc,
            Behavior::Honest | Behavior::StorageCheater { .. } | Behavior::PrivacyLeaker => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_accessors() {
        assert_eq!(Behavior::Honest.ssc(), 1.0);
        assert_eq!(Behavior::Honest.csc(), 1.0);
        let sc = Behavior::StorageCheater {
            ssc: 0.3,
            attack: StorageAttack::Delete,
        };
        assert_eq!(sc.ssc(), 0.3);
        assert_eq!(sc.csc(), 1.0);
        let cc = Behavior::ComputationCheater {
            csc: 0.7,
            guess_range: Some(2),
        };
        assert_eq!(cc.csc(), 0.7);
        assert!(!cc.is_protocol_honest());
        assert!(Behavior::PrivacyLeaker.is_protocol_honest());
    }
}
