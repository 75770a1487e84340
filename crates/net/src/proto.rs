//! RPC envelope messages: the payloads that ride inside `frame` frames.
//!
//! One [`NetRequest`] maps one-to-one onto a [`WireTransport`] method; one
//! [`NetResponse`] carries the method's result back, including a fully
//! structured error. Errors cross the socket *typed*, not stringified:
//! [`RpcError`], [`ServerError`] and [`WarrantError`] each get a codec
//! here, so the client-side transient-vs-byzantine classification
//! (`RpcError::is_transient`) runs on exactly the value the server
//! produced. A deployment that flattened errors to strings would lose the
//! taxonomy at the first hop.
//!
//! Both envelopes implement [`WireMessage`] and therefore inherit the
//! version header, length-prefix bounds and trailing-byte rejection of the
//! canonical codec in `seccloud_core::wire`.
//!
//! [`WireTransport`]: seccloud_cloudsim::rpc::WireTransport

use seccloud_cloudsim::rpc::RpcError;
use seccloud_cloudsim::server::ServerError;
use seccloud_core::warrant::WarrantError;
use seccloud_core::wire::{Reader, WireError, WireMessage, Writer};

/// A client→server call, one variant per [`WireTransport`] method.
///
/// [`WireTransport`]: seccloud_cloudsim::rpc::WireTransport
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetRequest {
    /// `rpc_store(owner, body)`.
    Store {
        /// The uploading user's identity string.
        owner: String,
        /// Serialized block bundle (`encode_store_body` output).
        body: Vec<u8>,
    },
    /// `rpc_compute(owner, auditor, body)`.
    Compute {
        /// The data owner's identity string.
        owner: String,
        /// The auditing verifier's identity string.
        auditor: String,
        /// Serialized [`ComputationRequest`](seccloud_core::computation::ComputationRequest).
        body: Vec<u8>,
    },
    /// `rpc_audit(owner, auditor, job_id, challenge, warrant, now)`.
    Audit {
        /// The data owner's identity string.
        owner: String,
        /// The auditing verifier's identity string.
        auditor: String,
        /// Server-assigned job handle from the compute call.
        job_id: u64,
        /// Serialized [`AuditChallenge`](seccloud_core::computation::AuditChallenge).
        challenge: Vec<u8>,
        /// Serialized [`Warrant`](seccloud_core::warrant::Warrant).
        warrant: Vec<u8>,
        /// The auditor's clock, for warrant-expiry checks.
        now: u64,
    },
    /// `rpc_retrieve(owner, position)`.
    Retrieve {
        /// The data owner's identity string.
        owner: String,
        /// Block position to fetch.
        position: u64,
    },
}

/// A server→client reply; the success variants mirror [`NetRequest`]'s
/// return types, `Failed` carries a structured [`RpcError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetResponse {
    /// Blocks accepted by a `Store` call.
    Stored(u64),
    /// `(job_id, serialized commitment)` from a `Compute` call.
    Computed {
        /// Server-assigned job handle.
        job_id: u64,
        /// Serialized [`Commitment`](seccloud_core::computation::Commitment).
        commitment: Vec<u8>,
    },
    /// Serialized audit response from an `Audit` call.
    Audited(Vec<u8>),
    /// Result of a `Retrieve` call (`None` = authoritative "no such
    /// block", distinct from any channel failure).
    Retrieved(Option<Vec<u8>>),
    /// The call failed; the error survives the hop fully typed.
    Failed(RpcError),
}

// --- error codecs ---------------------------------------------------------
//
// Tags are append-only: new variants take the next free tag so old peers
// reject them as BadTag instead of misparsing. A retired tag is never
// reused: `RpcError` tag 3 once carried a breaker-open refusal and now
// decodes as BadTag.

fn put_wire_error(w: &mut Writer, e: &WireError) {
    match e {
        WireError::Truncated => w.put_u8(0),
        WireError::BadTag(t) => {
            w.put_u8(1);
            w.put_u8(*t);
        }
        WireError::BadElement => w.put_u8(2),
        WireError::TrailingBytes => w.put_u8(3),
        WireError::LengthOverflow => w.put_u8(4),
        WireError::Timeout => w.put_u8(5),
        WireError::ConnectionLost => w.put_u8(6),
        WireError::FrameTooLarge => w.put_u8(7),
        WireError::TruncatedFrame => w.put_u8(8),
    }
}

fn take_wire_error(r: &mut Reader<'_>) -> Result<WireError, WireError> {
    Ok(match r.take_u8()? {
        0 => WireError::Truncated,
        1 => WireError::BadTag(r.take_u8()?),
        2 => WireError::BadElement,
        3 => WireError::TrailingBytes,
        4 => WireError::LengthOverflow,
        5 => WireError::Timeout,
        6 => WireError::ConnectionLost,
        7 => WireError::FrameTooLarge,
        8 => WireError::TruncatedFrame,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_warrant_error(w: &mut Writer, e: &WarrantError) {
    match e {
        WarrantError::Expired => w.put_u8(0),
        WarrantError::WrongDelegatee => w.put_u8(1),
        WarrantError::WrongRequest => w.put_u8(2),
        WarrantError::NotDesignated => w.put_u8(3),
        WarrantError::BadSignature => w.put_u8(4),
    }
}

fn take_warrant_error(r: &mut Reader<'_>) -> Result<WarrantError, WireError> {
    Ok(match r.take_u8()? {
        0 => WarrantError::Expired,
        1 => WarrantError::WrongDelegatee,
        2 => WarrantError::WrongRequest,
        3 => WarrantError::NotDesignated,
        4 => WarrantError::BadSignature,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_server_error(w: &mut Writer, e: &ServerError) {
    match e {
        ServerError::MissingBlock { position } => {
            w.put_u8(0);
            w.put_u64(*position);
        }
        ServerError::RejectedUpload { slot } => {
            w.put_u8(1);
            w.put_u64(*slot as u64);
        }
        ServerError::UnknownJob => w.put_u8(2),
        ServerError::BadChallenge => w.put_u8(3),
        ServerError::Warrant(we) => {
            w.put_u8(4);
            put_warrant_error(w, we);
        }
        ServerError::EmptyRequest => w.put_u8(5),
    }
}

fn take_server_error(r: &mut Reader<'_>) -> Result<ServerError, WireError> {
    Ok(match r.take_u8()? {
        0 => ServerError::MissingBlock {
            position: r.take_u64()?,
        },
        1 => ServerError::RejectedUpload {
            slot: r.take_u64()? as usize,
        },
        2 => ServerError::UnknownJob,
        3 => ServerError::BadChallenge,
        4 => ServerError::Warrant(take_warrant_error(r)?),
        5 => ServerError::EmptyRequest,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_rpc_error(w: &mut Writer, e: &RpcError) {
    match e {
        RpcError::Malformed(we) => {
            w.put_u8(0);
            put_wire_error(w, we);
        }
        RpcError::Server(se) => {
            w.put_u8(1);
            put_server_error(w, se);
        }
        RpcError::Timeout { elapsed_ms } => {
            w.put_u8(2);
            w.put_u64(*elapsed_ms);
        }
    }
}

fn take_rpc_error(r: &mut Reader<'_>) -> Result<RpcError, WireError> {
    Ok(match r.take_u8()? {
        0 => RpcError::Malformed(take_wire_error(r)?),
        1 => RpcError::Server(take_server_error(r)?),
        2 => RpcError::Timeout {
            elapsed_ms: r.take_u64()?,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

// --- envelope codecs ------------------------------------------------------

impl WireMessage for NetRequest {
    fn encode_body(&self, w: &mut Writer) {
        match self {
            NetRequest::Store { owner, body } => {
                w.put_u8(0);
                w.put_str(owner);
                w.put_bytes(body);
            }
            NetRequest::Compute {
                owner,
                auditor,
                body,
            } => {
                w.put_u8(1);
                w.put_str(owner);
                w.put_str(auditor);
                w.put_bytes(body);
            }
            NetRequest::Audit {
                owner,
                auditor,
                job_id,
                challenge,
                warrant,
                now,
            } => {
                w.put_u8(2);
                w.put_str(owner);
                w.put_str(auditor);
                w.put_u64(*job_id);
                w.put_bytes(challenge);
                w.put_bytes(warrant);
                w.put_u64(*now);
            }
            NetRequest::Retrieve { owner, position } => {
                w.put_u8(3);
                w.put_str(owner);
                w.put_u64(*position);
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => NetRequest::Store {
                owner: r.take_str()?,
                body: r.take_bytes()?.to_vec(),
            },
            1 => NetRequest::Compute {
                owner: r.take_str()?,
                auditor: r.take_str()?,
                body: r.take_bytes()?.to_vec(),
            },
            2 => NetRequest::Audit {
                owner: r.take_str()?,
                auditor: r.take_str()?,
                job_id: r.take_u64()?,
                challenge: r.take_bytes()?.to_vec(),
                warrant: r.take_bytes()?.to_vec(),
                now: r.take_u64()?,
            },
            3 => NetRequest::Retrieve {
                owner: r.take_str()?,
                position: r.take_u64()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl WireMessage for NetResponse {
    fn encode_body(&self, w: &mut Writer) {
        match self {
            NetResponse::Stored(n) => {
                w.put_u8(0);
                w.put_u64(*n);
            }
            NetResponse::Computed { job_id, commitment } => {
                w.put_u8(1);
                w.put_u64(*job_id);
                w.put_bytes(commitment);
            }
            NetResponse::Audited(bytes) => {
                w.put_u8(2);
                w.put_bytes(bytes);
            }
            NetResponse::Retrieved(opt) => {
                w.put_u8(3);
                match opt {
                    Some(bytes) => {
                        w.put_u8(1);
                        w.put_bytes(bytes);
                    }
                    None => w.put_u8(0),
                }
            }
            NetResponse::Failed(e) => {
                w.put_u8(4);
                put_rpc_error(w, e);
            }
        }
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            0 => NetResponse::Stored(r.take_u64()?),
            1 => NetResponse::Computed {
                job_id: r.take_u64()?,
                commitment: r.take_bytes()?.to_vec(),
            },
            2 => NetResponse::Audited(r.take_bytes()?.to_vec()),
            3 => NetResponse::Retrieved(match r.take_u8()? {
                0 => None,
                1 => Some(r.take_bytes()?.to_vec()),
                t => return Err(WireError::BadTag(t)),
            }),
            4 => NetResponse::Failed(take_rpc_error(r)?),
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rpc_errors() -> Vec<RpcError> {
        let wire = [
            WireError::Truncated,
            WireError::BadTag(7),
            WireError::BadElement,
            WireError::TrailingBytes,
            WireError::LengthOverflow,
            WireError::Timeout,
            WireError::ConnectionLost,
            WireError::FrameTooLarge,
            WireError::TruncatedFrame,
        ];
        let server = [
            ServerError::MissingBlock { position: 42 },
            ServerError::RejectedUpload { slot: 3 },
            ServerError::UnknownJob,
            ServerError::BadChallenge,
            ServerError::Warrant(WarrantError::Expired),
            ServerError::Warrant(WarrantError::WrongDelegatee),
            ServerError::Warrant(WarrantError::WrongRequest),
            ServerError::Warrant(WarrantError::NotDesignated),
            ServerError::Warrant(WarrantError::BadSignature),
            ServerError::EmptyRequest,
        ];
        let mut out: Vec<RpcError> = Vec::new();
        out.extend(wire.into_iter().map(RpcError::Malformed));
        out.extend(server.into_iter().map(RpcError::Server));
        out.push(RpcError::Timeout { elapsed_ms: 1234 });
        out
    }

    #[test]
    fn every_request_round_trips() {
        let cases = [
            NetRequest::Store {
                owner: "alice".into(),
                body: vec![1, 2, 3],
            },
            NetRequest::Compute {
                owner: "alice".into(),
                auditor: "da".into(),
                body: vec![],
            },
            NetRequest::Audit {
                owner: "alice".into(),
                auditor: "da".into(),
                job_id: 9,
                challenge: vec![5; 40],
                warrant: vec![6; 17],
                now: 1_000,
            },
            NetRequest::Retrieve {
                owner: "bob".into(),
                position: u64::MAX,
            },
        ];
        for req in cases {
            assert_eq!(NetRequest::from_wire(&req.to_wire()).unwrap(), req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let mut cases = vec![
            NetResponse::Stored(12),
            NetResponse::Computed {
                job_id: 4,
                commitment: vec![9; 64],
            },
            NetResponse::Audited(vec![7; 100]),
            NetResponse::Retrieved(Some(vec![1])),
            NetResponse::Retrieved(None),
        ];
        cases.extend(all_rpc_errors().into_iter().map(NetResponse::Failed));
        for resp in cases {
            assert_eq!(NetResponse::from_wire(&resp.to_wire()).unwrap(), resp);
        }
    }

    #[test]
    fn retired_rpc_error_tag_is_rejected() {
        let mut w = Writer::new();
        w.put_u8(4); // NetResponse::Failed
        w.put_u8(3); // the retired RpcError tag
        assert_eq!(
            NetResponse::from_wire(&w.finish()),
            Err(WireError::BadTag(3))
        );
    }

    #[test]
    fn transience_survives_the_hop() {
        // The whole point of typed errors on the wire: the client classifies
        // exactly what the server produced.
        for err in all_rpc_errors() {
            let before = err.is_transient();
            let decoded = match NetResponse::from_wire(&NetResponse::Failed(err).to_wire()) {
                Ok(NetResponse::Failed(e)) => e,
                other => panic!("unexpected decode {other:?}"),
            };
            assert_eq!(decoded.is_transient(), before);
        }
    }

    #[test]
    fn garbage_decodes_to_typed_errors_never_panics() {
        use seccloud_hash::HmacDrbg;
        let mut d = HmacDrbg::new(b"seccloud-net/proto-fuzz");
        for _ in 0..256 {
            let len = d.next_below(256) as usize;
            let bytes = d.next_bytes(len);
            let _ = NetRequest::from_wire(&bytes);
            let _ = NetResponse::from_wire(&bytes);
        }
    }
}
