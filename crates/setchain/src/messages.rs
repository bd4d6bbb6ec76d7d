//! Application-level messages: the client-facing Setchain API (`add`, `get`)
//! and the server-to-server hash-reversal protocol used by Hashchain.

use std::sync::Arc;

use setchain_crypto::Digest512;
use setchain_simnet::Wire;

use crate::collector::Batch;
use crate::element::Element;
use crate::proofs::{EpochProof, EPOCH_PROOF_WIRE_LEN};

/// Summary returned by `S.get()` (the full sets are too large to ship to a
/// client wholesale; `GetEpoch` retrieves one epoch with its proofs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct GetSnapshot {
    /// Number of elements in the server's `the_set`.
    pub the_set_len: u64,
    /// Current epoch number.
    pub epoch: u64,
    /// Total number of elements across all epochs in `history`.
    pub history_elements: u64,
    /// Total number of epoch-proofs held.
    pub proofs_total: u64,
    /// Number of epochs that already have at least `f + 1` proofs.
    pub epochs_with_quorum: u64,
}

/// Messages exchanged between clients and Setchain servers, and between
/// Setchain servers themselves.
#[derive(Clone, Debug)]
pub enum SetchainMsg {
    /// `S.add_v(e)` for each carried element: a client asks server `v` to
    /// add them. A session sends one element per message; the workload
    /// driver sends many, which keeps the number of simulated messages
    /// manageable at high sending rates.
    AddBatch(Vec<Element>),
    /// `S.get_v()`: returns a summary of the server's Setchain state.
    Get {
        /// Correlation id echoed in the response.
        request_id: u64,
    },
    /// Response to [`SetchainMsg::Get`].
    GetResponse {
        /// Correlation id of the request.
        request_id: u64,
        /// Summary of the server state.
        snapshot: GetSnapshot,
    },
    /// Retrieves the contents and proofs of one epoch (what a light client
    /// needs in order to verify it).
    GetEpoch {
        /// Correlation id echoed in the response.
        request_id: u64,
        /// Epoch to retrieve.
        epoch: u64,
    },
    /// Response to [`SetchainMsg::GetEpoch`].
    EpochResponse {
        /// Correlation id of the request.
        request_id: u64,
        /// Epoch number.
        epoch: u64,
        /// Elements of the epoch as known by the server.
        elements: Vec<Element>,
        /// Epoch-proofs held for that epoch.
        proofs: Vec<EpochProof>,
    },
    /// Hashchain `Request_batch(h)`: asks a server for the batch whose hash
    /// is `hash`.
    RequestBatch {
        /// Hash of the requested batch.
        hash: Digest512,
    },
    /// Answer to [`SetchainMsg::RequestBatch`] carrying the original batch.
    BatchResponse {
        /// Hash of the batch (echoed).
        hash: Digest512,
        /// The batch contents: the responder's own allocation, which the
        /// receiver keeps once it hashes to `hash`. On the wire this is the
        /// elements and proofs in full (see `wire_size`).
        batch: Arc<Batch>,
    },
    /// Proactive batch dissemination (the push-based Hashchain variant from
    /// the paper's discussion): the flushing server ships the batch contents
    /// to the other servers so hash reversal rarely needs a request round
    /// trip. The receiver validates the contents against the hash before
    /// storing them.
    PushBatch {
        /// Hash of the pushed batch.
        hash: Digest512,
        /// The batch contents, shared with the flushing server as in
        /// [`SetchainMsg::BatchResponse`].
        batch: Arc<Batch>,
    },
    /// Overload shed (see [`crate::quota`]): the server refused an
    /// `Add`/`AddBatch` submission because the sender is over its admission
    /// quota, *before* spending any verification CPU on it. A
    /// well-behaved client backs off for at least `retry_after` (the same
    /// hint shape the epoch-retry machinery uses); a flooding client that
    /// ignores the hint keeps being shed for free.
    Rejected {
        /// Earliest delay after which a retry could be admitted.
        retry_after: setchain_simnet::SimDuration,
    },
}

const MSG_HEADER: usize = 32;

impl Wire for SetchainMsg {
    fn wire_size(&self) -> usize {
        match self {
            SetchainMsg::AddBatch(es) => {
                MSG_HEADER + es.iter().map(|e| e.wire_size()).sum::<usize>()
            }
            SetchainMsg::Get { .. } => MSG_HEADER,
            SetchainMsg::GetResponse { .. } => MSG_HEADER + 40,
            SetchainMsg::GetEpoch { .. } => MSG_HEADER + 8,
            SetchainMsg::EpochResponse {
                elements, proofs, ..
            } => {
                MSG_HEADER
                    + elements.iter().map(|e| e.wire_size()).sum::<usize>()
                    + proofs.len() * EPOCH_PROOF_WIRE_LEN
            }
            SetchainMsg::RequestBatch { .. } => MSG_HEADER + 64,
            SetchainMsg::Rejected { .. } => MSG_HEADER + 8,
            SetchainMsg::BatchResponse { batch, .. } | SetchainMsg::PushBatch { batch, .. } => {
                MSG_HEADER + 64 + batch.wire_size()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementId;
    use setchain_crypto::{sha512, KeyRegistry, ProcessId};

    #[test]
    fn wire_sizes_track_payload() {
        let reg = KeyRegistry::bootstrap(1, 2, 1);
        let client = reg.lookup(ProcessId::client(0)).unwrap();
        let e = Element::new(&client, ElementId::new(0, 1), 438, 1);
        assert_eq!(SetchainMsg::AddBatch(vec![e]).wire_size(), 32 + 438);
        assert_eq!(SetchainMsg::AddBatch(vec![e, e]).wire_size(), 32 + 876);
        assert_eq!(SetchainMsg::Get { request_id: 1 }.wire_size(), 32);
        assert_eq!(
            SetchainMsg::GetEpoch {
                request_id: 1,
                epoch: 2
            }
            .wire_size(),
            40
        );
        assert_eq!(
            SetchainMsg::RequestBatch { hash: sha512(b"h") }.wire_size(),
            96
        );
        assert_eq!(
            SetchainMsg::Rejected {
                retry_after: setchain_simnet::SimDuration::from_millis(5)
            }
            .wire_size(),
            40
        );
        // A batch response carrying the real batch contents is what makes
        // hash reversal expensive on the wire. Sharing the batch behind an
        // `Arc` must not change what it costs: header 32 + hash 64 + every
        // element in full, pinned exactly because simulated bandwidth sets
        // the schedule.
        let batch = Arc::new(Batch::new(vec![e; 100], vec![]));
        let hash = sha512(b"h");
        let resp = SetchainMsg::BatchResponse {
            hash,
            batch: Arc::clone(&batch),
        };
        assert_eq!(resp.wire_size(), 32 + 64 + 100 * 438);
        assert_eq!(resp.wire_size(), 43_896);
        let push = SetchainMsg::PushBatch { hash, batch };
        assert_eq!(push.wire_size(), 43_896);
    }

    #[test]
    fn snapshot_default_is_zeroed() {
        let s = GetSnapshot::default();
        assert_eq!(s.the_set_len, 0);
        assert_eq!(s.epochs_with_quorum, 0);
    }
}
