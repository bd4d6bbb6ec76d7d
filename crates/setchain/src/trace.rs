//! Experiment instrumentation for Setchain runs.
//!
//! The paper's metrics are all derived from three per-element facts: when the
//! client added it, which epoch it was stamped with, and when that epoch
//! reached `f + 1` epoch-proofs on the ledger ("committed"). The
//! [`SetchainTrace`] is an `Arc`-shared sink recording exactly those facts;
//! the `setchain-workload` crate turns them into throughput-over-time series,
//! efficiency values, commit-time percentiles and latency CDFs.

use std::num::{NonZeroU32, NonZeroU64};
use std::sync::Arc;

use parking_lot::Mutex;
use setchain_crypto::FxHashMap;
use setchain_ledger::TxId;
use setchain_simnet::SimTime;

use crate::element::ElementId;
use crate::idmap::IdMap;

/// Per-element record assembled after a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElementRecord {
    /// Element id.
    pub id: ElementId,
    /// When the client invoked `add`.
    pub added_at: SimTime,
    /// Epoch the element was stamped with (first correct server to do so).
    pub epoch: Option<u64>,
    /// When that epoch reached `f + 1` proofs on the ledger.
    pub committed_at: Option<SimTime>,
}

// `element_epoch` holds one `Option<NonZeroU32>` slot per added id; keep it
// four bytes.
const _: () = assert!(std::mem::size_of::<Option<NonZeroU32>>() == 4);
// `added` holds one `Option<NonZeroU64>` slot per added id; keep it eight
// bytes, where an `Option<SimTime>` takes sixteen.
const _: () = assert!(std::mem::size_of::<Option<NonZeroU64>>() == 8);

/// An add time as `added` stores it: `at + 1` µs, so that the zero niche
/// makes the map's empty slot free. `SimTime(u64::MAX)` has no encoding;
/// no run reaches it (it is 584,000 years of simulated time).
fn encode_added(at: SimTime) -> NonZeroU64 {
    at.0.checked_add(1)
        .and_then(NonZeroU64::new)
        .expect("an add time below SimTime(u64::MAX)")
}

fn decode_added(at: NonZeroU64) -> SimTime {
    SimTime(at.get() - 1)
}

#[derive(Default)]
struct TraceInner {
    /// Add times, encoded by [`encode_added`].
    added: IdMap<NonZeroU64>,
    /// Epochs start at 1, so a `NonZeroU32` holds every epoch of a run.
    element_epoch: IdMap<NonZeroU32>,
    epoch_committed: FxHashMap<u64, SimTime>,
    element_tx: IdMap<TxId>,
}

/// Shared experiment trace for one Setchain run.
#[derive(Clone, Default)]
pub struct SetchainTrace {
    inner: Arc<Mutex<TraceInner>>,
    detailed: bool,
}

impl SetchainTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace that also records the element → ledger-transaction
    /// mapping, needed for the per-stage latency breakdown (Fig. 4). Costs
    /// extra memory per element, so large throughput runs use [`Self::new`].
    pub fn detailed() -> Self {
        SetchainTrace {
            inner: Arc::new(Mutex::new(TraceInner::default())),
            detailed: true,
        }
    }

    /// Records that an element travels to the ledger inside the transaction
    /// `tx` (the element itself for Vanilla, its batch for the others).
    /// No-op unless the trace was created with [`Self::detailed`].
    pub fn record_tx_assignment(&self, id: ElementId, tx: TxId) {
        if !self.detailed {
            return;
        }
        self.inner.lock().element_tx.insert_if_absent(id, tx);
    }

    /// The ledger transaction an element was shipped in (detailed traces
    /// only).
    pub fn tx_of(&self, id: &ElementId) -> Option<TxId> {
        self.inner.lock().element_tx.get(id).copied()
    }

    /// Records that the client added `id` at `at` (called by the workload
    /// driver when it sends the `add`).
    pub fn record_add(&self, id: ElementId, at: SimTime) {
        self.record_adds(std::iter::once(id), at);
    }

    /// Batched form of [`Self::record_add`]: one lock acquisition for a
    /// whole injection tick's worth of elements.
    pub fn record_adds(&self, ids: impl IntoIterator<Item = ElementId>, at: SimTime) {
        let at = encode_added(at);
        let mut inner = self.inner.lock();
        for id in ids {
            inner.added.insert_if_absent(id, at);
        }
    }

    /// Records that a correct server stamped `id` with `epoch` (first
    /// observation wins; all correct servers assign the same epoch).
    pub fn record_epoch_assignment(&self, id: ElementId, epoch: u64) {
        self.record_epoch_assignments(std::iter::once(id), epoch);
    }

    /// Batched form of [`Self::record_epoch_assignment`]: one lock
    /// acquisition for a whole epoch's elements. Servers create epochs a
    /// batch at a time, so this is the hot-path entry point.
    pub fn record_epoch_assignments(&self, ids: impl IntoIterator<Item = ElementId>, epoch: u64) {
        let narrow = u32::try_from(epoch)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("epochs are numbered from 1, and 2^32 epochs exceed any run");
        let mut inner = self.inner.lock();
        for id in ids {
            inner.element_epoch.insert_if_absent(id, narrow);
        }
    }

    /// Records that `epoch` reached the proof quorum (`f + 1` proofs) at `at`
    /// in the view of a correct server (first observation wins).
    pub fn record_epoch_commit(&self, epoch: u64, at: SimTime) {
        self.inner.lock().epoch_committed.entry(epoch).or_insert(at);
    }

    /// Number of elements added.
    pub fn added_count(&self) -> usize {
        self.inner.lock().added.len()
    }

    /// Number of epochs that reached the proof quorum.
    pub fn committed_epochs(&self) -> usize {
        self.inner.lock().epoch_committed.len()
    }

    /// Time at which an epoch reached the proof quorum.
    pub fn epoch_committed_at(&self, epoch: u64) -> Option<SimTime> {
        self.inner.lock().epoch_committed.get(&epoch).copied()
    }

    /// Assembles the per-element records for analysis. Elements added but
    /// never stamped/committed appear with `None` fields.
    pub fn element_records(&self) -> Vec<ElementRecord> {
        let inner = self.inner.lock();
        let mut out: Vec<ElementRecord> = inner
            .added
            .iter()
            .map(|(id, &added_at)| {
                let added_at = decode_added(added_at);
                let epoch = inner.element_epoch.get(&id).map(|e| u64::from(e.get()));
                let committed_at = epoch.and_then(|e| inner.epoch_committed.get(&e).copied());
                ElementRecord {
                    id,
                    added_at,
                    epoch,
                    committed_at,
                }
            })
            .collect();
        out.sort_by_key(|r| (r.added_at, r.id));
        out
    }

    /// Number of elements whose epoch reached the quorum no later than `t`.
    pub fn committed_count_by(&self, t: SimTime) -> usize {
        let inner = self.inner.lock();
        inner
            .element_epoch
            .iter()
            .filter(|(_, epoch)| {
                inner
                    .epoch_committed
                    .get(&u64::from(epoch.get()))
                    .map(|&ct| ct <= t)
                    .unwrap_or(false)
            })
            .count()
    }

    /// Number of *trace-recorded* elements — those with a [`Self::record_add`]
    /// entry — whose epoch reached the quorum no later than `t`.
    ///
    /// Differs from [`Self::committed_count_by`] only when servers stamp
    /// elements the trace never saw added: an adversarial client's admitted
    /// traffic (deliberately kept out of the trace) or a scripted client
    /// session's elements. Under attack this is *honest goodput* — the
    /// committed count of the instrumented honest workload alone.
    pub fn honest_committed_count_by(&self, t: SimTime) -> usize {
        let inner = self.inner.lock();
        inner
            .added
            .iter()
            .filter(|(id, _)| {
                inner
                    .element_epoch
                    .get(id)
                    .and_then(|epoch| inner.epoch_committed.get(&u64::from(epoch.get())))
                    .map(|&ct| ct <= t)
                    .unwrap_or(false)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn id(i: u64) -> ElementId {
        ElementId::new(0, i)
    }

    #[test]
    fn end_to_end_element_lifecycle() {
        let trace = SetchainTrace::new();
        trace.record_add(id(1), t(100));
        trace.record_add(id(2), t(200));
        trace.record_add(id(3), t(300));
        trace.record_epoch_assignment(id(1), 1);
        trace.record_epoch_assignment(id(2), 1);
        trace.record_epoch_commit(1, t(3000));

        assert_eq!(trace.added_count(), 3);
        assert_eq!(trace.committed_epochs(), 1);
        assert_eq!(trace.epoch_committed_at(1), Some(t(3000)));
        assert_eq!(trace.committed_count_by(t(2999)), 0);
        assert_eq!(trace.committed_count_by(t(3000)), 2);
        assert_eq!(trace.honest_committed_count_by(t(3000)), 2);

        let records = trace.element_records();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records
                .iter()
                .map(|r| (r.id, r.added_at))
                .collect::<Vec<_>>(),
            vec![(id(1), t(100)), (id(2), t(200)), (id(3), t(300))]
        );
        // An element's commit time is its epoch's.
        assert_eq!(records[0].committed_at, Some(t(3000)));
        assert_eq!(records[1].committed_at, Some(t(3000)));
        assert_eq!(records[2].epoch, None);
        assert_eq!(records[2].committed_at, None);
    }

    #[test]
    fn first_observation_wins() {
        let trace = SetchainTrace::new();
        trace.record_add(id(1), t(100));
        trace.record_add(id(1), t(500)); // duplicate add ignored
        trace.record_epoch_assignment(id(1), 1);
        trace.record_epoch_assignment(id(1), 2); // second server's view ignored
        trace.record_epoch_commit(1, t(2000));
        trace.record_epoch_commit(1, t(1500)); // later observation ignored
        let rec = &trace.element_records()[0];
        assert_eq!(rec.added_at, t(100));
        assert_eq!(rec.epoch, Some(1));
        assert_eq!(rec.committed_at, Some(t(2000)));
    }

    #[test]
    #[should_panic(expected = "2^32 epochs exceed any run")]
    fn an_epoch_past_u32_is_refused() {
        SetchainTrace::new().record_epoch_assignment(id(1), 1 << 32);
    }

    #[test]
    fn add_times_at_both_ends_come_back_unchanged() {
        let trace = SetchainTrace::new();
        let late = SimTime(u64::MAX - 1);
        trace.record_add(id(1), SimTime::ZERO);
        trace.record_adds([id(2)], late);
        let added: Vec<_> = trace
            .element_records()
            .iter()
            .map(|r| (r.id, r.added_at))
            .collect();
        assert_eq!(added, vec![(id(1), SimTime::ZERO), (id(2), late)]);
    }

    #[test]
    #[should_panic(expected = "an add time below SimTime(u64::MAX)")]
    fn the_last_instant_is_refused_as_an_add_time() {
        SetchainTrace::new().record_add(id(1), SimTime(u64::MAX));
    }

    #[test]
    fn honest_count_excludes_unrecorded_elements() {
        // An adversarial client's admitted traffic is stamped and committed
        // by the servers but never `record_add`-ed; the honest count must
        // leave it out while the raw count includes it.
        let trace = SetchainTrace::new();
        trace.record_add(id(1), t(100));
        trace.record_epoch_assignment(id(1), 1);
        trace.record_epoch_assignment(id(2), 1); // attack element
        trace.record_epoch_commit(1, t(2000));
        assert_eq!(trace.committed_count_by(t(2000)), 2);
        assert_eq!(trace.honest_committed_count_by(t(2000)), 1);
        assert_eq!(trace.honest_committed_count_by(t(1999)), 0);
    }

    #[test]
    fn tx_assignment_only_recorded_when_detailed() {
        let plain = SetchainTrace::new();
        plain.record_tx_assignment(id(1), TxId(77));
        assert_eq!(plain.tx_of(&id(1)), None);

        let detailed = SetchainTrace::detailed();
        detailed.record_tx_assignment(id(1), TxId(77));
        detailed.record_tx_assignment(id(1), TxId(88)); // first wins
        assert_eq!(detailed.tx_of(&id(1)), Some(TxId(77)));
        assert_eq!(detailed.tx_of(&id(2)), None);
    }

    #[test]
    fn empty_trace_queries() {
        let trace = SetchainTrace::new();
        assert_eq!(trace.added_count(), 0);
        assert_eq!(trace.committed_epochs(), 0);
        assert_eq!(trace.epoch_committed_at(1), None);
        assert!(trace.element_records().is_empty());
        assert_eq!(trace.committed_count_by(t(1000)), 0);
    }
}
