//! Experiment instrumentation for Setchain runs.
//!
//! The paper's metrics are all derived from when the client added each
//! element, which elements each epoch holds, and when that epoch reached
//! `f + 1` epoch-proofs on the ledger ("committed"). The [`SetchainTrace`]
//! is an `Arc`-shared sink recording exactly those facts: an add time per
//! element and one record per epoch, which shares the epoch's `G` with the
//! first correct server to create it. The `setchain-workload` crate turns
//! them into throughput-over-time series, efficiency values, commit-time
//! percentiles and latency CDFs.

use std::num::NonZeroU64;
use std::sync::Arc;

use parking_lot::Mutex;
use setchain_crypto::FxHashMap;
use setchain_ledger::TxId;
use setchain_simnet::SimTime;

use crate::collector::Batch;
use crate::element::{Element, ElementId};
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

/// One epoch as the trace holds it (first observation wins for both
/// fields; all correct servers create the same `G`).
#[derive(Default)]
struct TracedEpoch {
    /// `G`, as the first correct server to create the epoch recorded it.
    batch: Option<Arc<Batch>>,
    /// When a correct server first saw the epoch reach `f + 1` proofs. The
    /// only field set for an epoch replayed from a store and never created
    /// in this run.
    committed_at: Option<SimTime>,
}

impl TracedEpoch {
    /// The epoch's elements; none when no correct server created it here.
    fn elements(&self) -> &[Element] {
        self.batch.as_deref().map_or(&[], |g| g.elements.as_slice())
    }
}

#[derive(Default)]
struct TraceInner {
    /// Add times, encoded by [`encode_added`].
    added: IdMap<NonZeroU64>,
    epochs: FxHashMap<u64, TracedEpoch>,
    element_tx: IdMap<TxId>,
}

impl TraceInner {
    /// The element lists of the epochs committed no later than `t`.
    fn committed_by(&self, t: SimTime) -> impl Iterator<Item = &[Element]> {
        self.epochs
            .values()
            .filter(move |epoch| epoch.committed_at.is_some_and(|at| at <= t))
            .map(TracedEpoch::elements)
    }
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

    /// Records `g`, the elements a correct server stamped with `epoch`
    /// (first observation wins; all correct servers create the same `G`).
    /// One call per epoch and server; the trace shares `g`.
    pub fn record_epoch(&self, epoch: u64, g: &Arc<Batch>) {
        let mut inner = self.inner.lock();
        let traced = inner.epochs.entry(epoch).or_default();
        traced.batch.get_or_insert_with(|| Arc::clone(g));
    }

    /// Records that `epoch` reached the proof quorum (`f + 1` proofs) at `at`
    /// in the view of a correct server (first observation wins).
    pub fn record_epoch_commit(&self, epoch: u64, at: SimTime) {
        let mut inner = self.inner.lock();
        let traced = inner.epochs.entry(epoch).or_default();
        traced.committed_at.get_or_insert(at);
    }

    /// Number of elements added.
    pub fn added_count(&self) -> usize {
        self.inner.lock().added.len()
    }

    /// Time at which an epoch reached the proof quorum.
    pub fn epoch_committed_at(&self, epoch: u64) -> Option<SimTime> {
        self.inner.lock().epochs.get(&epoch)?.committed_at
    }

    /// Assembles the per-element records for analysis. Elements added but
    /// never stamped/committed appear with `None` fields. Each element's
    /// epoch comes from one id → epoch index built here, fed in epoch order
    /// so that each client's ids fill its row of the index in sequence.
    pub fn element_records(&self) -> Vec<ElementRecord> {
        let inner = self.inner.lock();
        let mut epochs: Vec<_> = inner.epochs.iter().collect();
        epochs.sort_unstable_by_key(|&(&epoch, _)| epoch);
        let mut stamped_in = IdMap::default();
        for (&epoch, traced) in epochs {
            for e in traced.elements() {
                stamped_in.insert_if_absent(e.id, epoch);
            }
        }
        let mut out: Vec<ElementRecord> = inner
            .added
            .iter()
            .map(|(id, &added_at)| {
                let epoch = stamped_in.get(&id).copied();
                ElementRecord {
                    id,
                    added_at: decode_added(added_at),
                    epoch,
                    committed_at: epoch.and_then(|e| inner.epochs[&e].committed_at),
                }
            })
            .collect();
        out.sort_by_key(|r| (r.added_at, r.id));
        out
    }

    /// Number of elements whose epoch reached the quorum no later than `t`.
    pub fn committed_count_by(&self, t: SimTime) -> usize {
        self.inner.lock().committed_by(t).map(<[_]>::len).sum()
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
            .committed_by(t)
            .flatten()
            .filter(|e| inner.added.contains_key(&e.id))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setchain_crypto::ProcessId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn id(i: u64) -> ElementId {
        ElementId::new(0, i)
    }

    /// An epoch's `G` holding the elements `ids`.
    fn g(ids: &[u64]) -> Arc<Batch> {
        let elements = ids
            .iter()
            .map(|&i| Element::forged(ProcessId::client(0), id(i), 100))
            .collect();
        Arc::new(Batch::new(elements, Vec::new()))
    }

    #[test]
    fn end_to_end_element_lifecycle() {
        let trace = SetchainTrace::new();
        trace.record_add(id(1), t(100));
        trace.record_add(id(2), t(200));
        trace.record_add(id(3), t(300));
        trace.record_epoch(1, &g(&[1, 2]));
        trace.record_epoch_commit(1, t(3000));

        assert_eq!(trace.added_count(), 3);
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
        // An element's epoch and commit time are its epoch's.
        assert_eq!(records[0].epoch, Some(1));
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
        let first = g(&[1]);
        trace.record_epoch(1, &first);
        trace.record_epoch(1, &g(&[1, 2])); // second server's view ignored
        trace.record_epoch_commit(1, t(2000));
        trace.record_epoch_commit(1, t(1500)); // later observation ignored
        let rec = &trace.element_records()[0];
        assert_eq!(rec.added_at, t(100));
        assert_eq!(rec.epoch, Some(1));
        assert_eq!(rec.committed_at, Some(t(2000)));
        assert_eq!(trace.committed_count_by(t(2000)), 1);
        // The trace shares the first server's `G` rather than copying it.
        assert_eq!(Arc::strong_count(&first), 2);
    }

    #[test]
    fn an_epoch_with_only_a_commit_time_counts_no_elements() {
        // A store replay can commit an epoch this run never created: the
        // trace knows when it committed but not which elements it holds.
        let trace = SetchainTrace::new();
        trace.record_add(id(1), t(100));
        trace.record_epoch_commit(1, t(2000));
        assert_eq!(trace.epoch_committed_at(1), Some(t(2000)));
        assert_eq!(trace.committed_count_by(t(2000)), 0);
        assert_eq!(trace.honest_committed_count_by(t(2000)), 0);
        assert_eq!(trace.element_records()[0].epoch, None);
        // A later creation fills in the epoch's elements.
        trace.record_epoch(1, &g(&[1]));
        assert_eq!(trace.epoch_committed_at(1), Some(t(2000)));
        assert_eq!(trace.committed_count_by(t(2000)), 1);
        assert_eq!(trace.element_records()[0].committed_at, Some(t(2000)));
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
        trace.record_epoch(1, &g(&[1, 2])); // 2 is an attack element
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
        assert_eq!(trace.epoch_committed_at(1), None);
        assert!(trace.element_records().is_empty());
        assert_eq!(trace.committed_count_by(t(1000)), 0);
    }
}
