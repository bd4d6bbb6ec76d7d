//! The element index: a map keyed by [`ElementId`] that stores honest ids in
//! paged per-client rows and everything else in a hash map.
//!
//! An [`ElementId`] is `client_index << 40 | seq`, and honest clients mint
//! `seq` = 0, 1, 2, …, so the entries of one client form an array: `rows[c]`
//! holds client `c`'s values in slots indexed by `seq`. The slots come in
//! pages of `PAGE` = 64, allocated on first use, and a per-row page table
//! maps `seq / PAGE` to a page. A lookup is three bounds checks, the next
//! id of a client fills the next slot of its last page, and no table is
//! ever rehashed. Paging is what keeps a quota-shed client in its row: its
//! admitted ids come in runs (one tick's worth) with long shed gaps between
//! them, and a run only touches the few pages it covers.
//!
//! Ids are chosen by the sender and are not bound to the signer, so the rows
//! are sized by the entries they take, never by what an id *claims*:
//!
//! * a new page is linked only while the row's linked pages hold at most
//!   `2 · stored + 64` slots, `stored` counting every entry the row ever
//!   took, so a row never holds more than `2 · stored + 64 + PAGE` slots;
//! * a page index is accepted only if it is already in the page table or is
//!   at most `PAGE · placed + 64`, `placed` counting every page ever linked,
//!   so the 4-byte table entries never outweigh the pages placed;
//! * a client index gets a row only if it is already covered or is at most
//!   twice the rows ever used plus 64.
//!
//! A forged id at `seq = 2^40 − 1` or `client_index = 2^24 − 1` therefore
//! allocates nothing. Whatever does not fit lands in the fallback hash map —
//! still found, still counted, at the price every id paid before this
//! container existed. An id parked in the fallback while its row was short
//! is looked up there until its next overwriting insert, which moves it into
//! the row.
//!
//! [`IdMap::remove`] lets a map that forgets old ids (the admission cache
//! drops each verdict once its element is stamped) hold a sliding window: a
//! page whose last entry is removed is unlinked from the page table and
//! reused by the row's next new page, so `pages` stays as long as the window
//! rather than the run. Every rule counts what was ever placed, so a row
//! whose window has moved far past its first page, or that keeps a few
//! stragglers behind it, still takes its next id; removals never let a row
//! hold more slots than the same stream without them would.

use std::collections::hash_map::Entry;

use setchain_crypto::IdHashMap;

use crate::element::ElementId;

/// Indices a row, its page table or the row table accept beyond what the
/// entries they hold justify.
const SLACK: u64 = 64;

/// Slots per page.
const PAGE: usize = 64;

/// A page-table entry with no page behind it.
const NO_PAGE: u32 = u32::MAX;

/// Fallback ids are whatever a sender made up, so the fallback is keyed
/// through [`IdHasher`](setchain_crypto::IdHasher), whose full avalanche
/// spreads the structured streams that land there.
type Fallback<V> = IdHashMap<ElementId, V>;

/// The row-table rule: `index` is already covered, or within twice the rows
/// ever used plus [`SLACK`].
#[inline]
fn fits(index: u64, len: usize, used: usize) -> bool {
    index < len as u64 || index <= 2 * used as u64 + SLACK
}

/// One client's values, indexed by sequence number through a page table.
#[derive(Clone, Debug)]
struct Row<V> {
    /// `table[seq / PAGE]` is the index in `pages` of the page holding
    /// `seq`, or [`NO_PAGE`].
    table: Vec<u32>,
    /// Pages in allocation order; `seq`'s slot is `seq % PAGE` in its page.
    pages: Vec<[Option<V>; PAGE]>,
    /// `held[p]`: the entries in `pages[p]`.
    held: Vec<u8>,
    /// Pages emptied by [`IdMap::remove`]: unlinked from `table`, every slot
    /// `None`, taken before a new page is pushed.
    free: Vec<u32>,
    /// Pages ever linked into `table`, reuses included.
    placed: u64,
    /// Entries ever stored in the row; a removal does not subtract.
    stored: u64,
}

impl<V> Default for Row<V> {
    fn default() -> Self {
        Row {
            table: Vec::new(),
            pages: Vec::new(),
            held: Vec::new(),
            free: Vec::new(),
            placed: 0,
            stored: 0,
        }
    }
}

impl<V> Row<V> {
    /// The page-table entry for `seq`: an index into `pages`, or
    /// [`NO_PAGE`] when the table does not reach `seq`. `pages` never grows
    /// to `NO_PAGE` entries (see `IdMap::place`), so a bounds check on
    /// `pages` rejects both.
    #[inline]
    fn entry(&self, seq: u64) -> usize {
        let page = seq / PAGE as u64;
        // `seq < 2^40`, but compare before narrowing so a 32-bit `usize`
        // cannot alias a far page onto a near one.
        if page < self.table.len() as u64 {
            self.table[page as usize] as usize
        } else {
            NO_PAGE as usize
        }
    }
}

/// A map from [`ElementId`] to `V` (see the module docs).
#[derive(Clone, Debug)]
pub struct IdMap<V: Copy> {
    /// `rows[client_index]`; rows no id has reached yet are empty.
    rows: Vec<Row<V>>,
    /// Rows a page has ever been placed in.
    used_rows: usize,
    /// Entries held in rows (the fallback counts its own).
    dense: usize,
    fallback: Fallback<V>,
}

impl<V: Copy> Default for IdMap<V> {
    /// An empty map; allocates nothing until the first insert.
    fn default() -> Self {
        IdMap {
            rows: Vec::new(),
            used_rows: 0,
            dense: 0,
            fallback: Fallback::default(),
        }
    }
}

impl<V: Copy> IdMap<V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dense + self.fallback.len()
    }

    /// True if the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries held in the fallback hash map rather than the rows.
    pub fn fallback_len(&self) -> usize {
        self.fallback.len()
    }

    /// Row slots allocated, in use or not, freed pages included: the rows
    /// hold `slots() · size_of::<Option<V>>()` bytes.
    pub fn slots(&self) -> usize {
        self.rows.iter().map(|row| PAGE * row.pages.len()).sum()
    }

    /// The value stored under `id`, if any.
    #[inline]
    pub fn get(&self, id: &ElementId) -> Option<&V> {
        let seq = id.seq();
        let slot = self
            .rows
            .get(id.client_index() as usize)
            .and_then(|row| row.pages.get(row.entry(seq))?[seq as usize % PAGE].as_ref());
        match slot {
            Some(value) => Some(value),
            None if self.fallback.is_empty() => None,
            None => self.fallback.get(id),
        }
    }

    /// True if a value is stored under `id`.
    #[inline]
    pub fn contains_key(&self, id: &ElementId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, id: ElementId, value: V) -> Option<V> {
        self.put(id, value, true)
    }

    /// Stores `value` under `id` only if `id` holds nothing yet; returns
    /// whether it did. First observation wins, in one probe.
    #[inline]
    pub fn insert_if_absent(&mut self, id: ElementId, value: V) -> bool {
        self.put(id, value, false).is_none()
    }

    /// Stores `value` under `id` if `overwrite` or `id` holds nothing;
    /// returns the value held before either way.
    #[inline]
    fn put(&mut self, id: ElementId, value: V, overwrite: bool) -> Option<V> {
        let Some((client, page)) = self.place(id) else {
            return match self.fallback.entry(id) {
                Entry::Occupied(mut held) if overwrite => Some(held.insert(value)),
                Entry::Occupied(held) => Some(*held.get()),
                Entry::Vacant(slot) => {
                    slot.insert(value);
                    None
                }
            };
        };
        let row = &mut self.rows[client];
        let slot = &mut row.pages[page][id.seq() as usize % PAGE];
        if let Some(previous) = *slot {
            if overwrite {
                *slot = Some(value);
            }
            return Some(previous);
        }
        // The id may have been parked in the fallback while this row was
        // too short to take it: an overwrite moves it into the row, a
        // first-wins insert leaves it where it is.
        let parked = if self.fallback.is_empty() {
            None
        } else if overwrite {
            self.fallback.remove(&id)
        } else if let Some(held) = self.fallback.get(&id) {
            return Some(*held);
        } else {
            None
        };
        *slot = Some(value);
        row.held[page] += 1;
        row.stored += 1;
        self.dense += 1;
        parked
    }

    /// Removes the value stored under `id`, wherever it lives, and returns
    /// it. A page left empty is unlinked and reused by the row's next page.
    pub fn remove(&mut self, id: &ElementId) -> Option<V> {
        let seq = id.seq();
        if let Some(row) = self.rows.get_mut(id.client_index() as usize) {
            let page = row.entry(seq);
            if let Some(value) = row
                .pages
                .get_mut(page)
                .and_then(|slots| slots[seq as usize % PAGE].take())
            {
                row.held[page] -= 1;
                if row.held[page] == 0 {
                    // `entry` found the page, so the table reaches `seq`.
                    row.table[(seq / PAGE as u64) as usize] = NO_PAGE;
                    row.free.push(page as u32);
                }
                self.dense -= 1;
                return Some(value);
            }
        }
        if self.fallback.is_empty() {
            None
        } else {
            self.fallback.remove(id)
        }
    }

    /// The `(client, page)` whose page holds `id`'s slot, allocating the
    /// row and linking a page (a freed one first) if the density rules (see
    /// the module docs) allow. `None` sends `id` to the fallback.
    #[inline]
    fn place(&mut self, id: ElementId) -> Option<(usize, usize)> {
        let (client, seq) = (id.client_index() as usize, id.seq());
        let (table, placed, linked, pages, stored) = match self.rows.get(client) {
            Some(row) => {
                let page = row.entry(seq);
                if page < row.pages.len() {
                    return Some((client, page));
                }
                let pages = row.pages.len();
                (
                    row.table.len(),
                    row.placed,
                    pages - row.free.len(),
                    pages,
                    row.stored,
                )
            }
            None => (0, 0, 0, 0, 0),
        };
        let index = seq / PAGE as u64;
        if !fits(client as u64, self.rows.len(), self.used_rows)
            || !(index < table as u64 || index <= PAGE as u64 * placed + SLACK)
            || (PAGE * linked) as u64 > 2 * stored + SLACK
            || pages >= NO_PAGE as usize
        {
            return None;
        }
        if client >= self.rows.len() {
            self.rows.resize_with(client + 1, Row::default);
        }
        let row = &mut self.rows[client];
        self.used_rows += usize::from(row.placed == 0);
        row.placed += 1;
        let index = index as usize; // bounded by the page-table rule above
        if index >= row.table.len() {
            row.table.resize(index + 1, NO_PAGE);
        }
        let page = row.free.pop().map_or_else(
            || {
                row.pages.push([None; PAGE]);
                row.held.push(0);
                pages
            },
            |page| page as usize,
        );
        row.table[index] = page as u32;
        Some((client, page))
    }

    /// Every entry, rows first (by client, then sequence number), then the
    /// fallback in its table order.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, &V)> {
        let dense = self.rows.iter().enumerate().flat_map(|(client, row)| {
            row.table
                .iter()
                .enumerate()
                .filter_map(move |(index, &page)| Some((index, row.pages.get(page as usize)?)))
                .flat_map(move |(index, page)| {
                    page.iter().enumerate().filter_map(move |(offset, slot)| {
                        let value = slot.as_ref()?;
                        let seq = (index * PAGE + offset) as u64;
                        Some((ElementId::new(client as u32, seq), value))
                    })
                })
        });
        dense.chain(self.fallback.iter().map(|(id, value)| (*id, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    const MAX_SEQ: u64 = (1 << 40) - 1;
    const MAX_CLIENT: u32 = (1 << 24) - 1;

    /// The density bounds, checked on the row table and on every row, and
    /// the page bookkeeping: per-page counts match the slots and sum to
    /// `dense`, every linked page is indexed exactly once, and the free
    /// pages are exactly the unindexed ones, all empty.
    fn assert_slot_bound<V: Copy>(map: &IdMap<V>) {
        assert!(map.rows.len() as u64 <= 2 * map.used_rows as u64 + SLACK + 1);
        assert_eq!(
            map.used_rows,
            map.rows.iter().filter(|row| row.placed > 0).count()
        );
        let mut dense = 0;
        for row in &map.rows {
            let linked = row.pages.len() - row.free.len();
            assert!(((PAGE * linked) as u64) <= 2 * row.stored + SLACK + PAGE as u64);
            assert!(row.table.len() as u64 <= PAGE as u64 * row.placed + SLACK);
            assert!(row.pages.len() as u64 <= row.placed);
            assert_eq!(row.held.len(), row.pages.len());
            for (page, &held) in row.pages.iter().zip(&row.held) {
                assert_eq!(usize::from(held), page.iter().flatten().count());
                dense += usize::from(held);
            }
            assert!(row.held.iter().map(|&h| u64::from(h)).sum::<u64>() <= row.stored);
            for &page in &row.free {
                assert_eq!(row.held[page as usize], 0, "a free page holds nothing");
            }
            let mut pages: Vec<u32> = row
                .table
                .iter()
                .copied()
                .filter(|&page| page != NO_PAGE)
                .chain(row.free.iter().copied())
                .collect();
            assert_eq!(pages.len(), row.pages.len(), "a page linked twice or lost");
            pages.sort_unstable();
            assert!(pages.iter().copied().eq(0..row.pages.len() as u32));
        }
        assert_eq!(dense, map.dense);
    }

    #[test]
    fn default_map_is_empty_and_unallocated() {
        let map: IdMap<u64> = IdMap::default();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.rows.capacity() + map.fallback.capacity(), 0);
        assert_eq!(map.slots(), 0);
        assert_eq!(map.get(&ElementId::new(0, 0)), None);
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn sequential_ids_of_several_clients_stay_dense() {
        let mut map = IdMap::default();
        for seq in 0..1000u64 {
            for client in 0..4u32 {
                assert_eq!(map.insert(ElementId::new(client, seq), seq), None);
            }
        }
        assert_eq!(map.len(), 4000);
        assert_eq!(map.fallback_len(), 0);
        assert_eq!(map.get(&ElementId::new(3, 999)), Some(&999));
        assert_eq!(map.insert(ElementId::new(3, 999), 7), Some(999));
        assert_eq!(map.len(), 4000);
        assert!(!map.contains_key(&ElementId::new(4, 0)));
        assert!(!map.contains_key(&ElementId::new(0, 1000)));
        assert_slot_bound(&map);
    }

    #[test]
    fn hostile_ids_allocate_no_slots() {
        let mut map = IdMap::default();
        let table_edge = PAGE as u64 * SLACK;
        let hostile = [
            ElementId::new(0, MAX_SEQ),
            ElementId::new(MAX_CLIENT, 0),
            ElementId::new(MAX_CLIENT, MAX_SEQ),
            ElementId::new(0, table_edge + PAGE as u64),
            ElementId::new(SLACK as u32 + 1, 0),
        ];
        for (i, id) in hostile.iter().enumerate() {
            assert_eq!(map.insert(*id, i), None);
        }
        assert_eq!(map.len(), hostile.len());
        assert_eq!(map.fallback_len(), hostile.len());
        assert!(map.rows.is_empty());
        for (i, id) in hostile.iter().enumerate() {
            assert_eq!(map.get(id), Some(&i));
        }
        // The edge of the page-table rule: page index exactly SLACK is
        // taken by a fresh row, with one page behind it.
        assert_eq!(map.insert(ElementId::new(0, table_edge), 99), None);
        assert_eq!(map.rows[0].table.len() as u64, SLACK + 1);
        assert_eq!(map.rows[0].pages.len(), 1);
        assert_eq!(map.fallback_len(), hostile.len());
        assert_slot_bound(&map);
    }

    #[test]
    fn quota_shed_stream_stays_in_rows() {
        // A quota-shed client: runs of 250 admitted ids, 1,500 ids apart
        // (one tick admitted, the next five shed).
        const RUN: u64 = 250;
        const STRIDE: u64 = 1_500;
        const RUNS: u64 = 400;
        let mut map = IdMap::default();
        for run in 0..RUNS {
            for seq in run * STRIDE..run * STRIDE + RUN {
                assert!(map.insert_if_absent(ElementId::new(0, seq), seq));
            }
            assert_slot_bound(&map);
        }
        assert_eq!(map.fallback_len(), 0);
        assert_eq!(map.len() as u64, RUNS * RUN);
        // A run of 250 covers at most five pages.
        assert!(map.rows[0].pages.len() as u64 <= 5 * RUNS);
        for run in [0, RUNS / 2, RUNS - 1] {
            let start = run * STRIDE;
            assert_eq!(map.get(&ElementId::new(0, start)), Some(&start));
            assert_eq!(map.get(&ElementId::new(0, start + RUN)), None);
        }
    }

    #[test]
    fn insert_if_absent_keeps_the_first_value_wherever_it_lives() {
        let mut map = IdMap::default();
        let (dense, far) = (ElementId::new(0, 3), ElementId::new(0, MAX_SEQ));
        for id in [dense, far] {
            assert!(map.insert_if_absent(id, 1));
            assert!(!map.insert_if_absent(id, 2));
            assert_eq!(map.get(&id), Some(&1));
        }
        assert_eq!((map.len(), map.fallback_len()), (2, 1));
        // A parked id keeps its first value when its row grows past it.
        let parked = ElementId::new(1, PAGE as u64 * (SLACK + 1));
        assert!(map.insert_if_absent(parked, 1));
        for seq in 0..parked.seq() + 10 {
            map.insert_if_absent(ElementId::new(1, seq), 0);
        }
        assert_eq!(map.get(&parked), Some(&1));
        assert_eq!(map.fallback_len(), 2);
        assert_slot_bound(&map);
    }

    #[test]
    fn parked_id_is_found_and_migrates_on_its_next_insert() {
        let mut map = IdMap::default();
        // One page past what a fresh row's page table accepts.
        let parked = ElementId::new(0, PAGE as u64 * (SLACK + 1));
        assert_eq!(map.insert(parked, 1), None);
        assert_eq!(map.fallback_len(), 1);
        // The row grows up to the parked id, then past it: the id is
        // covered by an empty slot now and must still be found.
        let end = parked.seq() + 100;
        for seq in (0..parked.seq()).chain(parked.seq() + 1..end) {
            assert_eq!(map.insert(ElementId::new(0, seq), 0), None);
        }
        assert!(map.rows[0].entry(parked.seq()) < map.rows[0].pages.len());
        assert_eq!(map.get(&parked), Some(&1));
        assert_eq!(map.len() as u64, end);
        assert_eq!(map.iter().filter(|(id, _)| *id == parked).count(), 1);
        // Its next insert reports the parked value and moves it home.
        assert_eq!(map.insert(parked, 2), Some(1));
        assert_eq!(map.fallback_len(), 0);
        assert_eq!(map.get(&parked), Some(&2));
        assert_eq!(map.len() as u64, end);
        assert_eq!(map.insert(parked, 3), Some(2));
        assert_slot_bound(&map);
    }

    #[test]
    fn remove_takes_row_parked_and_fallback_ids() {
        let mut map = IdMap::default();
        let (row, far) = (ElementId::new(0, 5), ElementId::new(0, MAX_SEQ));
        let parked = ElementId::new(1, PAGE as u64 * (SLACK + 1));
        assert!(map.insert_if_absent(parked, 7));
        for seq in 0..parked.seq() + 10 {
            map.insert_if_absent(ElementId::new(1, seq), 0);
        }
        map.insert(row, 1);
        map.insert(far, 2);
        assert_eq!(map.fallback_len(), 2);
        let len = map.len();
        assert_eq!(map.remove(&row), Some(1));
        assert_eq!(map.remove(&far), Some(2));
        assert_eq!(map.remove(&parked), Some(7));
        assert_eq!((map.len(), map.fallback_len()), (len - 3, 0));
        for id in [row, far, parked, ElementId::new(2, 0), ElementId::new(0, 6)] {
            assert_eq!(map.remove(&id), None, "{id:?} is absent");
            assert_eq!(map.get(&id), None);
        }
        // Row 0's only page emptied: it is unlinked and reused for the
        // row's next page, wherever that page sits.
        assert_eq!(map.rows[0].free, [0]);
        assert_eq!(map.insert(ElementId::new(0, 3 * PAGE as u64), 3), None);
        assert_eq!((map.rows[0].pages.len(), map.rows[0].free.len()), (1, 0));
        assert_eq!(map.get(&ElementId::new(0, 3 * PAGE as u64)), Some(&3));
        assert_eq!(map.get(&row), None);
        assert_slot_bound(&map);
    }

    #[test]
    fn sliding_window_reuses_its_pages() {
        // Four clients' ids in step, each id removed once its client has
        // minted `LAG` more: the admission cache freeing verdicts at stamp
        // lag.
        const CLIENTS: u32 = 4;
        const IDS: u64 = 125_000;
        const LAG: u64 = 16_000;
        let mut map = IdMap::default();
        for seq in 0..IDS {
            for client in 0..CLIENTS {
                assert_eq!(map.insert(ElementId::new(client, seq), seq), None);
                if let Some(old) = seq.checked_sub(LAG) {
                    assert_eq!(map.remove(&ElementId::new(client, old)), Some(old));
                }
            }
        }
        assert_eq!(map.fallback_len(), 0);
        assert_eq!(map.len() as u64, u64::from(CLIENTS) * LAG);
        for row in &map.rows {
            assert!(row.pages.len() as u64 <= LAG / PAGE as u64 + 2);
        }
        assert!(map.slots() as u64 <= u64::from(CLIENTS) * (LAG + 2 * PAGE as u64));
        assert_eq!(map.get(&ElementId::new(3, IDS - LAG)), Some(&(IDS - LAG)));
        assert_eq!(map.get(&ElementId::new(3, IDS - LAG - 1)), None);
        assert_slot_bound(&map);
    }

    #[test]
    fn stragglers_behind_a_window_keep_no_run_out_of_the_row() {
        // A quota-shed client in the admission cache: runs of 250 ids,
        // 1,500 apart, each freed two runs later except its first 8 ids,
        // freed 20 runs later. The stragglers hold a page each, so a rule
        // counting only the entries held now would turn new runs away.
        const RUN: u64 = 250;
        const STRIDE: u64 = 1_500;
        const KEEP: usize = 8;
        const LATE: u64 = 20;
        let run = |r: u64| (r * STRIDE..r * STRIDE + RUN).map(|s| ElementId::new(0, s));
        let mut map = IdMap::default();
        for r in 0..400 {
            for id in run(r) {
                assert!(map.insert_if_absent(id, id.seq()));
            }
            for id in r.checked_sub(2).into_iter().flat_map(run).skip(KEEP) {
                assert_eq!(map.remove(&id), Some(id.seq()));
            }
            for id in r.checked_sub(LATE).into_iter().flat_map(run).take(KEEP) {
                assert_eq!(map.remove(&id), Some(id.seq()));
            }
            assert_eq!(map.fallback_len(), 0, "run {r}");
        }
        // Two pages per straggler group at most, five per full run.
        assert!(map.rows[0].pages.len() as u64 <= 2 * LATE + 3 * 5);
        assert_slot_bound(&map);
    }

    /// Wall time to insert `ids` into a fresh map, best of three.
    fn insert_time(ids: &[ElementId]) -> Duration {
        (0..3)
            .map(|_| {
                let mut map = IdMap::default();
                let start = Instant::now();
                for (i, id) in ids.iter().enumerate() {
                    map.insert(*id, i);
                }
                let elapsed = start.elapsed();
                assert_eq!(map.fallback_len(), ids.len(), "stream must miss the rows");
                elapsed
            })
            .min()
            .expect("three trials")
    }

    /// Ids that differ only above bit 40 (same `seq`, different client)
    /// share their low bits, which is all `FxHasher` feeds into a bucket
    /// index: 80,000 of them took 647 ms against 3.7 ms for sequential ones
    /// when the fallback was an `FxHashMap`. Both streams are kept out of the
    /// rows (`seq ≥ 2^39`) so the fallback's hasher is what is timed.
    #[test]
    fn same_seq_flood_inserts_in_linear_time() {
        const N: u64 = 80_000;
        let sequential: Vec<_> = (0..N).map(|i| ElementId::new(0, (1 << 39) + i)).collect();
        let same_seq: Vec<_> = (0..N).map(|i| ElementId::new(i as u32, 1 << 39)).collect();
        let (base, flood) = (insert_time(&sequential), insert_time(&same_seq));
        assert!(
            flood <= base * 10,
            "same-seq ids took {flood:?} against {base:?} for sequential ones"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Expands one generated op into a run of ids. `next[c]` is client
        /// `c`'s next unused sequence number; `held` is every id inserted so
        /// far, for the overwrite op.
        fn expand(op: (u8, u32, u64), next: &mut [u64; 4], held: &[ElementId]) -> Vec<ElementId> {
            let (kind, client, n) = (op.0, op.1 % 4, op.2);
            let c = client as usize;
            match kind {
                // Sequential run, the honest pattern.
                0 => {
                    let start = next[c];
                    next[c] += n;
                    (start..start + n)
                        .map(|s| ElementId::new(client, s))
                        .collect()
                }
                // The same run, highest sequence number first.
                1 => {
                    let start = next[c];
                    next[c] += n;
                    (start..start + n)
                        .rev()
                        .map(|s| ElementId::new(client, s))
                        .collect()
                }
                // The corners of the id space.
                2 => vec![ElementId::new(client, MAX_SEQ - n)],
                3 => vec![ElementId::new(MAX_CLIENT - client, n)],
                // Sparse, then dense: one id far ahead of the row, then the
                // run that grows the row up to and past it.
                4 => {
                    let start = next[c];
                    let far = start + 64 * n + 200;
                    next[c] = far + 50;
                    std::iter::once(far)
                        .chain(start..far + 50)
                        .map(|s| ElementId::new(client, s))
                        .collect()
                }
                // Overwrite of a held id (or a no-op on an empty map).
                5 => held
                    .get(n as usize % held.len().max(1))
                    .copied()
                    .into_iter()
                    .collect(),
                // Gapped runs, the quota-shed pattern: three runs of `n`
                // ids, each starting `6 · n` ids after the last.
                6 => {
                    let start = next[c];
                    next[c] += 18 * n;
                    (0..3)
                        .flat_map(|run| start + 6 * n * run..start + 6 * n * run + n)
                        .map(|s| ElementId::new(client, s))
                        .collect()
                }
                // One id per page, the most pages `n` ids can claim.
                7 => {
                    let start = next[c];
                    next[c] += PAGE as u64 * n;
                    (0..n)
                        .map(|k| ElementId::new(client, start + PAGE as u64 * k))
                        .collect()
                }
                // Removals (see `doomed`) insert nothing.
                9 | 10 => Vec::new(),
                // Interleaved clients, same sequence numbers.
                _ => {
                    let start = *next.iter().max().expect("four clients");
                    next.iter_mut().for_each(|s| *s = start + n);
                    (start..start + n)
                        .flat_map(|s| (0..4).map(move |k| ElementId::new(k, s)))
                        .collect()
                }
            }
        }

        /// The ids a removal op (kind 9 or 10) asks for: `n` inserted ids
        /// in insertion order from a point of the history, which takes row,
        /// parked and fallback ids alike and empties whole pages; or ids
        /// never inserted, one past the client's row and one in the
        /// fallback's corner.
        fn doomed(op: (u8, u32, u64), next: &[u64; 4], held: &[ElementId]) -> Vec<ElementId> {
            let (kind, client, n) = (op.0, op.1 % 4, op.2);
            if kind == 9 {
                let start = (7 * n) as usize % held.len().max(1);
                held.iter().skip(start).take(n as usize).copied().collect()
            } else {
                vec![
                    ElementId::new(client, next[client as usize] + n),
                    ElementId::new(MAX_CLIENT - client, MAX_SEQ - n),
                ]
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Against a `HashMap` model: `insert`, `insert_if_absent`,
            /// `remove` and `get` return what the model returns, `len` and
            /// the `iter` multiset match, and the slot bounds hold after
            /// every op.
            #[test]
            fn prop_matches_hash_map_model(
                ops in proptest::collection::vec((0u8..11, 0u32..4, 1u64..120), 1..24),
            ) {
                let mut map = IdMap::default();
                let mut model: HashMap<ElementId, u64> = HashMap::new();
                let mut next = [0u64; 4];
                let mut held = Vec::new();
                let mut stamp = 0u64;
                for op in ops {
                    if op.0 >= 9 {
                        for id in doomed(op, &next, &held) {
                            prop_assert_eq!(map.remove(&id), model.remove(&id));
                        }
                    }
                    for id in expand(op, &mut next, &held) {
                        stamp += 1;
                        if stamp.is_multiple_of(3) {
                            let absent = !model.contains_key(&id);
                            model.entry(id).or_insert(stamp);
                            prop_assert_eq!(map.insert_if_absent(id, stamp), absent);
                        } else {
                            prop_assert_eq!(map.insert(id, stamp), model.insert(id, stamp));
                        }
                        held.push(id);
                    }
                    prop_assert_eq!(map.len(), model.len());
                    assert_slot_bound(&map);
                }
                for id in &held {
                    prop_assert_eq!(map.get(id), model.get(id));
                    // A neighbour that may or may not be held.
                    let near = ElementId(id.0 ^ 1);
                    prop_assert_eq!(map.get(&near), model.get(&near));
                    prop_assert_eq!(map.contains_key(&near), model.contains_key(&near));
                }
                let mut seen: Vec<(ElementId, u64)> = map.iter().map(|(id, v)| (id, *v)).collect();
                let mut expected: Vec<(ElementId, u64)> = model.into_iter().collect();
                seen.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(seen, expected);
            }
        }
    }
}
