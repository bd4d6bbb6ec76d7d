//! The element index: a map keyed by [`ElementId`] that stores honest ids in
//! dense per-client rows and everything else in a hash map.
//!
//! An [`ElementId`] is `client_index << 40 | seq`, and honest clients mint
//! `seq` = 0, 1, 2, …, so the entries of one client form an array: `rows[c]`
//! holds client `c`'s values in slots indexed by `seq`. A lookup is two
//! bounds checks, an insert of the next sequence number is a push, and no
//! table is ever rehashed.
//!
//! Ids are chosen by the sender and are not bound to the signer, so the dense
//! part is sized by what it *holds*, never by what an id *claims*. A row
//! accepts `seq` only if it is already covered (`seq < slots.len()`) or lies
//! within twice the entries the row stores plus 64; the same rule decides
//! which client indices get a row at all. Hence a row never has more than
//! `2 · filled + 64` slots, and a forged id at `seq = 2^40 − 1` or
//! `client_index = 2^24 − 1` allocates nothing. Whatever does not fit lands
//! in the fallback hash map — still found, still counted, at the price every
//! id paid before this container existed. An id parked in the fallback while
//! its row was short is looked up there until its next insert, which moves it
//! into the row.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::element::ElementId;

/// Indices a row (or the row table) accepts beyond twice what it stores.
const SLACK: u64 = 64;

type Fallback<V> = HashMap<ElementId, V, BuildHasherDefault<IdHasher>>;

/// Hashes an [`ElementId`] for the fallback: the 64-bit finaliser of
/// MurmurHash3, in which every input bit reaches every output bit.
///
/// Fallback ids are whatever a sender made up, and the streams that land
/// there are structured — same `seq` under many clients, one client's ids a
/// fixed stride apart. `FxHasher` multiplies once, so a bucket index (the
/// hash's low bits) sees only the id's low bits and ids that differ above
/// bit 40 share one probe sequence; here they spread. The function is fixed
/// (same table layout every run) and cheap (a flood's ids are probed as often
/// as honest ones; SipHash cost `hash_flood` 16 % of its throughput). It
/// is also invertible: it does nothing against a sender who computes
/// preimages, which only a per-process secret key would, at the price of the
/// repeatable layout.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("an ElementId hashes as one u64");
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let mut h = id;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        self.0 = h;
    }
}

/// The density rule shared by rows and the row table: `index` is already
/// covered, or within twice the stored entries plus [`SLACK`].
#[inline]
fn fits(index: u64, len: usize, filled: usize) -> bool {
    index < len as u64 || index <= 2 * filled as u64 + SLACK
}

/// One client's values, indexed by sequence number.
#[derive(Clone, Debug)]
struct Row<V> {
    slots: Vec<Option<V>>,
    filled: usize,
}

/// A map from [`ElementId`] to `V` (see the module docs).
#[derive(Clone, Debug)]
pub struct IdMap<V: Copy> {
    /// `rows[client_index]`; rows no id has reached yet are empty.
    rows: Vec<Row<V>>,
    /// Rows holding at least one entry.
    live_rows: usize,
    /// Entries held in rows (the fallback counts its own).
    dense: usize,
    fallback: Fallback<V>,
}

impl<V: Copy> Default for IdMap<V> {
    /// An empty map; allocates nothing until the first insert.
    fn default() -> Self {
        IdMap {
            rows: Vec::new(),
            live_rows: 0,
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

    /// The value stored under `id`, if any.
    #[inline]
    pub fn get(&self, id: &ElementId) -> Option<&V> {
        let slot = self
            .rows
            .get(id.client_index() as usize)
            // `seq < 2^40`, but compare before narrowing so a 32-bit
            // `usize` cannot alias a far slot onto a near one.
            .filter(|row| id.seq() < row.slots.len() as u64)
            .and_then(|row| row.slots[id.seq() as usize].as_ref());
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
        let (client, seq) = (id.client_index() as usize, id.seq());
        let (slots, filled) = self
            .rows
            .get(client)
            .map_or((0, 0), |row| (row.slots.len(), row.filled));
        if !fits(client as u64, self.rows.len(), self.live_rows) || !fits(seq, slots, filled) {
            return self.fallback.insert(id, value);
        }
        if client >= self.rows.len() {
            self.rows.resize(
                client + 1,
                Row {
                    slots: Vec::new(),
                    filled: 0,
                },
            );
        }
        let row = &mut self.rows[client];
        let seq = seq as usize; // `fits` bounded it by a `usize` length
        if seq >= row.slots.len() {
            row.slots.resize(seq + 1, None);
        }
        let previous = row.slots[seq].replace(value);
        if previous.is_some() {
            return previous;
        }
        row.filled += 1;
        self.live_rows += usize::from(row.filled == 1);
        self.dense += 1;
        // The id may have been parked in the fallback while this row was
        // too short to take it: it lives in the row from now on.
        if self.fallback.is_empty() {
            None
        } else {
            self.fallback.remove(&id)
        }
    }

    /// Every entry, rows first (by client, then sequence number), then the
    /// fallback in its table order.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, &V)> {
        let dense = self.rows.iter().enumerate().flat_map(|(client, row)| {
            row.slots.iter().enumerate().filter_map(move |(seq, slot)| {
                let value = slot.as_ref()?;
                Some((ElementId::new(client as u32, seq as u64), value))
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

    /// The density bound, checked on the row table and on every row.
    fn assert_slot_bound<V: Copy>(map: &IdMap<V>) {
        assert!(map.rows.len() as u64 <= 2 * map.live_rows as u64 + SLACK + 1);
        for row in &map.rows {
            assert!(row.slots.len() as u64 <= 2 * row.filled as u64 + SLACK);
            assert_eq!(row.filled, row.slots.iter().flatten().count());
        }
        assert_eq!(map.rows.iter().map(|r| r.filled).sum::<usize>(), map.dense);
    }

    #[test]
    fn default_map_is_empty_and_unallocated() {
        let map: IdMap<u64> = IdMap::default();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.rows.capacity() + map.fallback.capacity(), 0);
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
        assert!(map.fallback.is_empty());
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
        let hostile = [
            ElementId::new(0, MAX_SEQ),
            ElementId::new(MAX_CLIENT, 0),
            ElementId::new(MAX_CLIENT, MAX_SEQ),
            ElementId::new(0, SLACK + 1),
            ElementId::new(SLACK as u32 + 1, 0),
        ];
        for (i, id) in hostile.iter().enumerate() {
            assert_eq!(map.insert(*id, i), None);
        }
        assert_eq!(map.len(), hostile.len());
        assert_eq!(map.fallback.len(), hostile.len());
        assert!(map.rows.is_empty());
        for (i, id) in hostile.iter().enumerate() {
            assert_eq!(map.get(id), Some(&i));
        }
        // The edge of the rule: exactly SLACK is taken by a fresh row.
        assert_eq!(map.insert(ElementId::new(0, SLACK), 99), None);
        assert_eq!(map.rows[0].slots.len() as u64, SLACK + 1);
        assert_slot_bound(&map);
    }

    #[test]
    fn parked_id_is_found_and_migrates_on_its_next_insert() {
        let mut map = IdMap::default();
        let parked = ElementId::new(0, 1000);
        assert_eq!(map.insert(parked, 1), None);
        assert_eq!(map.fallback.len(), 1);
        // The row grows up to the parked id, then past it: the id is
        // covered by an empty slot now and must still be found.
        for seq in (0..1000).chain(1001..1100) {
            assert_eq!(map.insert(ElementId::new(0, seq), 0), None);
        }
        assert!(map.rows[0].slots.len() > 1000);
        assert_eq!(map.get(&parked), Some(&1));
        assert_eq!(map.len(), 1100);
        assert_eq!(map.iter().filter(|(id, _)| *id == parked).count(), 1);
        // Its next insert reports the parked value and moves it home.
        assert_eq!(map.insert(parked, 2), Some(1));
        assert!(map.fallback.is_empty());
        assert_eq!(map.get(&parked), Some(&2));
        assert_eq!(map.len(), 1100);
        assert_eq!(map.insert(parked, 3), Some(2));
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
                assert_eq!(map.fallback.len(), ids.len(), "stream must miss the rows");
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
                    let far = start + 3 * n + 200;
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Against a `HashMap` model: `insert` and `get` return what the
            /// model returns, `len` and the `iter` multiset match, and the
            /// slot bound holds after every op.
            #[test]
            fn prop_matches_hash_map_model(
                ops in proptest::collection::vec((0u8..7, 0u32..4, 1u64..120), 1..24),
            ) {
                let mut map = IdMap::default();
                let mut model: HashMap<ElementId, u64> = HashMap::new();
                let mut next = [0u64; 4];
                let mut held = Vec::new();
                let mut stamp = 0u64;
                for op in ops {
                    for id in expand(op, &mut next, &held) {
                        stamp += 1;
                        prop_assert_eq!(map.insert(id, stamp), model.insert(id, stamp));
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
