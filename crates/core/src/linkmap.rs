//! A compact open-addressed map keyed by [`Link`]: the table behind
//! link-frequency tabulation.
//!
//! The paper's detector tallies every link of every captured route, so
//! training and detection hammer a `Link → count` map. `std`'s `HashMap`
//! pays SipHash plus pointer-chasing per tally. Here a link's two `u32`
//! node ids pack into one `u64` key. The key is mixed with the unkeyed
//! splitmix64 finalizer and probed linearly in a power-of-two table,
//! keys and values in flat arrays. Served node ids come from the wire,
//! so keys are mixed, not used as they are: runs of consecutive ids must
//! not land in one probe run.
//!
//! The table starts at 256 slots and doubles before it is a quarter
//! full, so probe runs stay short. `LinkMap::count_path` checks the
//! capacity once per route, not once per link. Keys are never removed,
//! which keeps linear probing trivially correct.
//!
//! Iteration runs in slot order, which depends on the table size and on
//! the order keys arrived in. No output may depend on it: every reader
//! either combines values exactly (integer sums, maxima with a link
//! tie-break) or sorts by link first.

use manet_sim::{Link, NodeId};

/// Sentinel for an empty slot. Unreachable as a packed link: the low
/// endpoint of a normalized link is strictly below the high one, so the
/// packed value can never have all bits set.
const EMPTY: u64 = u64::MAX;

/// Slots allocated on first use.
const MIN_SLOTS: usize = 256;

#[inline]
fn pack(link: Link) -> u64 {
    (u64::from(link.lo().0) << 32) | u64::from(link.hi().0)
}

#[inline]
fn unpack(key: u64) -> Link {
    Link::new(NodeId((key >> 32) as u32), NodeId(key as u32))
}

/// Finalizer of splitmix64 — a full-avalanche mix of the packed key.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Open-addressed map from [`Link`] to `V`; keys are never removed.
/// At most a quarter of its slots are full, and it iterates in slot
/// order (see the module doc for what may depend on that order).
#[derive(Clone, Debug)]
pub struct LinkMap<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
}

impl<V: Copy + Default> Default for LinkMap<V> {
    fn default() -> Self {
        LinkMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
        }
    }
}

impl<V: Copy + Default> LinkMap<V> {
    /// An empty map (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct links stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index for `key`: its own slot if present, else the empty
    /// slot where it would be inserted. Requires a non-empty table.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value stored for `link`, if any.
    #[inline]
    pub fn get(&self, link: Link) -> Option<V> {
        if self.keys.is_empty() {
            return None;
        }
        let key = pack(link);
        let i = self.probe(key);
        (self.keys[i] == key).then(|| self.vals[i])
    }

    /// Mutable access to the value for `link`, inserting `V::default()`
    /// if absent.
    #[inline]
    pub fn entry_or_default(&mut self, link: Link) -> &mut V {
        self.reserve(1);
        let i = self.slot_of(pack(link));
        &mut self.vals[i]
    }

    /// The slot holding `key`, claimed if absent. Requires room for one
    /// more key.
    #[inline]
    fn slot_of(&mut self, key: u64) -> usize {
        let i = self.probe(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.len += 1;
        }
        i
    }

    /// Make room for `additional` more keys without passing a quarter
    /// of the slots.
    #[inline]
    fn reserve(&mut self, additional: usize) {
        let needed = (self.len + additional) * 4;
        if needed > self.keys.len() {
            self.grow(needed.next_power_of_two().max(MIN_SLOTS));
        }
    }

    fn grow(&mut self, new_cap: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_cap]);
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// All `(link, value)` pairs, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (Link, V)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (unpack(k), v))
    }

    /// All values, unordered.
    pub fn values(&self) -> impl Iterator<Item = V> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY)
            .map(|(_, &v)| v)
    }

    /// Drop all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.vals.fill(V::default());
        self.len = 0;
    }
}

impl LinkMap<u32> {
    /// Count each link of the node path `path` once: the tabulation
    /// kernel behind every route and recorded set. One capacity check
    /// covers the whole path. `path` is a route's node sequence, so no
    /// two consecutive nodes are equal.
    #[inline]
    pub(crate) fn count_path(&mut self, path: &[NodeId]) {
        self.reserve(path.len().saturating_sub(1));
        for hop in path.windows(2) {
            let i = self.slot_of(pack(Link::new(hop[0], hop[1])));
            self.vals[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn link(a: u32, b: u32) -> Link {
        Link::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn counts_like_a_hashmap() {
        let mut m: LinkMap<u32> = LinkMap::new();
        let mut paths: LinkMap<u32> = LinkMap::new();
        let mut reference: HashMap<Link, u32> = HashMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as u32
        };
        // Pseudo-random loop-free paths over 60 node ids, with plenty
        // of repeated links, through both the per-link entry and the
        // per-path kernel.
        for _ in 0..800 {
            let mut path: Vec<NodeId> = Vec::new();
            for _ in 0..2 + next(12) {
                let id = NodeId(next(60));
                if !path.contains(&id) {
                    path.push(id);
                }
            }
            for hop in path.windows(2) {
                let l = link(hop[0].0, hop[1].0);
                *m.entry_or_default(l) += 1;
                *reference.entry(l).or_insert(0) += 1;
            }
            paths.count_path(&path);
            assert!(paths.len() * 4 <= paths.keys.len(), "load stays at 1/4");
        }
        assert!(paths.len() > 64, "the table grew past its first size");
        let mut from_ref: Vec<(Link, u32)> = reference.iter().map(|(&l, &c)| (l, c)).collect();
        from_ref.sort();
        for map in [&m, &paths] {
            assert_eq!(map.len(), reference.len());
            for (&l, &c) in &reference {
                assert_eq!(map.get(l), Some(c), "{l}");
            }
            let mut from_iter: Vec<(Link, u32)> = map.iter().collect();
            from_iter.sort();
            assert_eq!(from_iter, from_ref);
            let mut values: Vec<u32> = map.values().collect();
            values.sort();
            let mut expected: Vec<u32> = from_ref.iter().map(|&(_, c)| c).collect();
            expected.sort();
            assert_eq!(values, expected);
        }
    }

    #[test]
    fn missing_links_read_as_absent() {
        let mut m: LinkMap<u32> = LinkMap::new();
        assert_eq!(m.get(link(1, 2)), None);
        assert!(m.is_empty());
        *m.entry_or_default(link(1, 2)) += 1;
        assert_eq!(m.get(link(1, 2)), Some(1));
        assert_eq!(m.get(link(2, 3)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut m: LinkMap<u32> = LinkMap::new();
        for i in 1..40 {
            *m.entry_or_default(link(0, i)) += 1;
        }
        assert_eq!(m.len(), 39);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(link(0, 5)), None);
        *m.entry_or_default(link(0, 5)) += 1;
        assert_eq!(m.get(link(0, 5)), Some(1));
    }

    #[test]
    fn survives_growth_across_many_distinct_links() {
        let mut m: LinkMap<u64> = LinkMap::new();
        for a in 0..50u32 {
            for b in (a + 1)..50 {
                *m.entry_or_default(link(a, b)) += u64::from(a) + u64::from(b);
            }
        }
        assert_eq!(m.len(), 50 * 49 / 2);
        assert_eq!(m.get(link(3, 7)), Some(10));
        assert_eq!(m.get(link(48, 49)), Some(97));
    }

    #[test]
    fn extreme_node_ids_are_representable() {
        // lo < hi always holds, so the packed key never collides with
        // the EMPTY sentinel even at the id-space edge.
        let mut m: LinkMap<u32> = LinkMap::new();
        let l = link(u32::MAX - 1, u32::MAX);
        *m.entry_or_default(l) += 7;
        assert_eq!(m.get(l), Some(7));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(l, 7)]);
    }
}
