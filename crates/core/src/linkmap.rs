//! A compact open-addressed map keyed by [`Link`] — the dense counter
//! behind the link-frequency hot path.
//!
//! The paper's detector tallies every link of every captured route, so
//! `Analysis::train`/`check` hammer a `Link → count` map. `std`'s
//! `HashMap` pays SipHash plus pointer-chasing per tally; here a link's
//! two `u32` node ids pack into one `u64` key that is mixed with
//! splitmix64 and probed linearly in a power-of-two table — one
//! multiply-shift per lookup, keys and values in flat arrays. Keys are
//! never removed, which keeps linear probing trivially correct. Counts
//! may be decremented, to zero at most, inside [`LinkStats`]'s
//! leave-one-out, which restores them before it returns.
//!
//! [`LinkStats`]: crate::stats::LinkStats

use manet_sim::{Link, NodeId};

/// Sentinel for an empty slot. Unreachable as a packed link: the low
/// endpoint of a normalized link is strictly below the high one, so the
/// packed value can never have all bits set.
const EMPTY: u64 = u64::MAX;

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

    /// Mutable access to the value stored for `link`, if any. Never
    /// inserts, so the table never grows here.
    #[inline]
    pub(crate) fn get_mut(&mut self, link: Link) -> Option<&mut V> {
        if self.keys.is_empty() {
            return None;
        }
        let key = pack(link);
        let i = self.probe(key);
        (self.keys[i] == key).then_some(&mut self.vals[i])
    }

    /// Mutable access to the value for `link`, inserting `V::default()`
    /// if absent.
    #[inline]
    pub fn entry_or_default(&mut self, link: Link) -> &mut V {
        // Grow at 3/4 load (and on first use).
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let key = pack(link);
        let i = self.probe(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.len += 1;
        }
        &mut self.vals[i]
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![V::default(); new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
                self.len += 1;
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
        self.iter().map(|(_, v)| v)
    }

    /// Drop all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.vals.fill(V::default());
        self.len = 0;
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
        let mut reference: HashMap<Link, u32> = HashMap::new();
        // Pseudo-random link stream with plenty of repeats.
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((state >> 33) % 60) as u32;
            let b = ((state >> 13) % 60) as u32;
            if a == b {
                continue;
            }
            let l = link(a, b);
            *m.entry_or_default(l) += 1;
            *reference.entry(l).or_insert(0) += 1;
        }
        assert_eq!(m.len(), reference.len());
        for (&l, &c) in &reference {
            assert_eq!(m.get(l), Some(c), "{l}");
        }
        let mut from_iter: Vec<(Link, u32)> = m.iter().collect();
        from_iter.sort();
        let mut from_ref: Vec<(Link, u32)> = reference.into_iter().collect();
        from_ref.sort();
        assert_eq!(from_iter, from_ref);
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
        assert_eq!(m.get_mut(link(2, 3)), None);
        *m.get_mut(link(1, 2)).unwrap() -= 1;
        assert_eq!(m.get(link(1, 2)), Some(0), "a count at zero keeps its key");
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
