//! Epoch-stamped collision counters.
//!
//! The query phase maintains `#Col(o)` for every object that collides
//! with the query at the current radius. A `HashMap` would allocate per
//! query; instead we keep flat arrays indexed by object id and bump an
//! epoch to "clear" in O(1) between queries. The count and its epoch
//! stamp are packed into one `u64` word (`epoch << 32 | count`) so the
//! counting hot loop — the single most executed code in a query, one
//! increment per collision — touches exactly one cache line per object
//! instead of two parallel arrays. A separate flag array (same epoch
//! trick) remembers which objects were already verified, so an object
//! is never verified twice even though its count keeps growing past `l`.
//! A store hands ids out as offsets from a first id, and a
//! [`CounterView`] that starts at that id counts them as they are.

/// Collision counter for up to `n` objects.
#[derive(Debug)]
pub struct CollisionCounter {
    /// Per-object `epoch << 32 | count` word.
    state: Vec<u64>,
    verified_epoch: Vec<u32>,
    epoch: u32,
}

impl CollisionCounter {
    /// Counter sized for object ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self { state: vec![0; n], verified_epoch: vec![0; n], epoch: 0 }
    }

    /// Begin a new query: logically clears all counts and verified flags.
    pub fn begin_query(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped (after 2^32 queries): hard-reset the stamps so
            // stale entries from epoch 0 cannot alias.
            self.state.fill(0);
            self.verified_epoch.fill(0);
            self.epoch = 1;
        }
    }

    /// The counts of the ids from `first` up, indexed by their offset
    /// from it: what a store's slice of offsets from `first` counts
    /// against, with no add per id.
    ///
    /// # Panics
    /// Panics when `first` is past the counter's capacity.
    #[inline]
    pub fn view(&mut self, first: u32) -> CounterView<'_> {
        let from = first as usize;
        CounterView {
            state: &mut self.state[from..],
            verified_epoch: &mut self.verified_epoch[from..],
            epoch: self.epoch,
        }
    }

    /// Capacity (number of object ids representable).
    pub fn capacity(&self) -> usize {
        self.state.len()
    }
}

/// The counts of the ids from one id up ([`CollisionCounter::view`]),
/// indexed by offset from it.
#[derive(Debug)]
pub struct CounterView<'a> {
    state: &'a mut [u64],
    verified_epoch: &'a mut [u32],
    epoch: u32,
}

impl CounterView<'_> {
    /// Increment the collision count of the id at offset `i`; returns
    /// the new count.
    ///
    /// Branchless on purpose: whether a touched object's stamp is
    /// current is data-dependent (≈ one stale touch then several fresh
    /// ones per object), so a branch here mispredicts constantly in the
    /// hottest loop of a query. `old_count * same_epoch + 1` compiles to
    /// a compare + masked multiply with no jump.
    #[inline]
    pub fn increment(&mut self, i: usize) -> u32 {
        let v = self.state[i];
        let same = u32::from((v >> 32) as u32 == self.epoch);
        let c = (v as u32) * same + 1;
        self.state[i] = (u64::from(self.epoch) << 32) | u64::from(c);
        c
    }

    /// Hint that the counter word at offset `i` will be incremented
    /// shortly (see [`crate::kernels::prefetch_read`]); offsets past the
    /// end are ignored.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        crate::kernels::prefetch_read(self.state, i);
    }

    /// Mark the id at offset `i` verified; returns `false` when it
    /// already was.
    #[inline]
    pub fn mark_verified(&mut self, i: usize) -> bool {
        if self.verified_epoch[i] == self.epoch {
            false
        } else {
            self.verified_epoch[i] = self.epoch;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut c = CollisionCounter::new(10);
        c.begin_query();
        let mut v = c.view(0);
        assert_eq!(v.increment(3), 1);
        assert_eq!(v.increment(3), 2);
        assert_eq!(v.increment(5), 1);
        assert_eq!(v.increment(3), 3);
    }

    #[test]
    fn a_view_counts_from_its_first_id() {
        let mut c = CollisionCounter::new(10);
        c.begin_query();
        assert_eq!(c.view(4).increment(1), 1);
        assert!(c.view(4).mark_verified(1));
        // Offset 1 from id 4 and offset 5 from id 0 are one id.
        assert_eq!(c.view(0).increment(5), 2);
        assert!(!c.view(0).mark_verified(5));
        assert_eq!(c.view(9).increment(0), 1);
        assert_eq!(c.view(10).state.len(), 0);
    }

    #[test]
    #[should_panic]
    fn a_view_past_the_capacity_is_refused() {
        CollisionCounter::new(10).view(11);
    }

    #[test]
    fn begin_query_resets_logically() {
        let mut c = CollisionCounter::new(4);
        c.begin_query();
        c.view(0).increment(1);
        c.view(0).increment(1);
        c.view(0).mark_verified(1);
        c.begin_query();
        assert!(c.view(0).mark_verified(1), "a stale flag must not leak across queries");
        assert_eq!(c.view(0).increment(1), 1, "a stale count must not leak across queries");
    }

    #[test]
    fn verification_happens_once() {
        let mut c = CollisionCounter::new(4);
        c.begin_query();
        let mut v = c.view(0);
        assert!(v.mark_verified(2));
        assert!(!v.mark_verified(2));
        assert!(v.mark_verified(3));
    }

    #[test]
    fn epoch_wrap_is_safe() {
        let mut c = CollisionCounter::new(2);
        c.begin_query();
        c.view(0).increment(0);
        c.view(0).mark_verified(0);
        // Force a wrap.
        c.epoch = u32::MAX;
        c.begin_query();
        assert_eq!(c.epoch, 1);
        let mut v = c.view(0);
        assert!(v.mark_verified(0), "a wrapped epoch must not alias old flags");
        assert_eq!(v.increment(0), 1, "a wrapped epoch must not alias old stamps");
    }

    #[test]
    fn counts_saturate_well_below_the_stamp_bits() {
        // Many increments never bleed into the epoch half of the word.
        let mut c = CollisionCounter::new(1);
        c.begin_query();
        let mut v = c.view(0);
        for expect in 1..=1000u32 {
            assert_eq!(v.increment(0), expect);
        }
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(CollisionCounter::new(7).capacity(), 7);
    }
}
