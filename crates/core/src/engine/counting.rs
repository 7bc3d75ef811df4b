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

    /// Increment the collision count of `oid`; returns the new count.
    ///
    /// Branchless on purpose: whether a touched object's stamp is
    /// current is data-dependent (≈ one stale touch then several fresh
    /// ones per object), so a branch here mispredicts constantly in the
    /// hottest loop of a query. `old_count * same_epoch + 1` compiles to
    /// a compare + masked multiply with no jump.
    #[inline]
    pub fn increment(&mut self, oid: u32) -> u32 {
        let i = oid as usize;
        let v = self.state[i];
        let same = u32::from((v >> 32) as u32 == self.epoch);
        let c = (v as u32) * same + 1;
        self.state[i] = (u64::from(self.epoch) << 32) | u64::from(c);
        c
    }

    /// Hint that `oid`'s counter word will be incremented shortly (see
    /// [`crate::kernels::prefetch_read`]); out-of-range ids are
    /// ignored.
    #[inline]
    pub fn prefetch(&self, oid: u32) {
        crate::kernels::prefetch_read(&self.state, oid as usize);
    }

    /// Current count of `oid` in this query (0 when untouched).
    pub fn count(&self, oid: u32) -> u32 {
        let v = self.state[oid as usize];
        if (v >> 32) as u32 == self.epoch {
            v as u32
        } else {
            0
        }
    }

    /// Mark `oid` verified; returns `false` when it already was.
    #[inline]
    pub fn mark_verified(&mut self, oid: u32) -> bool {
        let i = oid as usize;
        if self.verified_epoch[i] == self.epoch {
            false
        } else {
            self.verified_epoch[i] = self.epoch;
            true
        }
    }

    /// Whether `oid` was verified in this query.
    pub fn is_verified(&self, oid: u32) -> bool {
        self.verified_epoch[oid as usize] == self.epoch
    }

    /// Capacity (number of object ids representable).
    pub fn capacity(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut c = CollisionCounter::new(10);
        c.begin_query();
        assert_eq!(c.count(3), 0);
        assert_eq!(c.increment(3), 1);
        assert_eq!(c.increment(3), 2);
        assert_eq!(c.increment(5), 1);
        assert_eq!(c.count(3), 2);
        assert_eq!(c.count(5), 1);
        assert_eq!(c.count(0), 0);
    }

    #[test]
    fn begin_query_resets_logically() {
        let mut c = CollisionCounter::new(4);
        c.begin_query();
        c.increment(1);
        c.increment(1);
        c.mark_verified(1);
        c.begin_query();
        assert_eq!(c.count(1), 0);
        assert!(!c.is_verified(1));
        assert_eq!(c.increment(1), 1, "stale count must not leak across queries");
    }

    #[test]
    fn verification_happens_once() {
        let mut c = CollisionCounter::new(4);
        c.begin_query();
        assert!(c.mark_verified(2));
        assert!(!c.mark_verified(2));
        assert!(c.is_verified(2));
        assert!(!c.is_verified(3));
    }

    #[test]
    fn epoch_wrap_is_safe() {
        let mut c = CollisionCounter::new(2);
        c.begin_query();
        c.increment(0);
        c.mark_verified(0);
        // Force a wrap.
        c.epoch = u32::MAX;
        c.begin_query();
        assert_eq!(c.epoch, 1);
        assert_eq!(c.count(0), 0, "wrapped epoch must not alias old stamps");
        assert!(!c.is_verified(0));
    }

    #[test]
    fn counts_saturate_well_below_the_stamp_bits() {
        // Many increments never bleed into the epoch half of the word.
        let mut c = CollisionCounter::new(1);
        c.begin_query();
        for expect in 1..=1000u32 {
            assert_eq!(c.increment(0), expect);
        }
        assert_eq!(c.count(0), 1000);
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(CollisionCounter::new(7).capacity(), 7);
    }
}
