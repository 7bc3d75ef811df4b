//! Pinned buffer pool over a [`DiskPageFile`] with clock eviction.
//!
//! Callers receive a [`PinnedPage`] guard that keeps the frame pinned
//! (unevictable) while in scope, so decoders can borrow payload bytes
//! without copying.
//!
//! Eviction is the classic clock (second-chance) algorithm: each frame has
//! a reference bit set on access; the clock hand sweeps frames, skipping
//! pinned ones, clearing reference bits, and evicting the first
//! unreferenced unpinned frame. If every frame is pinned the read is
//! served *around* the pool (counted as a miss, nothing cached) rather
//! than deadlocking.
//!
//! Counters ([`PinnedPoolStats`]: requests / hits / misses / evictions)
//! feed the `cc_bufpool_*` Prometheus families exported by cc-service.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::diskfile::DiskPageFile;

/// Buffer pool state: the monotone access counters and the frames in use.
/// Snapshot via [`PinnedPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinnedPoolStats {
    /// Page requests served (hits + misses).
    pub requests: u64,
    /// Requests satisfied from a resident frame.
    pub hits: u64,
    /// Requests that went to disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Most pages the pool holds.
    pub capacity: u64,
    /// Pages resident now.
    pub resident: u64,
}

impl PinnedPoolStats {
    /// Fraction of requests served from memory (1.0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

struct Frame {
    page_no: u32,
    data: Arc<Vec<u8>>,
    pins: u32,
    referenced: bool,
}

struct PoolInner {
    frames: Vec<Option<Frame>>,
    map: HashMap<u32, usize>,
    hand: usize,
}

/// Clock-eviction buffer pool with pin counts. See module docs.
pub struct PinnedPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PinnedPool {
    /// Create a pool holding at most `capacity` pages (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PinnedPool {
            inner: Mutex::new(PoolInner {
                frames: (0..capacity).map(|_| None).collect(),
                map: HashMap::with_capacity(capacity),
                hand: 0,
            }),
            capacity,
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Snapshot the access counters and the frames in use. Counting
    /// the resident frames takes the pool lock, so this is for scrapes
    /// and reports, not the query path.
    pub fn stats(&self) -> PinnedPoolStats {
        PinnedPoolStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity as u64,
            resident: self.inner.lock().map.len() as u64,
        }
    }

    /// Reset the access counters (frames stay resident).
    pub fn reset_stats(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Fetch a page through the pool, pinning its frame for the guard's
    /// lifetime. Checksum failures and I/O errors surface unchanged.
    pub fn get<'p>(&'p self, file: &DiskPageFile, page_no: u32) -> io::Result<PinnedPage<'p>> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&page_no) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let frame = inner.frames[slot].as_mut().expect("mapped frame is resident");
            frame.referenced = true;
            frame.pins += 1;
            let data = Arc::clone(&frame.data);
            return Ok(PinnedPage { pool: Some(self), page_no, data, missed: false });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Holding the lock across the read keeps the miss path simple and
        // prevents duplicate frames for the same page. A miss from the
        // page cache costs about 2 µs (pread, folded CRC, copy), and two
        // threads querying a pool of a twentieth of the file wait on
        // this lock for under 4 % of their query time (EXPERIMENTS.md
        // §W16), too little to pay for reading outside it.
        let mut payload = Vec::new();
        file.read_payload(page_no, &mut payload)?;
        let data = Arc::new(payload);
        match Self::find_victim(&mut inner, self.capacity) {
            Some(slot) => {
                if inner.frames[slot].is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(old) = inner.frames[slot].take() {
                    inner.map.remove(&old.page_no);
                }
                inner.map.insert(page_no, slot);
                inner.frames[slot] =
                    Some(Frame { page_no, data: Arc::clone(&data), pins: 1, referenced: true });
                Ok(PinnedPage { pool: Some(self), page_no, data, missed: true })
            }
            // Every frame pinned: serve around the pool.
            None => Ok(PinnedPage { pool: None, page_no, data, missed: true }),
        }
    }

    /// Clock sweep: return a usable slot, or `None` if every frame is pinned.
    fn find_victim(inner: &mut PoolInner, capacity: usize) -> Option<usize> {
        // Two full sweeps: the first clears reference bits, the second is
        // then guaranteed to find an unreferenced unpinned frame if any
        // frame is unpinned at all.
        for _ in 0..2 * capacity {
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % capacity;
            match inner.frames[slot].as_mut() {
                None => return Some(slot),
                Some(f) if f.pins > 0 => continue,
                Some(f) if f.referenced => f.referenced = false,
                Some(_) => return Some(slot),
            }
        }
        None
    }

    fn unpin(&self, page_no: u32) {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&page_no) {
            let frame = inner.frames[slot].as_mut().expect("mapped frame is resident");
            debug_assert!(frame.pins > 0, "unpin without pin");
            frame.pins = frame.pins.saturating_sub(1);
        }
    }
}

/// Guard over a resident page's payload; the frame stays pinned until drop.
pub struct PinnedPage<'p> {
    /// `None` when the page was served around a fully-pinned pool.
    pool: Option<&'p PinnedPool>,
    page_no: u32,
    data: Arc<Vec<u8>>,
    /// Whether this request read the page from the file (a miss).
    missed: bool,
}

impl PinnedPage<'_> {
    /// Page number this guard refers to.
    pub fn page_no(&self) -> u32 {
        self.page_no
    }

    /// Whether this request was a miss: the page was read from the file.
    pub fn missed(&self) -> bool {
        self.missed
    }
}

impl std::ops::Deref for PinnedPage<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool {
            pool.unpin(self.page_no);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskfile::DiskPageFileWriter;
    use crate::wal::scratch_dir;

    fn sample_file(tag: &str, pages: u8) -> (std::path::PathBuf, DiskPageFile) {
        let dir = scratch_dir(tag);
        let path = dir.join("pool.ccpg");
        let mut w = DiskPageFileWriter::create(&path).unwrap();
        for i in 0..pages {
            w.append_page(&[i; 64]).unwrap();
        }
        (dir, w.finish().unwrap())
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (dir, file) = sample_file("pool_counts", 4);
        let pool = PinnedPool::new(2);
        for i in 0..3 {
            let p = pool.get(&file, 0).unwrap();
            assert_eq!(p[0], 0);
            assert_eq!(p.missed(), i == 0);
        }
        let s = pool.stats();
        assert_eq!((s.requests, s.hits, s.misses), (3, 2, 1));
        assert_eq!(file.reads(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_cycles_through_capacity() {
        let (dir, file) = sample_file("pool_evict", 6);
        let pool = PinnedPool::new(2);
        for i in 0..6 {
            let p = pool.get(&file, i).unwrap();
            assert_eq!(p[0], i as u8);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 6);
        assert_eq!(s.evictions, 4);
        assert_eq!((s.capacity, s.resident), (2, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let (dir, file) = sample_file("pool_pins", 6);
        let pool = PinnedPool::new(2);
        let pinned = pool.get(&file, 0).unwrap();
        for i in 1..6 {
            let _ = pool.get(&file, i).unwrap();
        }
        // Page 0 was never evicted: re-reading it is a hit.
        let before = pool.stats().hits;
        let again = pool.get(&file, 0).unwrap();
        assert_eq!(pool.stats().hits, before + 1);
        assert_eq!(again[0], pinned[0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_pinned_pool_serves_around() {
        let (dir, file) = sample_file("pool_full", 4);
        let pool = PinnedPool::new(2);
        let _a = pool.get(&file, 0).unwrap();
        let _b = pool.get(&file, 1).unwrap();
        let c = pool.get(&file, 2).unwrap();
        assert_eq!(c[0], 2);
        let s = pool.stats();
        assert_eq!((s.resident, s.evictions), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
