//! The monotone counter.
//!
//! One relaxed `AtomicU64`. The service's hot counters are bumped by
//! its one batcher thread alone, and the counters connection threads
//! bump (errors, refusals, router legs) move once per request, so no
//! line is contended enough to be worth striping. Reads are relaxed
//! too: a scrape may miss an in-flight increment, but successive
//! scrapes never go backwards, which is all Prometheus asks.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone `u64` counter safe to bump from any thread.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_from_many_threads_are_exact() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..25_000 {
                        c.inc();
                    }
                    c.add(5);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8 * 25_000 + 8 * 5);
    }
}
