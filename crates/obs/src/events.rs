//! A bounded ring of causally ordered events.
//!
//! The flight recorder of the `esrd` daemon: every protocol point the
//! control core reports — an ET lifecycle hop, an absorbed duplicate, a view change, a
//! checkpoint cut — drops one typed event here. The ring is bounded so
//! a long-lived daemon never grows without bound; old events are
//! evicted and counted. Each event carries a monotone sequence number
//! assigned under the ring lock — the *causal* order of events at this
//! site — plus a caller-supplied timestamp (the ring itself never
//! reads a clock).
//!
//! The ring is generic over the event type so this crate stays below
//! the protocol crates; the runtimes instantiate it with
//! `esr_replica::span::Event`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Events a ring retains before evicting the oldest. At ~10 events per
/// ET lifecycle this keeps the last few thousand ETs — enough to trace
/// any ET a load driver just pushed, in bounded memory.
pub const EVENT_RING_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct RingInner<T> {
    events: VecDeque<(u64, u64, T)>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, shareable ring of `(ring_seq, micros, event)` records.
/// Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct EventRing<T> {
    inner: Arc<Mutex<RingInner<T>>>,
    capacity: usize,
}

impl<T: Clone> EventRing<T> {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(RingInner {
                events: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            })),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one event at timestamp `micros`.
    pub fn record(&self, micros: u64, event: T) {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back((seq, micros, event));
    }

    /// The retained events `keep` selects, oldest first, paired with
    /// the count of events evicted because the ring was full.
    pub fn dump(&self, keep: impl Fn(&T) -> bool) -> (u64, Vec<(u64, u64, T)>) {
        let inner = self.lock();
        let events = inner
            .events
            .iter()
            .filter(|(_, _, e)| keep(e))
            .cloned()
            .collect();
        (inner.dropped, events)
    }
}

impl<T: Clone> Default for EventRing<T> {
    /// A ring of [`EVENT_RING_CAPACITY`] events.
    fn default() -> Self {
        Self::new(EVENT_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_causal_order() {
        let ring = EventRing::new(10);
        ring.record(5, "applied et=1");
        ring.record(3, "applied et=2"); // timestamps may regress…
        let (dropped, es) = ring.dump(|_| true);
        assert_eq!(dropped, 0);
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].0, 0);
        assert_eq!(es[1].0, 1); // …but seq never does
        assert_eq!(es[0].2, "applied et=1");
    }

    #[test]
    fn bounded_ring_evicts_oldest() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.record(i, i);
        }
        let (dropped, es) = ring.dump(|_| true);
        assert_eq!(es.len(), 3);
        assert_eq!(dropped, 2);
        assert_eq!(es[0].0, 2, "oldest two evicted");
        assert_eq!(es[2].0, 4);
    }

    #[test]
    fn dump_filters_without_renumbering() {
        let ring = EventRing::new(8);
        for i in 0..4u64 {
            ring.record(i, i);
        }
        let (_, odd) = ring.dump(|e| e % 2 == 1);
        assert_eq!(odd, vec![(1, 1, 1), (3, 3, 3)]);
    }

    #[test]
    fn clones_share_the_ring() {
        let a = EventRing::new(8);
        let b = a.clone();
        a.record(0, "one");
        b.record(1, "two");
        assert_eq!(a.dump(|_| true).1.len(), 2);
        assert_eq!(b.dump(|_| true).1[1].2, "two");
    }
}
