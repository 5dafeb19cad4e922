//! A bounded ring of causally ordered events.
//!
//! The flight recorder of the `esrd` daemon: every protocol point the
//! control core reports — an ET lifecycle hop, an absorbed duplicate, a view change, a
//! checkpoint cut — drops one typed event here. The ring is bounded so
//! a long-lived daemon never grows without bound; old events are
//! evicted and counted. Each event carries a monotone sequence number
//! assigned as it is recorded — the *causal* order of events at this
//! site — plus a caller-supplied timestamp (the ring itself never
//! reads a clock). The ring is a plain value: its one owner records
//! through `&mut`, so there is nothing to lock.
//!
//! The ring is generic over the event type so this crate stays below
//! the protocol crates; the runtimes instantiate it with
//! `esr_replica::span::Event`.

use std::collections::VecDeque;

/// Events a ring retains before evicting the oldest. At ~10 events per
/// ET lifecycle this keeps the last few thousand ETs — enough to trace
/// any ET a load driver just pushed, in bounded memory.
pub const EVENT_RING_CAPACITY: usize = 65_536;

/// A bounded ring of `(ring_seq, micros, event)` records.
#[derive(Debug)]
pub struct EventRing<T> {
    events: VecDeque<(u64, u64, T)>,
    next_seq: u64,
    dropped: u64,
    capacity: usize,
}

impl<T: Clone> EventRing<T> {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            capacity: capacity.max(1),
        }
    }

    /// Records one event at timestamp `micros`.
    pub fn record(&mut self, micros: u64, event: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((seq, micros, event));
    }

    /// The retained events `keep` selects, oldest first, paired with
    /// the count of events evicted because the ring was full.
    pub fn dump(&self, keep: impl Fn(&T) -> bool) -> (u64, Vec<(u64, u64, T)>) {
        let events = self
            .events
            .iter()
            .filter(|(_, _, e)| keep(e))
            .cloned()
            .collect();
        (self.dropped, events)
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
        let mut ring = EventRing::new(10);
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
        let mut ring = EventRing::new(3);
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
        let mut ring = EventRing::new(8);
        for i in 0..4u64 {
            ring.record(i, i);
        }
        let (_, odd) = ring.dump(|e| e % 2 == 1);
        assert_eq!(odd, vec![(1, 1, 1), (3, 3, 3)]);
    }
}
