//! The event queue: a priority queue of timestamped events with
//! deterministic FIFO tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::VirtualTime;

/// A scheduled event: fires at `at`; `seq` breaks ties so that events
/// scheduled earlier fire earlier at the same instant.
#[derive(Debug)]
struct Scheduled<E> {
    at: VirtualTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event wins.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule_at(&mut self, at: VirtualTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Removes and returns the earliest event, with its fire time.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// The fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(VirtualTime(30), "c");
        q.schedule_at(VirtualTime(10), "a");
        q.schedule_at(VirtualTime(20), "b");
        assert_eq!(q.pop(), Some((VirtualTime(10), "a")));
        assert_eq!(q.pop(), Some((VirtualTime(20), "b")));
        assert_eq!(q.pop(), Some((VirtualTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(VirtualTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(VirtualTime(7), ());
        q.schedule_at(VirtualTime(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(VirtualTime(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(VirtualTime(7)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(VirtualTime(10), 1);
        q.schedule_at(VirtualTime(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule_at(VirtualTime(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }
}
