//! The simulation scheduler: an event queue bound to a virtual clock.

use crate::event::EventQueue;
use crate::time::{Duration, VirtualTime};

/// Drives a simulation: events are scheduled at absolute or relative
/// virtual times and popped in order, advancing the clock.
///
/// ```
/// use esr_sim::sched::Scheduler;
/// use esr_sim::time::Duration;
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_in(Duration::from_millis(10), "world");
/// sched.schedule_in(Duration::from_millis(5), "hello");
/// let (t1, e1) = sched.next_event().unwrap();
/// assert_eq!((t1.as_millis(), e1), (5, "hello"));
/// let (t2, e2) = sched.next_event().unwrap();
/// assert_eq!((t2.as_millis(), e2), (10, "world"));
/// assert!(sched.is_quiescent());
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: VirtualTime,
    processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self {
            queue: EventQueue::new(),
            now: VirtualTime::ZERO,
            processed: 0,
        }
    }
}

impl<E> Scheduler<E> {
    /// A scheduler at time zero with no events.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.queue.schedule_at(self.now + delay, event);
    }

    /// Schedules an event at an absolute time. Times in the past are
    /// clamped to "now" (the event fires immediately, after already
    /// pending events at the current instant).
    pub fn schedule_at(&mut self, at: VirtualTime, event: E) {
        self.queue.schedule_at(at.max(self.now), event);
    }

    /// Advances the clock to `t` without processing events (models a
    /// client waiting in real time). Moving backwards is a no-op.
    pub fn advance_to(&mut self, t: VirtualTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn next_event(&mut self) -> Option<(VirtualTime, E)> {
        let (at, e) = self.queue.pop()?;
        // `advance_to` may have moved the clock past pending events; such
        // events fire "now" rather than in the past.
        let fire = at.max(self.now);
        self.now = fire;
        self.processed += 1;
        Some((fire, e))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn next_event_before(&mut self, deadline: VirtualTime) -> Option<(VirtualTime, E)> {
        if self.queue.peek_time()? > deadline {
            return None;
        }
        self.next_event()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are pending — the simulation is quiescent.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Runs `handler` on every event until the queue drains or `limit`
    /// events have been processed, whichever comes first. The handler may
    /// schedule further events through the scheduler it is handed.
    /// Returns the number of events processed.
    pub fn run(&mut self, limit: u64, mut handler: impl FnMut(&mut Self, VirtualTime, E)) -> u64 {
        let mut n = 0;
        while n < limit {
            let Some((at, e)) = self.next_event() else {
                break;
            };
            handler(self, at, e);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_in(Duration::from_millis(5), "a");
        s.schedule_in(Duration::from_millis(2), "b");
        let (t1, e1) = s.next_event().unwrap();
        assert_eq!((t1.as_millis(), e1), (2, "b"));
        assert_eq!(s.now().as_millis(), 2);
        let (t2, e2) = s.next_event().unwrap();
        assert_eq!((t2.as_millis(), e2), (5, "a"));
        assert!(s.is_quiescent());
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(Duration::from_millis(10), 1);
        s.next_event();
        s.schedule_in(Duration::from_millis(10), 2);
        let (t, _) = s.next_event().unwrap();
        assert_eq!(t.as_millis(), 20);
    }

    #[test]
    fn past_absolute_times_are_clamped() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(Duration::from_millis(10), 1);
        s.next_event();
        s.schedule_at(VirtualTime::from_millis(3), 2);
        let (t, e) = s.next_event().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t.as_millis(), 10, "clamped to now, not the past");
    }

    #[test]
    fn next_event_before_respects_deadline() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(Duration::from_millis(10), 1);
        assert!(s.next_event_before(VirtualTime::from_millis(5)).is_none());
        assert!(s.next_event_before(VirtualTime::from_millis(10)).is_some());
    }

    #[test]
    fn run_drains_and_counts() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..5 {
            s.schedule_in(Duration::from_millis(i), i as u32);
        }
        let mut seen = Vec::new();
        let n = s.run(u64::MAX, |_, _, e| seen.push(e));
        assert_eq!(n, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.processed(), 5);
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(Duration::ZERO, 3);
        let n = s.run(100, |sched, _, e| {
            if e > 0 {
                sched.schedule_in(Duration::from_millis(1), e - 1);
            }
        });
        assert_eq!(n, 4, "3 → 2 → 1 → 0");
        assert_eq!(s.now().as_millis(), 3);
    }

    #[test]
    fn run_respects_limit() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.schedule_in(Duration::from_millis(i), 0);
        }
        let n = s.run(4, |_, _, _| {});
        assert_eq!(n, 4);
        assert_eq!(s.pending(), 6);
    }
}
