//! A deterministic future-event list.
//!
//! The queue is a binary heap keyed by `(time, sequence)`, where `sequence`
//! is a monotonically increasing insertion counter. Two events scheduled for
//! the same instant therefore pop in the order they were pushed — the
//! property that makes re-runs of the capacity and session simulators
//! bit-for-bit reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event plus its scheduling metadata, as returned by
/// [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventEntry<E> {
    /// The instant the event fires.
    pub time: SimTime,
    /// Insertion sequence number; unique per queue, useful for debugging.
    pub seq: u64,
    /// The caller's event payload.
    pub event: E,
}

/// Internal heap node: reversed ordering turns `BinaryHeap` (a max-heap)
/// into the min-heap a future-event list needs.
#[derive(Debug)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Node<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Node<E> {}

impl<E> PartialOrd for Node<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Node<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the earliest (time, seq) is the heap maximum.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use ewb_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5), "later");
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(5), "even-later");
///
/// assert_eq!(q.pop().unwrap().event, "first");
/// assert_eq!(q.pop().unwrap().event, "later"); // FIFO among ties
/// assert_eq!(q.pop().unwrap().event, "even-later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Node<E>>,
    next_seq: u64,
    last_popped_time: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped_time: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `time` and returns its sequence number.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Node { time, seq, event });
        seq
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if the queue would deliver an event earlier than one already
    /// delivered — that would mean a caller scheduled into the past, which
    /// is always a simulation bug worth failing loudly on.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let node = self.heap.pop()?;
        assert!(
            node.time >= self.last_popped_time,
            "event scheduled in the past: {} after clock reached {}",
            node.time,
            self.last_popped_time
        );
        self.last_popped_time = node.time;
        Some(EventEntry {
            time: node.time,
            seq: node.seq,
            event: node.event,
        })
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[7u64, 3, 9, 1, 5] {
            q.push(SimTime::from_secs(s), s);
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.event);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_the_past_panics_at_delivery() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
        q.pop();
    }

    #[test]
    fn default_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.pop().is_none());
    }
}
