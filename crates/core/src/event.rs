//! The discrete-event spine: a global-clock event queue.
//!
//! The serving loop used to discover its next clock jump by scanning
//! per-request state (`O(requests)` per idle step), and the fleet layer
//! advanced every replica in lockstep before each dispatch
//! (`O(replicas)` per arrival). Both now schedule ahead instead:
//! whenever a future-timed transition is created — a request arriving, a
//! charged lump prefill completing, a preempted context's restore charge
//! elapsing — a [`SimEvent`] is pushed onto an [`EventQueue`], and the
//! simulation jumps straight to the earliest pending event.
//!
//! The queue is a `BinaryHeap` min-ordered by `(time, push order)`:
//! events pop in nondecreasing time order, and events carrying the same
//! timestamp pop FIFO, so replaying the same schedule is bit-identical
//! run to run (a property the fleet's parallel execution leans on — see
//! [`FleetSim`](crate::fleet::FleetSim)).
//!
//! A serving replica's queue holds only future transitions: it never
//! schedules one at or before its clock (that transition is already
//! actionable; [`EventQueue::push_after`]), and it drops the entries its clock reaches whenever the
//! clock moves ([`EventQueue::discard_through`]). Every entry left
//! corresponds to live simulator state (requests are only dropped or
//! preempted once they are due), so the queue head is exactly the next
//! transition, and the queue's size is bounded by the live requests, not
//! by how many the replica has served.
//!
//! # Example
//!
//! ```
//! use neupims_core::event::{EventQueue, SimEvent};
//! use neupims_types::RequestId;
//!
//! let mut q = EventQueue::new();
//! q.push(200, SimEvent::IterationComplete(RequestId::new(1)));
//! q.push(100, SimEvent::Arrival(RequestId::new(2)));
//! q.push(100, SimEvent::Arrival(RequestId::new(3)));
//! assert_eq!(q.pop(), Some((100, SimEvent::Arrival(RequestId::new(2)))));
//! assert_eq!(q.pop(), Some((100, SimEvent::Arrival(RequestId::new(3)))));
//! q.discard_through(150);
//! assert_eq!(q.peek().map(|(at, _)| at), Some(200));
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use neupims_types::{Cycle, RequestId};

/// A typed transition on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimEvent {
    /// A submitted request reaches the serving frontend and becomes
    /// admissible.
    Arrival(RequestId),
    /// A charged lump-prefill iteration completes off-device; the request
    /// joins the decode-ready sub-batch at this instant.
    IterationComplete(RequestId),
    /// A preempted request's restore charge (recompute or swap-in
    /// transfer) elapses and it rejoins decoding.
    RestoreComplete(RequestId),
    /// Fleet layer: replica `i`'s event stream is serviced only up to the
    /// attached timestamp — it must be advanced again before the global
    /// clock passes that point, and it leaves the merge entirely once it
    /// drains idle.
    ReplicaIdle(usize),
    /// Orchestrator layer: replica `i`'s warmup (model placement,
    /// precompile) completes at the attached timestamp. Until this event
    /// fires the replica is *not dispatchable* — the
    /// [`Orchestrator`](crate::orchestrator::Orchestrator) prices
    /// spin-up as first-class simulated time instead of treating new
    /// capacity as free (see
    /// [`CapabilityProfile::warmup_cycles`](crate::backend::CapabilityProfile)).
    ReplicaWarmup(usize),
}

/// One scheduled entry. Ordering is by `(at, seq)` *reversed*, so the
/// max-heap underneath pops the earliest time first and breaks timestamp
/// ties FIFO. The payload never participates in ordering.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    seq: u64,
    event: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A global-clock event queue: pops in nondecreasing time order with
/// FIFO tie-breaking on equal timestamps.
///
/// Generic over the event payload; the simulator instantiates it with
/// [`SimEvent`].
#[derive(Debug, Clone)]
pub struct EventQueue<T = SimEvent> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at time `at`. Events pushed at the same `at`
    /// pop in push order.
    pub fn push(&mut self, at: Cycle, event: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` at `at` unless it is already due at `now`: a
    /// transition at or before the clock is actionable and needs no
    /// entry.
    pub fn push_after(&mut self, now: Cycle, at: Cycle, event: T) {
        if at > now {
            self.push(at, event);
        }
    }

    /// The earliest pending event, without removing it.
    pub fn peek(&self) -> Option<(Cycle, &T)> {
        self.heap.peek().map(|e| (e.at, &e.event))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Discards every event scheduled at or before `now` (they were
    /// already actionable when the clock reached them), leaving the
    /// strictly-future ones queued.
    pub fn discard_through(&mut self, now: Cycle) {
        while self.heap.peek().is_some_and(|e| e.at <= now) {
            self.heap.pop();
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event (the push-order counter keeps running,
    /// so FIFO tie-breaking stays globally consistent).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(i: u32) -> SimEvent {
        SimEvent::Arrival(RequestId::new(i))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, ev(0));
        q.push(10, ev(1));
        q.push(20, ev(2));
        let times: Vec<Cycle> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_timestamps_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..8u32 {
            q.push(500, ev(i));
        }
        let order: Vec<SimEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..8).map(ev).collect::<Vec<_>>());
    }

    #[test]
    fn discard_through_drops_past_and_keeps_future() {
        let mut q = EventQueue::new();
        q.push(5, ev(0));
        q.push(10, ev(1));
        q.push(10, ev(2));
        q.push(40, ev(3));
        q.discard_through(10);
        assert_eq!(q.len(), 1, "past events are discarded, future ones kept");
        assert_eq!(q.peek(), Some((40, &ev(3))));
        q.discard_through(40);
        assert!(q.is_empty());
    }

    #[test]
    fn push_after_skips_what_is_already_due() {
        let mut q = EventQueue::new();
        q.push_after(10, 10, ev(0));
        q.push_after(10, 5, ev(1));
        assert!(q.is_empty());
        q.push_after(10, 11, ev(2));
        assert_eq!(q.pop(), Some((11, ev(2))));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(7, ev(9));
        assert_eq!(q.peek(), Some((7, &ev(9))));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((7, ev(9))));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn clear_empties_but_preserves_fifo_seq() {
        let mut q = EventQueue::new();
        q.push(1, ev(0));
        q.clear();
        assert!(q.is_empty());
        q.push(3, ev(1));
        q.push(3, ev(2));
        assert_eq!(q.pop(), Some((3, ev(1))));
        assert_eq!(q.pop(), Some((3, ev(2))));
    }

    proptest! {
        /// Satellite invariant: pops are nondecreasing in time, and
        /// within one timestamp they preserve push order (FIFO).
        #[test]
        fn pop_order_is_nondecreasing_with_fifo_ties(times in prop::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, ev(i as u32));
            }
            let popped: Vec<(Cycle, SimEvent)> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time order violated: {:?}", w);
                if w[0].0 == w[1].0 {
                    let (SimEvent::Arrival(a), SimEvent::Arrival(b)) = (w[0].1, w[1].1) else {
                        unreachable!("only arrivals are pushed");
                    };
                    prop_assert!(a < b, "FIFO violated at t={}: {:?} then {:?}", w[0].0, a, b);
                }
            }
        }

        /// Discarding through `now` leaves exactly the later events, the
        /// earliest at the head.
        #[test]
        fn discard_through_matches_reference(times in prop::collection::vec(0u64..100, 0..100), now in 0u64..100) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, ev(i as u32));
            }
            q.discard_through(now);
            let later: Vec<Cycle> = times.iter().copied().filter(|&t| t > now).collect();
            prop_assert_eq!(q.len(), later.len());
            prop_assert_eq!(q.peek().map(|(at, _)| at), later.iter().copied().min());
        }
    }
}
