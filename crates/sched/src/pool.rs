//! The request pool table with Orca-style iteration-level scheduling.
//!
//! Requests arrive in a streaming fashion and wait in the pool (Figure 7).
//! At every iteration boundary the scheduler admits waiting requests into
//! the running batch (subject to a batch-size cap and a caller-supplied
//! admission check, e.g. KV-cache capacity) and retires finished ones —
//! Orca's iteration-level scheduling, which NeuPIMs builds on.

use std::collections::VecDeque;

use neupims_types::{Cycle, Request, RequestId, RequestState};

/// The retired `(request, record)` pairs of one completion pass, in batch
/// order.
pub type Retired<'a, S> = std::iter::Zip<std::vec::Drain<'a, Request>, std::vec::Drain<'a, S>>;

/// Request pool table: waiting queue plus the running batch.
///
/// Each running request carries one caller-defined record `S` — a serving
/// loop's per-request state, as in Figure 7's table row — stored beside
/// it: [`Self::records`] is index-aligned with [`Self::running`]. The
/// record is made by the admission check, handed back with the request at
/// completion or preemption, and handed in again at [`Self::resume`].
#[derive(Debug, Clone)]
pub struct RequestPool<S = ()> {
    waiting: VecDeque<Request>,
    running: Vec<Request>,
    /// One record per running request, index-aligned with `running`.
    records: Vec<S>,
    /// Requests retired by the last completion pass and their records,
    /// handed out by [`Self::complete_iteration_where`] (kept so passes
    /// reuse their buffers).
    retired: Vec<Request>,
    retired_records: Vec<S>,
    max_batch: usize,
    completed: u64,
    tokens_generated: u64,
    /// Tokens still owed by the waiting queue and the running batch
    /// (incremental mirror of the walk [`Self::outstanding_tokens`]
    /// debug-checks, so load snapshots stay O(1)).
    outstanding: u64,
}

impl<S> RequestPool<S> {
    /// Creates a pool whose running batch holds at most `max_batch`
    /// requests.
    pub fn new(max_batch: usize) -> Self {
        Self {
            waiting: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
            retired: Vec::new(),
            retired_records: Vec::new(),
            max_batch,
            completed: 0,
            tokens_generated: 0,
            outstanding: 0,
        }
    }

    /// Submits a new request to the waiting queue.
    pub fn submit(&mut self, req: Request) {
        self.outstanding += req.remaining() as u64;
        self.waiting.push_back(req);
    }

    /// Requests currently in the running batch.
    pub fn running(&self) -> &[Request] {
        &self.running
    }

    /// The running requests' records, index-aligned with
    /// [`Self::running`].
    pub fn records(&self) -> &[S] {
        &self.records
    }

    /// The running requests' records, mutably, index-aligned with
    /// [`Self::running`].
    pub fn records_mut(&mut self) -> &mut [S] {
        &mut self.records
    }

    /// Number of requests waiting for admission.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Completed requests since construction.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Tokens generated since construction (the throughput numerator).
    pub fn tokens_generated(&self) -> u64 {
        self.tokens_generated
    }

    /// Requests waiting for admission, in FCFS order.
    pub fn waiting(&self) -> impl Iterator<Item = &Request> {
        self.waiting.iter()
    }

    /// Tokens still to be generated across the waiting queue and the
    /// running batch — the pool's outstanding work (dispatch policies use
    /// it as a load signal).
    pub fn outstanding_tokens(&self) -> u64 {
        debug_assert_eq!(
            self.outstanding,
            self.waiting
                .iter()
                .chain(&self.running)
                .map(|r| r.remaining() as u64)
                .sum::<u64>(),
            "outstanding-token mirror drifted from the queues"
        );
        self.outstanding
    }

    /// Removes and returns the head of the waiting queue without running
    /// it. Serving frontends use this to drop a request that can never be
    /// admitted (e.g. its context exceeds an empty KV channel) instead of
    /// letting it block the queue forever.
    ///
    /// FIFO guarantee: the head is always the *earliest-submitted* request
    /// still waiting — the same request [`Self::admit`] would consider
    /// first — so dropping it never reorders the queue behind it.
    pub fn drop_head_waiting(&mut self) -> Option<Request> {
        let req = self.waiting.pop_front()?;
        self.outstanding -= req.remaining() as u64;
        Some(req)
    }

    /// Iteration boundary, part 1: admit waiting requests (FCFS) while the
    /// batch has room and `admission` approves (e.g. reserves KV pages),
    /// returning the admitted request's record. Requests arriving after
    /// `now` stay queued.
    ///
    /// FIFO guarantees:
    ///
    /// * candidates are considered strictly in **submission order** (the
    ///   order of [`Self::submit`] calls, *not* arrival-time order — a
    ///   caller submitting out of arrival order keeps its own order);
    /// * admission never skips the head: if the head is refused by
    ///   `admission` (or hasn't arrived), nothing behind it is admitted
    ///   this boundary (head-of-line blocking mirrors FCFS serving);
    /// * requests enter [`Self::running`] in that same order, after the
    ///   ones already running.
    ///
    /// Returns how many requests were admitted this boundary: they are the
    /// last that many of [`Self::running`].
    pub fn admit(&mut self, now: Cycle, mut admission: impl FnMut(&Request) -> Option<S>) -> usize {
        let mut admitted = 0;
        while self.running.len() < self.max_batch {
            match self.waiting.front() {
                Some(req) if req.arrival <= now => {
                    let Some(record) = admission(req) else {
                        break; // head-of-line blocking mirrors FCFS serving
                    };
                    let mut req = self.waiting.pop_front().expect("peeked");
                    req.state = RequestState::Running;
                    admitted += 1;
                    self.running.push(req);
                    self.records.push(record);
                }
                _ => break,
            }
        }
        admitted
    }

    /// Iteration boundary, part 2: record one generated token per running
    /// request for which `participated` returns `true`, and retire the
    /// finished ones. Returns the retired requests with their records, in
    /// batch order (callers release their KV pages). Serving frontends
    /// pass a filter to keep admitted-but-still-prefilling requests from
    /// generating tokens before their prefill delay has elapsed.
    ///
    /// `participated` sees every running request and its record once, in
    /// batch order. Survivors keep their order, and the retired pairs are
    /// drained, in batch order, from buffers the pool reuses, so a pass
    /// allocates nothing once they have grown.
    pub fn complete_iteration_where(
        &mut self,
        mut participated: impl FnMut(&Request, &mut S) -> bool,
    ) -> Retired<'_, S> {
        let mut advanced = 0u64;
        let mut finished = 0u64;
        for (req, record) in self.running.iter_mut().zip(&mut self.records) {
            if participated(req, record) {
                req.advance();
                advanced += 1;
            }
            finished += u64::from(req.is_finished());
        }
        self.tokens_generated += advanced;
        self.outstanding -= advanced;
        self.completed += finished;
        self.retired.clear();
        self.retired_records.clear();
        if finished > 0 {
            // One order-preserving compaction per column: the records
            // leave at the indices their requests leave at.
            let mut running = self.running.iter();
            self.retired_records.extend(
                self.records
                    .extract_if(.., |_| running.next().is_some_and(Request::is_finished)),
            );
            self.retired
                .extend(self.running.extract_if(.., |r| r.is_finished()));
        }
        self.retired.drain(..).zip(self.retired_records.drain(..))
    }

    /// Removes `id` from the running batch without retiring it, returning
    /// the request (generation progress intact) and its record so a
    /// serving frontend can park it in a preempted queue. The request
    /// counts neither as completed nor as a generated-token event;
    /// [`Self::resume`] puts it back.
    ///
    /// Returns `None` when `id` is not running.
    pub fn preempt_running(&mut self, id: RequestId) -> Option<(Request, S)> {
        let pos = self.running.iter().position(|r| r.id == id)?;
        let mut req = self.running.remove(pos);
        let record = self.records.remove(pos);
        req.state = RequestState::Waiting;
        self.outstanding -= req.remaining() as u64;
        Some((req, record))
    }

    /// Re-inserts a previously [preempted](Self::preempt_running) request
    /// and its record at the back of the running batch. When the batch is
    /// at its cap the pool is left untouched and the pair is handed back
    /// — the caller keeps the request parked and retries at a later
    /// boundary.
    ///
    /// # Errors
    ///
    /// Returns the pair unchanged when the batch is full.
    pub fn resume(&mut self, (mut req, record): (Request, S)) -> Result<(), (Request, S)> {
        if self.running.len() >= self.max_batch {
            return Err((req, record));
        }
        req.state = RequestState::Running;
        self.outstanding += req.remaining() as u64;
        self.running.push(req);
        self.records.push(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u32, input: u32, output: u32, arrival: Cycle) -> Request {
        Request::new(RequestId::new(id), input, output, arrival)
    }

    /// One iteration in which every running request participates.
    fn complete_iteration<S>(pool: &mut RequestPool<S>) -> Vec<(Request, S)> {
        pool.complete_iteration_where(|_, _| true).collect()
    }

    #[test]
    fn admits_up_to_batch_cap() {
        let mut pool = RequestPool::new(2);
        for i in 0..5 {
            pool.submit(req(i, 10, 5, 0));
        }
        assert_eq!(pool.admit(0, |_| Some(())), 2);
        assert_eq!(pool.running().len(), 2);
        assert_eq!(pool.waiting_len(), 3);
    }

    #[test]
    fn admission_respects_arrival_time() {
        let mut pool = RequestPool::new(8);
        pool.submit(req(0, 10, 5, 0));
        pool.submit(req(1, 10, 5, 1_000));
        assert_eq!(pool.admit(10, |_| Some(())), 1, "future arrivals must wait");
    }

    #[test]
    fn admission_callback_blocks() {
        let mut pool: RequestPool = RequestPool::new(8);
        pool.submit(req(0, 10, 5, 0));
        pool.submit(req(1, 10, 5, 0));
        // Admit nothing: capacity checker refuses.
        assert_eq!(pool.admit(0, |_| None), 0);
        assert_eq!(pool.waiting_len(), 2);
    }

    #[test]
    fn iteration_level_scheduling_rotates_requests() {
        // Orca's key property: finished requests leave at iteration
        // boundaries and newly arrived ones take their place immediately.
        let mut pool = RequestPool::new(2);
        pool.submit(req(0, 4, 1, 0)); // finishes after 1 iteration
        pool.submit(req(1, 4, 3, 0));
        pool.submit(req(2, 4, 2, 0)); // waits for a slot
        pool.admit(0, |_| Some(()));
        assert_eq!(pool.running().len(), 2);

        let done = complete_iteration(&mut pool);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0.id, RequestId::new(0));

        assert_eq!(pool.admit(1, |_| Some(())), 1);
        assert_eq!(pool.running().len(), 2);
        assert_eq!(pool.running()[1].id, RequestId::new(2));

        // Two more iterations finish everything: after the second, req 1
        // has its 3rd token and req 2 its 2nd.
        assert_eq!(complete_iteration(&mut pool).len(), 0);
        assert_eq!(complete_iteration(&mut pool).len(), 2);
        assert_eq!(pool.completed(), 3);
        assert!(pool.running().is_empty());
    }

    #[test]
    fn token_accounting() {
        let mut pool = RequestPool::new(4);
        pool.submit(req(0, 8, 2, 0));
        pool.submit(req(1, 8, 3, 0));
        pool.admit(0, |_| Some(()));
        complete_iteration(&mut pool);
        complete_iteration(&mut pool);
        complete_iteration(&mut pool);
        assert_eq!(pool.tokens_generated(), 2 + 3);
        assert_eq!(pool.completed(), 2);
        assert!(pool.running().is_empty());
    }

    fn seq_lens<S>(pool: &RequestPool<S>) -> Vec<u32> {
        pool.running().iter().map(Request::seq_len).collect()
    }

    #[test]
    fn seq_lens_track_generation() {
        let mut pool = RequestPool::new(4);
        pool.submit(req(0, 10, 5, 0));
        pool.admit(0, |_| Some(()));
        assert_eq!(seq_lens(&pool), vec![10]);
        complete_iteration(&mut pool);
        assert_eq!(seq_lens(&pool), vec![11]);
    }

    #[test]
    fn filtered_completion_advances_only_participants() {
        let mut pool = RequestPool::new(4);
        pool.submit(req(0, 8, 1, 0));
        pool.submit(req(1, 8, 2, 0));
        pool.admit(0, |_| Some(()));
        // Only request 1 participates: request 0 must not advance or retire.
        let done = pool.complete_iteration_where(|r, _| r.id == RequestId::new(1));
        assert_eq!(done.len(), 0);
        drop(done);
        assert_eq!(pool.tokens_generated(), 1);
        assert_eq!(seq_lens(&pool), vec![8, 9]);
        // Now both participate; both finish.
        let done = complete_iteration(&mut pool);
        assert_eq!(done.len(), 2);
        assert_eq!(pool.completed(), 2);
    }

    #[test]
    fn drop_head_and_outstanding_tokens() {
        let mut pool = RequestPool::new(1);
        pool.submit(req(0, 8, 3, 0));
        pool.submit(req(1, 8, 5, 0));
        pool.admit(0, |_| Some(()));
        assert_eq!(pool.outstanding_tokens(), 8, "3 running + 5 waiting");
        let dropped = pool.drop_head_waiting().unwrap();
        assert_eq!(dropped.id, RequestId::new(1));
        assert_eq!(pool.waiting_len(), 0);
        assert_eq!(pool.outstanding_tokens(), 3);
        assert!(pool.drop_head_waiting().is_none());
        assert_eq!(pool.waiting().count(), 0);
    }

    #[test]
    fn fifo_ordering_is_pinned() {
        // Pins the documented guarantees of `admit` and
        // `drop_head_waiting`: submission order rules, the head is never
        // skipped, and drops take the earliest-submitted waiter.
        let mut pool = RequestPool::new(2);
        // Submit out of id order and out of arrival order: submission
        // order (7, 3, 9, 1) is what must be preserved.
        pool.submit(req(7, 8, 2, 0));
        pool.submit(req(3, 8, 2, 5)); // arrives later than those behind it
        pool.submit(req(9, 8, 2, 0));
        pool.submit(req(1, 8, 2, 0));

        // At now=0 the head (7) is admittable, but 3 hasn't arrived:
        // nothing behind 3 may leapfrog it.
        assert_eq!(pool.admit(0, |_| Some(())), 1);
        assert_eq!(pool.running()[0].id, RequestId::new(7));

        // Once 3 arrives, admission resumes in submission order up to cap.
        assert_eq!(pool.admit(5, |_| Some(())), 1);
        let running: Vec<u32> = pool.running().iter().map(|r| r.id.0).collect();
        assert_eq!(running, vec![7, 3], "running batch keeps admission order");

        // An admission refusal of the head blocks everything behind it.
        complete_iteration(&mut pool);
        complete_iteration(&mut pool); // 7 and 3 retire
        assert_eq!(
            pool.admit(5, |r| (r.id != RequestId::new(9)).then_some(())),
            0,
            "refused head must not be skipped"
        );

        // drop_head_waiting removes exactly the earliest-submitted waiter.
        assert_eq!(pool.drop_head_waiting().unwrap().id, RequestId::new(9));
        assert_eq!(pool.admit(5, |_| Some(())), 1);
        assert_eq!(pool.running()[0].id, RequestId::new(1));
    }

    #[test]
    fn preempt_and_resume_preserve_progress_and_cap() {
        let mut pool = RequestPool::new(2);
        pool.submit(req(0, 8, 4, 0));
        pool.submit(req(1, 8, 4, 0));
        pool.submit(req(2, 8, 4, 0)); // queued behind the cap
        pool.admit(0, |_| Some(()));
        complete_iteration(&mut pool); // both running requests have 1 token

        let victim = pool.preempt_running(RequestId::new(1)).unwrap();
        assert_eq!(victim.0.generated, 1, "progress rides along");
        assert_eq!(victim.0.state, RequestState::Waiting);
        assert_eq!(pool.running().len(), 1);
        assert_eq!(pool.completed(), 0, "preemption is not completion");
        assert_eq!(pool.tokens_generated(), 2, "earned tokens are kept");
        assert!(pool.preempt_running(RequestId::new(1)).is_none());

        // The freed slot admits the queued request; the batch is full
        // again, so resume must refuse rather than overshoot the cap.
        pool.admit(0, |_| Some(()));
        assert_eq!(pool.running().len(), 2);
        let victim = pool.resume(victim).expect_err("cap must hold");

        // After a slot frees, resume re-enters with progress intact.
        complete_iteration(&mut pool);
        complete_iteration(&mut pool);
        complete_iteration(&mut pool);
        complete_iteration(&mut pool); // requests 0 and 2 retire
        assert!(pool.resume(victim).is_ok());
        let r = &pool.running()[0];
        assert_eq!(r.id, RequestId::new(1));
        assert_eq!(r.generated, 1);
        assert_eq!(r.state, RequestState::Running);
        // Outstanding work counts the resumed request's remaining tokens.
        assert_eq!(pool.outstanding_tokens(), 3);
    }

    #[test]
    fn records_travel_with_their_requests() {
        // Each record is made at admission, stays index-aligned with its
        // request while others retire, and leaves with it at completion
        // or preemption.
        let mut pool: RequestPool<u32> = RequestPool::new(4);
        for (id, output) in [(0, 2), (1, 1), (2, 3), (3, 1)] {
            pool.submit(req(id, 8, output, 0));
        }
        assert_eq!(pool.admit(0, |r| Some(r.id.0 * 10)), 4);
        assert_eq!(pool.records(), &[0, 10, 20, 30]);

        // Every participant bumps its record; 1 and 3 retire in order.
        let done: Vec<(u32, u32)> = pool
            .complete_iteration_where(|_, rec| {
                *rec += 1;
                true
            })
            .map(|(r, rec)| (r.id.0, rec))
            .collect();
        assert_eq!(done, vec![(1, 11), (3, 31)]);
        let ids: Vec<u32> = pool.running().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(pool.records(), &[1, 21]);

        pool.records_mut()[1] += 100;
        let (victim, rec) = pool.preempt_running(RequestId::new(0)).unwrap();
        assert_eq!((victim.id.0, rec), (0, 1));
        assert_eq!(pool.records(), &[121]);
        pool.resume((victim, rec)).unwrap();
        assert_eq!(pool.records(), &[121, 1]);
        assert_eq!(pool.running()[1].id, RequestId::new(0));
    }
}
