//! Inference request descriptions shared by the scheduler and the engine.

use serde::{Deserialize, Serialize};

use crate::ids::RequestId;
use crate::units::Cycle;

/// Execution phase of an LLM inference request (Section 2.1).
///
/// The summarization (prefill) phase encodes the whole prompt at once and is
/// GEMM-dominated; the generation (decode) phase emits one token per
/// iteration and is GEMV-dominated. The NeuPIMs system delegates
/// summarization to standalone NPUs and runs generation on NeuPIMs devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Prompt encoding (a.k.a. prefill); processes `input_len` tokens at once.
    Summarization,
    /// Autoregressive decoding; processes one token per iteration.
    Generation,
}

/// Lifecycle state of a request in the request pool table (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RequestState {
    /// Waiting in the pool for admission at an iteration boundary.
    #[default]
    Waiting,
    /// Currently part of the running batch.
    Running,
    /// Finished; will be removed at the next iteration boundary.
    Done,
}

/// One LLM inference request tracked by the serving system.
///
/// A request arrives with a prompt of `input_len` tokens and terminates after
/// emitting `output_len` generated tokens (sequence lengths are drawn from
/// the ShareGPT/Alpaca distributions in the evaluation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Unique identifier.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Target number of generated tokens.
    pub output_len: u32,
    /// Tokens generated so far.
    pub generated: u32,
    /// Arrival time at the serving frontend.
    pub arrival: Cycle,
    /// Lifecycle state in the pool table.
    pub state: RequestState,
    /// The tenant the request is served for: its position in the
    /// orchestrator's tenant table, or [`Request::NO_TENANT`] for a
    /// request submitted straight to a serving simulation.
    pub tenant: u32,
}

impl Request {
    /// The [`Request::tenant`] of a request no orchestrator dispatched.
    pub const NO_TENANT: u32 = u32::MAX;

    /// Creates a fresh request in the [`RequestState::Waiting`] state,
    /// served for no tenant.
    pub fn new(id: RequestId, input_len: u32, output_len: u32, arrival: Cycle) -> Self {
        Self {
            id,
            input_len,
            output_len,
            generated: 0,
            arrival,
            state: RequestState::Waiting,
            tenant: Self::NO_TENANT,
        }
    }

    /// Current total sequence length: prompt plus tokens generated so far.
    ///
    /// This is the length of the KV cache the next decode iteration attends
    /// over, the quantity driving Algorithm 1's latency estimate.
    pub fn seq_len(&self) -> u32 {
        self.input_len + self.generated
    }

    /// True once the request has produced all requested output tokens.
    pub fn is_finished(&self) -> bool {
        self.generated >= self.output_len
    }

    /// Records one generated token.
    ///
    /// # Panics
    ///
    /// Panics if called on an already-finished request (that would corrupt
    /// throughput accounting).
    pub fn advance(&mut self) {
        assert!(
            !self.is_finished(),
            "advance() on finished request {}",
            self.id
        );
        self.generated += 1;
        if self.is_finished() {
            self.state = RequestState::Done;
        }
    }

    /// Tokens remaining until completion.
    pub fn remaining(&self) -> u32 {
        self.output_len.saturating_sub(self.generated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(input: u32, output: u32) -> Request {
        Request::new(RequestId::new(1), input, output, 0)
    }

    #[test]
    fn fresh_request_state() {
        let r = req(80, 296);
        assert_eq!(r.seq_len(), 80);
        assert_eq!(r.remaining(), 296);
        assert!(!r.is_finished());
        assert_eq!(r.state, RequestState::Waiting);
    }

    #[test]
    fn advance_to_completion() {
        let mut r = req(4, 3);
        r.state = RequestState::Running;
        r.advance();
        r.advance();
        assert!(!r.is_finished());
        assert_eq!(r.seq_len(), 6);
        r.advance();
        assert!(r.is_finished());
        assert_eq!(r.state, RequestState::Done);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "advance() on finished request")]
    fn advance_past_end_panics() {
        let mut r = req(1, 1);
        r.advance();
        r.advance();
    }
}
