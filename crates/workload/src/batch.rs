//! Warm-batch synthesis and streaming arrivals (the Section 8.1
//! methodology).
//!
//! "For each permutation of these hyperparameters, we simulate the
//! inference serving for a fixed amount of time, randomly picking sequence
//! lengths from the datasets. This way, we can warm up the inference batch
//! in a way that the batch is filled with requests having various sequence
//! lengths." — reproduced here by sampling each request's prompt and
//! target output from the dataset and placing it at a uniformly random
//! point of its generation progress.

use rand::{Rng, RngExt};

use neupims_types::SimError;

use crate::dataset::Dataset;

/// One request of a warmed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmRequest {
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Target generation length in tokens.
    pub output_len: u32,
    /// Tokens already generated (uniform in `[0, output_len)`).
    pub generated: u32,
}

impl WarmRequest {
    /// Current context length (prompt + generated tokens).
    pub fn seq_len(&self) -> u64 {
        (self.input_len + self.generated) as u64
    }

    /// Tokens still to generate.
    pub fn remaining(&self) -> u32 {
        self.output_len - self.generated
    }
}

/// Samples a warmed batch of `batch_size` requests from `dataset`.
pub fn warm_batch<R: Rng + ?Sized>(
    rng: &mut R,
    dataset: Dataset,
    batch_size: usize,
) -> Vec<WarmRequest> {
    (0..batch_size)
        .map(|_| {
            let input_len = dataset.sample_input(rng);
            let output_len = dataset.sample_output(rng).max(1);
            let generated = rng.random_range(0..output_len);
            WarmRequest {
                input_len,
                output_len,
                generated,
            }
        })
        .collect()
}

/// Default RNG seed of the warm-batch experiments (fixed, so regenerated
/// tables stay comparable across versions).
pub const DEFAULT_SEED: u64 = 0xA5F0_2024;

/// The context lengths of a [`warm_batch`]: the batch a warm-batch
/// decode iteration prices.
pub fn warm_seq_lens<R: Rng + ?Sized>(
    rng: &mut R,
    dataset: Dataset,
    batch_size: usize,
) -> Vec<u64> {
    warm_batch(rng, dataset, batch_size)
        .iter()
        .map(WarmRequest::seq_len)
        .collect()
}

/// An empty buffer with room for exactly `requests` entries: the
/// storage of one per-request array of a generated workload.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] naming `requests` when the buffer
/// cannot be reserved (its size overflows `isize`, or the allocator
/// refuses it), so an oversized request count is an error, not an abort.
pub fn request_buffer<T>(requests: usize) -> Result<Vec<T>, SimError> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(requests).map_err(|_| {
        SimError::InvalidConfig(format!(
            "requests = {requests}: cannot reserve {requests} x {} B for its per-request buffers",
            std::mem::size_of::<T>()
        ))
    })?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::Cycle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn warm_batch_has_varied_progress() {
        let mut rng = StdRng::seed_from_u64(5);
        let batch = warm_batch(&mut rng, Dataset::ShareGpt, 256);
        assert_eq!(batch.len(), 256);
        for r in &batch {
            assert!(r.generated < r.output_len);
            assert!(r.seq_len() >= r.input_len as u64);
            assert!(r.remaining() >= 1);
        }
        // Progress must actually vary (not all fresh, not all nearly done).
        let fresh = batch.iter().filter(|r| r.generated == 0).count();
        assert!(fresh < batch.len() / 2, "{fresh} fresh of {}", batch.len());
    }

    #[test]
    fn warm_batch_seq_lens_longer_for_sharegpt() {
        let mut rng = StdRng::seed_from_u64(9);
        let sg = warm_batch(&mut rng, Dataset::ShareGpt, 512);
        let al = warm_batch(&mut rng, Dataset::Alpaca, 512);
        let mean = |b: &[WarmRequest]| {
            b.iter().map(WarmRequest::seq_len).sum::<u64>() as f64 / b.len() as f64
        };
        assert!(mean(&sg) > 2.5 * mean(&al));
    }

    #[test]
    fn unreservable_request_counts_are_errors_naming_requests() {
        // Sizes past `isize::MAX` bytes fail before the allocator is asked.
        let too_many = usize::MAX / 4;
        let err = request_buffer::<Cycle>(too_many).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        assert!(
            err.to_string().contains(&format!("requests = {too_many}")),
            "{err}"
        );
        assert_eq!(request_buffer::<Cycle>(3).unwrap().capacity(), 3);
    }
}
