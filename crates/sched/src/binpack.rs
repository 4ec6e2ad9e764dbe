//! Algorithm 2: greedy min-load bin packing of requests onto PIM channels.
//!
//! The MHA latency of an iteration is set by the most loaded channel, so
//! the scheduler balances the estimated per-channel loads: requests are
//! sorted by descending context length and each goes to the currently
//! least-loaded channel (longest-processing-time-first scheduling). The
//! round-robin policy of the naive NPU+PIM baseline is provided for the
//! ablation.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use neupims_types::ChannelId;

use crate::cost::MhaCostModel;

/// Assigns each request (by context length) to a channel, greedily
/// minimizing the maximum estimated channel load (Algorithm 2).
///
/// `costs[i]` is request `i`'s estimated MHA latency — from any
/// [`MhaCostModel`], so the balance target can be the Algorithm 1 closed
/// form or the trace-driven cycle model. Callers price each request once
/// and share the costs with whatever else consumes them (the device's
/// per-channel PIM loads, both sub-batch interleaving arms).
///
/// Requests go in descending context length (ties in input order), each
/// to the least-loaded channel, the lowest index among equal loads. A
/// min-heap keyed by (load, channel index) finds that channel in
/// O(log channels).
///
/// Returns one [`ChannelId`] per input request, index-aligned.
///
/// # Panics
///
/// Panics if `channels == 0`, if `costs` and `seq_lens` differ in length,
/// or if any cost is not finite (NaN or ±infinity): a cost model that
/// prices a request so has failed, and balancing on it would be silently
/// wrong. Every finite cost is accepted, negatives and `-0.0` included.
pub fn assign_min_load(seq_lens: &[u64], costs: &[f64], channels: u32) -> Vec<ChannelId> {
    assert!(channels > 0, "at least one channel required");
    assert_eq!(seq_lens.len(), costs.len(), "one cost per request");
    assert!(
        costs.iter().all(|c| c.is_finite()),
        "MHA costs must be finite"
    );
    // Sort indices by descending length (LPT order).
    let mut order: Vec<usize> = (0..seq_lens.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(seq_lens[i]));

    let mut bins: BinaryHeap<Reverse<Bin>> = (0..channels)
        .map(|channel| Reverse(Bin { load: 0.0, channel }))
        .collect();
    let mut assignment = vec![ChannelId::new(0); seq_lens.len()];
    for &i in &order {
        // Updating the top in place re-sifts it when the guard drops.
        let mut min = bins.peek_mut().expect("at least one channel");
        assignment[i] = ChannelId::new(min.0.channel);
        min.0.load += costs[i];
    }
    assignment
}

/// One channel's accumulated load, ordered by (load, channel index).
///
/// Loads start at `+0.0` and only ever add finite costs, so they are never
/// NaN and never `-0.0` (an IEEE sum is `-0.0` only when both addends
/// are). On such values `f64::total_cmp` agrees with the numeric order,
/// and the index breaks ties: the heap's minimum is the first minimum of a
/// linear scan.
#[derive(Debug, Clone, Copy)]
struct Bin {
    load: f64,
    channel: u32,
}

impl Ord for Bin {
    fn cmp(&self, other: &Self) -> Ordering {
        self.load
            .total_cmp(&other.load)
            .then(self.channel.cmp(&other.channel))
    }
}

impl PartialOrd for Bin {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Bin {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Bin {}

/// Round-robin channel assignment (the naive NPU+PIM baseline policy).
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn assign_round_robin(seq_lens: &[u64], channels: u32) -> Vec<ChannelId> {
    assert!(channels > 0, "at least one channel required");
    (0..seq_lens.len())
        .map(|i| ChannelId::new((i as u32) % channels))
        .collect()
}

/// Estimated per-channel loads induced by an assignment.
pub fn channel_loads<C: MhaCostModel + ?Sized>(
    seq_lens: &[u64],
    assignment: &[ChannelId],
    channels: u32,
    estimator: &C,
) -> Vec<f64> {
    let mut loads = vec![0.0f64; channels as usize];
    for (&seq, &ch) in seq_lens.iter().zip(assignment) {
        loads[ch.index()] += estimator.estimate(seq);
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::MhaLatencyEstimator;
    use neupims_kvcache::KvGeometry;
    use neupims_types::{LlmConfig, MemConfig};

    fn estimator() -> MhaLatencyEstimator {
        let geo = KvGeometry::for_model(&LlmConfig::gpt3_7b(), &MemConfig::table2());
        MhaLatencyEstimator::new(geo, 280.0, 50.0)
    }

    fn costs(seqs: &[u64]) -> Vec<f64> {
        seqs.iter().map(|&s| estimator().estimate(s)).collect()
    }

    fn max_load(seqs: &[u64], assign: &[ChannelId], chans: u32) -> f64 {
        channel_loads(seqs, assign, chans, &estimator())
            .into_iter()
            .fold(0.0, f64::max)
    }

    #[test]
    fn all_requests_assigned_in_range() {
        let seqs: Vec<u64> = (1..100).map(|i| (i * 37) % 900 + 1).collect();
        let a = assign_min_load(&seqs, &costs(&seqs), 8);
        assert_eq!(a.len(), seqs.len());
        assert!(a.iter().all(|c| c.0 < 8));
    }

    #[test]
    fn min_load_beats_round_robin_on_skewed_input() {
        // Skewed lengths: a few giants among many small requests.
        let mut seqs = vec![2048u64, 1900, 1800, 1700];
        seqs.extend(std::iter::repeat_n(32u64, 60));
        let greedy = assign_min_load(&seqs, &costs(&seqs), 8);
        let rr = assign_round_robin(&seqs, 8);
        let g = max_load(&seqs, &greedy, 8);
        let r = max_load(&seqs, &rr, 8);
        assert!(g <= r, "greedy {g} must not exceed round-robin {r}");
        assert!(g < 0.8 * r, "expected clear win on skew: {g} vs {r}");
    }

    #[test]
    fn greedy_is_near_optimal_on_uniform_input() {
        let seqs = vec![128u64; 64];
        let e = estimator();
        let a = assign_min_load(&seqs, &costs(&seqs), 8);
        let loads = channel_loads(&seqs, &a, 8, &e);
        let (min, max) = loads
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!((max - min) < 1e-9, "uniform input must balance exactly");
    }

    #[test]
    fn round_robin_cycles_channels() {
        let a = assign_round_robin(&[1, 2, 3, 4, 5], 2);
        let raw: Vec<u32> = a.iter().map(|c| c.0).collect();
        assert_eq!(raw, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        assign_min_load(&[1], &[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "MHA costs must be finite")]
    fn nan_cost_panics() {
        // Even on one channel, where no comparison ever sees the NaN.
        assign_min_load(&[5, 3], &[1.0, f64::NAN], 1);
    }

    #[test]
    #[should_panic(expected = "MHA costs must be finite")]
    fn infinite_cost_panics() {
        assign_min_load(&[5, 3], &[f64::INFINITY, 1.0], 4);
    }

    #[test]
    #[should_panic(expected = "MHA costs must be finite")]
    fn negative_infinite_cost_panics() {
        assign_min_load(&[5], &[f64::NEG_INFINITY], 2);
    }

    #[test]
    fn negative_and_signed_zero_costs_balance_numerically() {
        // -0.0 leaves channel 1 tied with channel 2 (lower index wins);
        // a negative load then stays the least loaded until it turns
        // positive.
        let seqs = [9, 8, 7, 6, 5, 4];
        let a = assign_min_load(&seqs, &[1.0, -0.0, -1.0, 0.5, 2.0, 0.25], 3);
        let raw: Vec<u32> = a.iter().map(|c| c.0).collect();
        assert_eq!(raw, vec![0, 1, 1, 1, 1, 2]);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(assign_min_load(&[], &[], 4).is_empty());
        assert!(assign_round_robin(&[], 4).is_empty());
    }
}
