//! Algorithm 2: greedy min-load bin packing of requests onto PIM channels.
//!
//! The MHA latency of an iteration is set by the most loaded channel, so
//! the scheduler balances the estimated per-channel loads: requests are
//! sorted by descending context length and each goes to the currently
//! least-loaded channel (longest-processing-time-first scheduling).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use neupims_types::ChannelId;

/// Algorithm 2 over buffers kept between calls, so a decode loop
/// balances every iteration without allocating once the buffers have
/// grown to its batch and channel counts.
#[derive(Debug, Clone, Default)]
pub struct MinLoadPacker {
    /// The LPT order. Each entry packs `(Reverse(seq), index)` as
    /// `(!seq << index_bits) | index`, so one unstable sort of distinct
    /// keys yields the stable order; batches whose lengths leave no room
    /// for the index bits hold bare indices, stably sorted by length.
    ///
    /// One word per key, not a `(Reverse(seq), index)` tuple: on
    /// `pim-trace-tight-kv` (2-core x86 VM) sorting the tuples, either
    /// `Reverse<u64>` or inverted-length form, cost ~10% of end-to-end
    /// requests/s in 10 of 10 alternating pairs.
    order: Vec<u64>,
    /// Each channel's load.
    loads: Vec<f64>,
    /// Min-heap of [`heap_key`]s.
    heap: BinaryHeap<Reverse<u128>>,
}

impl MinLoadPacker {
    /// A packer with empty buffers.
    pub const fn new() -> Self {
        Self {
            order: Vec::new(),
            loads: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Assigns each request (by context length) to a channel, greedily
    /// minimizing the maximum estimated channel load (Algorithm 2), and
    /// writes one [`ChannelId`] per input request, index-aligned, into
    /// `out` (cleared first).
    ///
    /// `costs[i]` is request `i`'s estimated MHA latency — from any
    /// [`MhaCostModel`](crate::MhaCostModel), so the balance target can be
    /// the Algorithm 1 closed form or the trace-driven cycle model.
    /// Callers price each request once and share the costs with whatever
    /// else consumes them (the device's per-channel PIM loads, both
    /// sub-batch interleaving arms).
    ///
    /// Requests go in descending context length (ties in input order),
    /// each to the least-loaded channel, the lowest index among equal
    /// loads. A min-heap keyed by (load, channel index) finds that channel
    /// in O(log channels). When every cost is positive the first round
    /// needs no heap: all loads start equal, so the `channels` longest
    /// requests fill channels `0, 1, 2, …` in order.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`, if `costs` and `seq_lens` differ in
    /// length, if any cost is not finite (NaN or ±infinity): a cost model
    /// that prices a request so has failed, and balancing on it would be
    /// silently wrong; or if a batch holds more than `u32::MAX` requests.
    /// Every finite cost is accepted, negatives and `-0.0` included.
    pub fn assign(
        &mut self,
        seq_lens: &[u64],
        costs: &[f64],
        channels: u32,
        out: &mut Vec<ChannelId>,
    ) {
        assert!(channels > 0, "at least one channel required");
        assert_eq!(seq_lens.len(), costs.len(), "one cost per request");
        let mut all_positive = true;
        for &c in costs {
            assert!(c.is_finite(), "MHA costs must be finite");
            all_positive &= c > 0.0;
        }
        let n = u32::try_from(seq_lens.len()).expect("batch fits u32 indices");
        let index_bits = u64::BITS - u64::from(n.saturating_sub(1)).leading_zeros();
        let longest = seq_lens.iter().copied().max().unwrap_or(0);
        self.order.clear();
        // `!seq << index_bits` keeps the length order when the bits it
        // shifts out are all ones, i.e. every length fits below them.
        let index_mask = if index_bits == 0 || longest >> (u64::BITS - index_bits) == 0 {
            self.order.extend(
                seq_lens
                    .iter()
                    .zip(0..u64::from(n))
                    .map(|(&seq, i)| (!seq << index_bits) | i),
            );
            self.order.sort_unstable();
            (1u64 << index_bits) - 1
        } else {
            self.order.extend(0..u64::from(n));
            self.order.sort_by_key(|&i| Reverse(seq_lens[i as usize]));
            u64::MAX
        };
        out.clear();
        out.resize(seq_lens.len(), ChannelId::new(0));
        self.loads.clear();
        self.loads.resize(channels as usize, 0.0);

        // First round: with every cost positive, each assignment lifts a
        // zero-load channel above all the others still at zero, so the
        // lowest-index minimum walks the channels in order.
        let first_round = if all_positive {
            self.order.len().min(channels as usize)
        } else {
            0
        };
        for (channel, &key) in self.order[..first_round].iter().enumerate() {
            let i = (key & index_mask) as usize;
            out[i] = ChannelId::new(channel as u32);
            self.loads[channel] = costs[i];
        }
        if first_round == self.order.len() {
            return;
        }

        self.heap.clear();
        self.heap.extend(
            self.loads
                .iter()
                .zip(0..channels)
                .map(|(&load, ch)| Reverse(heap_key(load, ch))),
        );
        for &key in &self.order[first_round..] {
            let i = (key & index_mask) as usize;
            // Updating the top in place re-sifts it when the guard drops.
            let mut min = self.heap.peek_mut().expect("at least one channel");
            let channel = min.0 as u32;
            out[i] = ChannelId::new(channel);
            let load = &mut self.loads[channel as usize];
            *load += costs[i];
            min.0 = heap_key(*load, channel);
        }
    }
}

/// A channel's heap key, ordered by (load, channel index): the load's
/// bits mapped so that unsigned order is `f64::total_cmp` order, above
/// the channel.
///
/// Loads start at `+0.0` and only ever add finite costs, so they are never
/// NaN and never `-0.0` (an IEEE sum is `-0.0` only when both addends
/// are). On such values `f64::total_cmp` agrees with the numeric order,
/// and the index breaks ties: the heap's minimum is the first minimum of a
/// linear scan.
fn heap_key(load: f64, channel: u32) -> u128 {
    (u128::from(total_order_bits(load)) << 32) | u128::from(channel)
}

/// `x`'s bits mapped so that unsigned order is [`f64::total_cmp`] order,
/// on every value (negative zero below positive zero, NaNs at the ends).
pub fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::MhaLatencyEstimator;
    use neupims_kvcache::KvGeometry;
    use neupims_types::{LlmConfig, MemConfig};

    fn estimator() -> MhaLatencyEstimator {
        let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &MemConfig::table2(), 4);
        MhaLatencyEstimator::new(geo, 280.0, 50.0)
    }

    fn costs(seqs: &[u64]) -> Vec<f64> {
        seqs.iter().map(|&s| estimator().estimate(s)).collect()
    }

    fn assign_min_load(seqs: &[u64], costs: &[f64], chans: u32) -> Vec<ChannelId> {
        let mut out = Vec::new();
        MinLoadPacker::new().assign(seqs, costs, chans, &mut out);
        out
    }

    /// The naive NPU+PIM baseline's placement.
    fn assign_round_robin(seqs: &[u64], chans: u32) -> Vec<ChannelId> {
        (0..seqs.len() as u32)
            .map(|i| ChannelId::new(i % chans))
            .collect()
    }

    fn channel_loads(seqs: &[u64], assign: &[ChannelId], chans: u32) -> Vec<f64> {
        let mut loads = vec![0.0; chans as usize];
        for (&seq, ch) in seqs.iter().zip(assign) {
            loads[ch.index()] += estimator().estimate(seq);
        }
        loads
    }

    fn max_load(seqs: &[u64], assign: &[ChannelId], chans: u32) -> f64 {
        channel_loads(seqs, assign, chans)
            .into_iter()
            .fold(0.0, f64::max)
    }

    #[test]
    fn total_order_bits_sort_like_total_cmp() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
        ];
        for a in values {
            for b in values {
                let got = total_order_bits(a).cmp(&total_order_bits(b));
                assert_eq!(got, a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
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
        let a = assign_min_load(&seqs, &costs(&seqs), 8);
        let loads = channel_loads(&seqs, &a, 8);
        let (min, max) = loads
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!((max - min) < 1e-9, "uniform input must balance exactly");
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
    }
}
