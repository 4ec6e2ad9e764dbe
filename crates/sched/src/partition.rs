//! Algorithm 3: sub-batch partitioning.
//!
//! Sub-batch interleaving runs two independent sub-batches through the
//! device so one's GEMMs overlap the other's MHA. NPU-side cost depends on
//! sub-batch size, so the split must be even; MHA cost depends on
//! per-channel loads, so the split must be even *per channel*. Algorithm 3
//! halves each channel's request list, alternating which sub-batch receives
//! the odd element (`turn` flips per odd-sized channel).
//!
//! The split depends only on each channel's request count, so pricers that
//! walk a batch once use [`SubBatchSides`] (counts in, one side per request
//! out) instead of materializing per-channel lists; both paths share the
//! one alternation rule.

use neupims_types::{ChannelId, RequestId};

/// The two sub-batches produced by Algorithm 3 (request ids per sub-batch).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubBatches {
    /// First sub-batch.
    pub sb1: Vec<RequestId>,
    /// Second sub-batch.
    pub sb2: Vec<RequestId>,
}

impl SubBatches {
    /// Total requests across both sub-batches.
    pub fn len(&self) -> usize {
        self.sb1.len() + self.sb2.len()
    }

    /// True when both sub-batches are empty.
    pub fn is_empty(&self) -> bool {
        self.sb1.is_empty() && self.sb2.is_empty()
    }
}

/// Algorithm 3's split of one channel's `len` requests: how many of them
/// (the first, in channel order) join the first sub-batch. Channels are
/// visited in index order with `turn` starting `true`; every odd-sized
/// channel flips it, so the odd request alternates between the sub-batches
/// (ceil when `turn` is set, floor otherwise).
fn first_len(len: usize, turn: &mut bool) -> usize {
    if len.is_multiple_of(2) {
        return len / 2;
    }
    let first = if *turn { len.div_ceil(2) } else { len / 2 };
    *turn = !*turn;
    first
}

/// Splits each channel's request list into two near-equal halves
/// (Algorithm 3). `per_channel` holds the request ids resident on each
/// channel, in any order.
pub fn partition_sub_batches(per_channel: &[Vec<RequestId>]) -> SubBatches {
    let mut turn = true;
    let mut out = SubBatches::default();
    for chnl in per_channel {
        let bsize = first_len(chnl.len(), &mut turn);
        out.sb1.extend_from_slice(&chnl[..bsize]);
        out.sb2.extend_from_slice(&chnl[bsize..]);
    }
    out
}

/// Algorithm 3 from per-channel counts: assigns each request of a batch
/// to a sub-batch in one walk, with no per-channel lists.
///
/// Built from the batch's home channels in batch order, it reproduces
/// [`partition_sub_batches`] on the per-channel lists that order induces:
/// each channel's first requests fill its first-sub-batch quota, the rest
/// form the second sub-batch.
///
/// ```
/// use neupims_sched::SubBatchSides;
/// use neupims_types::ChannelId;
///
/// let homes = [0, 1, 0, 1, 1].map(ChannelId::new);
/// let mut sides = SubBatchSides::new(&homes);
/// // Channel 0 splits 1 + 1; odd channel 1 gives its extra request to
/// // the first sub-batch: 2 + 1.
/// let first: Vec<bool> = homes.iter().map(|&h| sides.next_is_first(h)).collect();
/// assert_eq!(first, [true, true, false, true, false]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SubBatchSides {
    /// First-sub-batch places each channel has left.
    quota: Vec<usize>,
}

impl SubBatchSides {
    /// Counts `homes` (each request's home channel, in batch order) per
    /// channel and splits every count by Algorithm 3.
    pub fn new(homes: &[ChannelId]) -> Self {
        let mut sides = Self::default();
        sides.reset(homes);
        sides
    }

    /// [`Self::new`] in place: splits a new batch, reusing the quota
    /// buffer of the last one.
    pub fn reset(&mut self, homes: &[ChannelId]) {
        let channels = homes.iter().max().map_or(0, |h| h.index() + 1);
        let quota = &mut self.quota;
        quota.clear();
        quota.resize(channels, 0);
        for home in homes {
            quota[home.index()] += 1;
        }
        let mut turn = true;
        for q in quota {
            *q = first_len(*q, &mut turn);
        }
    }

    /// Channels indexed: one past the highest home.
    pub fn channels(&self) -> usize {
        self.quota.len()
    }

    /// Whether the next request homed on `home` joins the first
    /// sub-batch. Call it once per request, in batch order.
    ///
    /// # Panics
    ///
    /// Panics if `home` lies past every home the sides were built from.
    pub fn next_is_first(&mut self, home: ChannelId) -> bool {
        let quota = &mut self.quota[home.index()];
        let first = *quota > 0;
        *quota -= usize::from(first);
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<RequestId> {
        range.map(RequestId::new).collect()
    }

    #[test]
    fn even_channels_split_exactly() {
        let chans = vec![ids(0..4), ids(4..10)];
        let sb = partition_sub_batches(&chans);
        assert_eq!(sb.sb1.len(), 2 + 3);
        assert_eq!(sb.sb2.len(), 2 + 3);
    }

    #[test]
    fn odd_channels_alternate_the_extra() {
        // Four channels of 3 requests: the extra one alternates, keeping
        // the global split exactly even.
        let chans = vec![ids(0..3), ids(3..6), ids(6..9), ids(9..12)];
        let sb = partition_sub_batches(&chans);
        assert_eq!(sb.sb1.len(), 6);
        assert_eq!(sb.sb2.len(), 6);
        // Per channel, sizes differ by at most one.
        // (channel 0 gives 2+1, channel 1 gives 1+2, ...)
    }

    #[test]
    fn per_channel_difference_at_most_one() {
        let chans = vec![ids(0..7), ids(7..8), ids(8..13)];
        let sb = partition_sub_batches(&chans);
        // Reconstruct per-channel counts.
        for (start, len) in [(0u32, 7usize), (7, 1), (8, 5)] {
            let in1 = sb
                .sb1
                .iter()
                .filter(|r| r.0 >= start && r.0 < start + len as u32)
                .count();
            let in2 = len - in1;
            assert!(in1.abs_diff(in2) <= 1, "channel at {start}: {in1} vs {in2}");
        }
    }

    #[test]
    fn no_request_lost_or_duplicated() {
        let chans = vec![ids(0..5), ids(5..5), ids(5..14), ids(14..15)];
        let sb = partition_sub_batches(&chans);
        let mut all: Vec<u32> = sb.sb1.iter().chain(&sb.sb2).map(|r| r.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let sb = partition_sub_batches(&[]);
        assert!(sb.is_empty());
        assert_eq!(sb.len(), 0);
    }

    #[test]
    fn global_balance_within_one_for_random_shapes() {
        // Many odd channels: alternation keeps |SB1| - |SB2| <= 1.
        let mut chans = Vec::new();
        let mut next = 0u32;
        for len in [3u32, 5, 1, 7, 9, 1, 3, 5] {
            chans.push(ids(next..next + len));
            next += len;
        }
        let sb = partition_sub_batches(&chans);
        assert!(sb.sb1.len().abs_diff(sb.sb2.len()) <= 1);
        assert_eq!(sb.len() as u32, next);
    }
}
