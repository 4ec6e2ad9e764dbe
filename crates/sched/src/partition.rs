//! Algorithm 3: sub-batch partitioning.
//!
//! Sub-batch interleaving runs two independent sub-batches through the
//! device so one's GEMMs overlap the other's MHA. NPU-side cost depends on
//! sub-batch size, so the split must be even; MHA cost depends on
//! per-channel loads, so the split must be even *per channel*. Algorithm 3
//! halves each channel's request list, alternating which sub-batch receives
//! the odd element (`turn` flips per odd-sized channel).
//!
//! The split depends only on each channel's request count, so
//! [`SubBatchSides`] takes counts in and gives one side per request out,
//! without materializing per-channel lists.

use neupims_types::ChannelId;

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

/// Algorithm 3 from per-channel counts: assigns each request of a batch
/// to a sub-batch in one walk, with no per-channel lists.
///
/// Built from the batch's home channels in batch order, it halves the
/// per-channel lists that order induces: each channel's first requests
/// fill its first-sub-batch quota, the rest form the second sub-batch.
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
