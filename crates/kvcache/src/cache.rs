//! Count-based paged KV-cache accounting for the system simulator.
//!
//! At serving scale (hundreds of requests, tens of layers, thousands of
//! pages each) tracking individual page ids is wasteful; what the scheduler
//! needs is exact per-channel occupancy, growth on every generated token,
//! and out-of-memory signaling at admission. [`PagedKvCache`] provides
//! that, with page counts computed by the same [`KvGeometry`] the latency
//! estimator uses.
//!
//! The cache keeps only per-channel page totals. Each admission hands
//! back a [`KvAlloc`] — the request's channel, context length and page
//! count — which the caller stores beside the request and passes back to
//! grow ([`PagedKvCache::append_token`]) and free
//! ([`PagedKvCache::release`]) it. A `KvAlloc` is not `Clone` and freeing
//! consumes it, so an allocation cannot be freed twice.
//!
//! Beyond admit/grow/release, the cache supports the vLLM preemption
//! lifecycle: [`PagedKvCache::preempt`] releases a victim's pages but
//! hands back a [`PreemptedKv`] receipt (context length, page count,
//! bytes) so a serving layer can park the request and later
//! [`PagedKvCache::restore`] it — re-reserving pages for the context it
//! had grown to, on whichever channel now has room. Preempt/restore
//! traffic is counted separately from plain releases
//! ([`PagedKvCache::preemptions`], [`PagedKvCache::restores`]) so
//! outcomes can report how often the run evicted KV state.

use neupims_types::{ChannelId, MemConfig, SimError};

use crate::geometry::{KvCounts, KvGeometry};

/// One request's live KV allocation: the pages its context holds on one
/// channel. Only [`PagedKvCache::admit`] and [`PagedKvCache::restore`]
/// make one, and [`PagedKvCache::release`] or [`PagedKvCache::preempt`]
/// consume it, returning its pages to the channel.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "dropping a KvAlloc leaks its pages; release or preempt it"]
pub struct KvAlloc {
    channel: ChannelId,
    seq_len: u64,
    pages: u64,
}

impl KvAlloc {
    /// Channel the pages live on.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Context length (tokens) the pages hold.
    pub fn seq_len(&self) -> u64 {
        self.seq_len
    }

    /// Pages reserved (`pages_for(seq_len)` of the cache that made it).
    pub fn pages(&self) -> u64 {
        self.pages
    }
}

/// Receipt of one preempted request's released KV allocation — everything
/// a serving layer needs to park the request and price its restoration
/// (recompute re-pays prefill over `seq_len` tokens; swap transfers
/// `bytes` over the host link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptedKv {
    /// Channel the pages lived on.
    pub channel: ChannelId,
    /// Context length (tokens) the request had grown to at preemption.
    pub seq_len: u64,
    /// Pages released.
    pub pages: u64,
    /// Bytes released (`pages * page_bytes`) — the swap transfer size.
    pub bytes: u64,
}

/// Per-channel paged KV-cache accounting.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    geometry: KvGeometry,
    /// The geometry's counts, prepared once: every admission, token and
    /// restore prices pages with them.
    counts: KvCounts,
    layers: u32,
    pages_per_channel: u64,
    page_bytes: u64,
    used: Vec<u64>,
    /// Sum of `used` (kept alongside it so utilization samples are O(1)).
    used_total: u64,
    preemptions: u64,
    restores: u64,
}

impl PagedKvCache {
    /// Creates the cache over `mem` with layout `geometry` and `layers`
    /// decoder blocks resident on this device (after pipeline sharding).
    pub fn new(mem: &MemConfig, geometry: KvGeometry, layers: u32) -> Self {
        Self {
            geometry,
            counts: geometry.counts(),
            layers,
            pages_per_channel: mem.capacity_per_channel / mem.page_bytes,
            page_bytes: mem.page_bytes,
            used: vec![0; mem.channels as usize],
            used_total: 0,
            preemptions: 0,
            restores: 0,
        }
    }

    /// Layout geometry used for page math.
    pub fn geometry(&self) -> &KvGeometry {
        &self.geometry
    }

    /// Page capacity of one channel (the hard ceiling on any single
    /// request's context: a context needing more pages than this can
    /// never be admitted or restored).
    pub fn pages_per_channel(&self) -> u64 {
        self.pages_per_channel
    }

    /// Bytes per page (swap transfer math: a preempted allocation moves
    /// `pages * page_bytes` bytes over the host link).
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Pages a `seq_len`-token context occupies on its channel (all
    /// resident layers).
    pub fn pages_for(&self, seq_len: u64) -> u64 {
        self.counts.kv_pages_per_layer(seq_len) * self.layers as u64
    }

    /// Free pages on `channel`.
    pub fn free_pages(&self, channel: ChannelId) -> u64 {
        self.pages_per_channel - self.used[channel.index()]
    }

    /// Total pages across all channels.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_channel * self.used.len() as u64
    }

    /// Pages currently reserved across all channels.
    pub fn used_pages(&self) -> u64 {
        debug_assert_eq!(
            self.used_total,
            self.used.iter().sum::<u64>(),
            "used-page total drifted from the per-channel counts"
        );
        self.used_total
    }

    /// Number of channels the cache pages across.
    pub fn channels(&self) -> u32 {
        self.used.len() as u32
    }

    /// Overall pool utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.total_pages();
        if total == 0 {
            0.0
        } else {
            self.used_pages() as f64 / total as f64
        }
    }

    /// Admits a request with `seq_len` tokens of context onto `channel`,
    /// reserving all pages its current context needs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] (reserving nothing) if the channel
    /// lacks pages.
    pub fn admit(&mut self, channel: ChannelId, seq_len: u64) -> Result<KvAlloc, SimError> {
        let pages = self.pages_for(seq_len);
        let free = self.free_pages(channel);
        if pages > free {
            return Err(SimError::OutOfMemory {
                channel,
                requested_pages: pages,
                free_pages: free,
            });
        }
        self.used[channel.index()] += pages;
        self.used_total += pages;
        Ok(KvAlloc {
            channel,
            seq_len,
            pages,
        })
    }

    /// Grows `alloc`'s context by one generated token, allocating new
    /// pages only when a page boundary is crossed (the vLLM property).
    ///
    /// Returns the number of newly allocated pages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] (leaving `alloc` and the channel
    /// unchanged) when the channel is full.
    pub fn append_token(&mut self, alloc: &mut KvAlloc) -> Result<u64, SimError> {
        let new_pages = self.pages_for(alloc.seq_len + 1);
        let delta = new_pages.saturating_sub(alloc.pages);
        let used = &mut self.used[alloc.channel.index()];
        let free = self.pages_per_channel - *used;
        if delta > free {
            return Err(SimError::OutOfMemory {
                channel: alloc.channel,
                requested_pages: delta,
                free_pages: free,
            });
        }
        *used += delta;
        self.used_total += delta;
        alloc.seq_len += 1;
        alloc.pages = new_pages;
        Ok(delta)
    }

    /// Releases every page of `alloc`, returning how many were freed.
    pub fn release(&mut self, alloc: KvAlloc) -> u64 {
        self.used[alloc.channel.index()] -= alloc.pages;
        self.used_total -= alloc.pages;
        alloc.pages
    }

    /// Releases every page of `alloc` *for preemption*, returning a
    /// [`PreemptedKv`] receipt instead of a bare page count: the serving
    /// layer parks the request and uses the receipt to price its
    /// restoration (recompute or swap). Counted in
    /// [`Self::preemptions`], separately from completion releases.
    ///
    /// # Example
    ///
    /// The full preempt/restore round trip — pages come back, the context
    /// length survives parking, and the traffic is accounted:
    ///
    /// ```
    /// use neupims_kvcache::{KvGeometry, PagedKvCache};
    /// use neupims_types::{ChannelId, LlmConfig, MemConfig};
    ///
    /// let mem = MemConfig::table2();
    /// let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &mem, 4);
    /// let mut kv = PagedKvCache::new(&mem, geo, 32);
    /// let ch = ChannelId::new(0);
    ///
    /// let mut alloc = kv.admit(ch, 128).unwrap();
    /// kv.append_token(&mut alloc).unwrap(); // context grows to 129
    ///
    /// let receipt = kv.preempt(alloc); // victim selected: evict
    /// assert_eq!(receipt.seq_len, 129);
    /// assert_eq!(receipt.bytes, receipt.pages * kv.page_bytes());
    /// assert_eq!(kv.used_pages(), 0, "pages are free while parked");
    ///
    /// let alloc = kv.restore(ch, receipt.seq_len).unwrap(); // swap back in
    /// assert_eq!(alloc.seq_len(), 129);
    /// assert_eq!((kv.preemptions(), kv.restores()), (1, 1));
    /// kv.release(alloc);
    /// ```
    pub fn preempt(&mut self, alloc: KvAlloc) -> PreemptedKv {
        let (channel, seq_len) = (alloc.channel, alloc.seq_len);
        let pages = self.release(alloc);
        self.preemptions += 1;
        PreemptedKv {
            channel,
            seq_len,
            pages,
            bytes: pages * self.page_bytes,
        }
    }

    /// Re-admits a previously [preempted](Self::preempt) request with the
    /// `seq_len`-token context it had grown to, reserving all its pages on
    /// `channel` (which need not be the original home — restores go where
    /// room is). Counted in [`Self::restores`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] (reserving nothing) if the
    /// channel lacks pages.
    pub fn restore(&mut self, channel: ChannelId, seq_len: u64) -> Result<KvAlloc, SimError> {
        let alloc = self.admit(channel, seq_len)?;
        self.restores += 1;
        Ok(alloc)
    }

    /// Preemption events since construction.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Restore events since construction.
    pub fn restores(&self) -> u64 {
        self.restores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::LlmConfig;

    fn cache() -> PagedKvCache {
        let mem = MemConfig::table2();
        let model = LlmConfig::gpt3_7b();
        let geo = KvGeometry::with_tp(&model, &mem, model.parallelism.tp);
        // 8 resident layers keeps page numbers readable.
        PagedKvCache::new(&mem, geo, 8)
    }

    /// A 64-page-per-channel cache.
    fn tiny_cache() -> PagedKvCache {
        let mem = MemConfig {
            capacity_per_channel: 64 << 10,
            ..MemConfig::table2()
        };
        let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &mem, 4);
        PagedKvCache::new(&mem, geo, 8)
    }

    #[test]
    fn admission_reserves_exact_pages() {
        let mut kv = cache();
        let c = ChannelId::new(0);
        let before = kv.free_pages(c);
        let alloc = kv.admit(c, 80).unwrap();
        let expected = kv.pages_for(80);
        assert_eq!(kv.free_pages(c), before - expected);
        assert_eq!(
            (alloc.channel(), alloc.seq_len(), alloc.pages()),
            (c, 80, expected)
        );
        kv.release(alloc);
    }

    #[test]
    fn append_allocates_lazily() {
        let mut kv = cache();
        let c = ChannelId::new(2);
        // tokens per K page = 4: growth from 80 allocates only at 81, 85...
        let mut alloc = kv.admit(c, 80).unwrap();
        let mut total_new = 0;
        let mut events = 0;
        for _ in 0..8 {
            let d = kv.append_token(&mut alloc).unwrap();
            total_new += d;
            if d > 0 {
                events += 1;
            }
        }
        assert_eq!(alloc.seq_len(), 88);
        assert_eq!(alloc.pages(), kv.pages_for(88));
        assert_eq!(total_new, kv.pages_for(88) - kv.pages_for(80));
        assert!(
            events < 8,
            "every token allocating pages defeats paging ({events})"
        );
        kv.release(alloc);
    }

    #[test]
    fn release_returns_everything() {
        let mut kv = cache();
        let c = ChannelId::new(5);
        let before = kv.free_pages(c);
        let mut alloc = kv.admit(c, 300).unwrap();
        for _ in 0..10 {
            kv.append_token(&mut alloc).unwrap();
        }
        let freed = kv.release(alloc);
        assert_eq!(kv.free_pages(c), before);
        assert_eq!(freed, kv.pages_for(310));
        assert_eq!(kv.used_pages(), 0);
    }

    #[test]
    fn admission_oom_is_clean() {
        let mut kv = tiny_cache();
        let c = ChannelId::new(0);
        let err = kv.admit(c, 4096).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!(kv.free_pages(c), 64, "failed admit must not leak");
        assert_eq!(kv.used_pages(), 0);
    }

    #[test]
    fn append_oom_leaves_the_allocation_unchanged() {
        let mem = MemConfig {
            capacity_per_channel: 4 << 20, // 4096 pages
            ..MemConfig::table2()
        };
        let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &mem, 4);
        let mut kv = PagedKvCache::new(&mem, geo, 8);
        let c = ChannelId::new(0);
        // The longest context the channel holds: its next token needs a
        // page the channel does not have.
        let mut seq = 1;
        while kv.pages_for(seq + 1) <= kv.pages_per_channel() {
            seq += 1;
        }
        let mut alloc = kv.admit(c, seq).unwrap();
        let before = (alloc.seq_len(), alloc.pages(), kv.free_pages(c));
        let err = kv.append_token(&mut alloc).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!((alloc.seq_len(), alloc.pages(), kv.free_pages(c)), before);
        kv.release(alloc);
    }

    #[test]
    fn channels_are_independent() {
        let mut kv = cache();
        let alloc = kv.admit(ChannelId::new(0), 100).unwrap();
        assert_eq!(
            kv.free_pages(ChannelId::new(1)),
            kv.pages_per_channel,
            "other channels untouched"
        );
        assert!(kv.utilization() > 0.0);
        assert_eq!(kv.used_pages(), kv.pages_for(100));
        assert_eq!(
            kv.utilization(),
            kv.used_pages() as f64 / kv.total_pages() as f64
        );
        kv.release(alloc);
    }

    #[test]
    fn preempt_restore_round_trip() {
        let mut kv = cache();
        let c = ChannelId::new(1);
        let mut alloc = kv.admit(c, 200).unwrap();
        for _ in 0..7 {
            kv.append_token(&mut alloc).unwrap();
        }
        let free_before = kv.free_pages(c);
        let receipt = kv.preempt(alloc);
        assert_eq!(receipt.channel, c);
        assert_eq!(receipt.seq_len, 207);
        assert_eq!(receipt.pages, kv.pages_for(207));
        assert_eq!(receipt.bytes, receipt.pages * kv.page_bytes());
        assert_eq!(kv.free_pages(c), free_before + receipt.pages);
        assert_eq!(kv.used_pages(), 0);
        assert_eq!(kv.preemptions(), 1);
        assert_eq!(kv.restores(), 0);

        // Restore onto a *different* channel: the context survives.
        let other = ChannelId::new(3);
        let mut alloc = kv.restore(other, receipt.seq_len).unwrap();
        assert_eq!(alloc.seq_len(), 207);
        assert_eq!(alloc.channel(), other);
        assert_eq!(kv.used_pages(), receipt.pages);
        assert_eq!(kv.free_pages(c), kv.pages_per_channel());
        assert_eq!(kv.restores(), 1);
        // Growth resumes where the context left off.
        kv.append_token(&mut alloc).unwrap();
        assert_eq!(alloc.seq_len(), 208);
        kv.release(alloc);
    }

    #[test]
    fn preempt_accounting_is_separate_from_release() {
        let mut kv = cache();
        let a = kv.admit(ChannelId::new(0), 64).unwrap();
        let b = kv.admit(ChannelId::new(0), 64).unwrap();
        kv.release(a);
        assert_eq!(kv.preemptions(), 0, "release is not a preemption");
        kv.preempt(b);
        assert_eq!(kv.preemptions(), 1);
        assert_eq!(kv.used_pages(), 0);
    }

    #[test]
    fn restore_oom_reserves_nothing() {
        let mut kv = tiny_cache();
        let c = ChannelId::new(0);
        let err = kv.restore(c, 4096).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!(kv.free_pages(c), 64, "failed restore must not leak");
        assert_eq!(kv.restores(), 0, "failed restore is not counted");
    }
}
