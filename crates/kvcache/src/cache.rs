//! Count-based paged KV-cache accounting for the system simulator.
//!
//! At serving scale (hundreds of requests, tens of layers, thousands of
//! pages each) tracking individual page ids is wasteful; what the scheduler
//! needs is exact per-channel occupancy, growth on every generated token,
//! and out-of-memory signaling at admission. [`PagedKvCache`] provides
//! that, with page counts computed by the same [`KvGeometry`] the latency
//! estimator uses.
//!
//! Beyond admit/grow/release, the cache supports the vLLM preemption
//! lifecycle: [`PagedKvCache::preempt`] releases a victim's pages but
//! hands back a [`PreemptedKv`] receipt (context length, page count,
//! bytes) so a serving layer can park the request and later
//! [`PagedKvCache::restore`] it — re-reserving pages for the context it
//! had grown to, on whichever channel now has room. Preempt/restore
//! traffic is counted separately from plain releases
//! ([`PagedKvCache::preemptions`], [`PagedKvCache::restores`],
//! [`PagedKvCache::pages_preempted`]) so outcomes can report how much
//! KV state the run evicted.

use neupims_types::{ChannelId, IdMap, MemConfig, RequestId, SimError};

use crate::geometry::KvGeometry;

#[derive(Debug, Clone, Copy)]
struct ReqAlloc {
    channel: ChannelId,
    seq_len: u64,
    pages: u64,
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
    layers: u32,
    pages_per_channel: u64,
    page_bytes: u64,
    used: Vec<u64>,
    /// Sum of `used` (kept alongside it so utilization samples are O(1)).
    used_total: u64,
    requests: IdMap<RequestId, ReqAlloc>,
    preemptions: u64,
    restores: u64,
    pages_preempted: u64,
}

impl PagedKvCache {
    /// Creates the cache over `mem` with layout `geometry` and `layers`
    /// decoder blocks resident on this device (after pipeline sharding).
    pub fn new(mem: &MemConfig, geometry: KvGeometry, layers: u32) -> Self {
        Self {
            geometry,
            layers,
            pages_per_channel: mem.capacity_per_channel / mem.page_bytes,
            page_bytes: mem.page_bytes,
            used: vec![0; mem.channels as usize],
            used_total: 0,
            requests: IdMap::default(),
            preemptions: 0,
            restores: 0,
            pages_preempted: 0,
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
        self.geometry.kv_pages_per_layer(seq_len) * self.layers as u64
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

    /// Sequence length currently recorded for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequest`] for unregistered ids.
    pub fn seq_len(&self, id: RequestId) -> Result<u64, SimError> {
        Ok(self
            .requests
            .get(&id)
            .ok_or(SimError::UnknownRequest(id))?
            .seq_len)
    }

    /// Admits a request with `seq_len` tokens of context onto `channel`,
    /// reserving all pages its current context needs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] (reserving nothing) if the channel
    /// lacks pages, or [`SimError::Scheduling`] when `id` is already
    /// admitted.
    pub fn admit(
        &mut self,
        id: RequestId,
        channel: ChannelId,
        seq_len: u64,
    ) -> Result<(), SimError> {
        if self.requests.contains_key(&id) {
            return Err(SimError::Scheduling(format!("{id} admitted twice")));
        }
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
        self.requests.insert(
            id,
            ReqAlloc {
                channel,
                seq_len,
                pages,
            },
        );
        Ok(())
    }

    /// Grows `id`'s context by one generated token, allocating new pages
    /// only when a page boundary is crossed (the vLLM property).
    ///
    /// Returns the number of newly allocated pages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequest`] for unregistered ids and
    /// [`SimError::OutOfMemory`] (leaving the request unchanged) when the
    /// channel is full.
    pub fn append_token(&mut self, id: RequestId) -> Result<u64, SimError> {
        let alloc = self
            .requests
            .get_mut(&id)
            .ok_or(SimError::UnknownRequest(id))?;
        let new_pages = self.geometry.kv_pages_per_layer(alloc.seq_len + 1) * self.layers as u64;
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

    /// Releases every page of `id`, returning how many were freed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequest`] for unregistered ids.
    pub fn release(&mut self, id: RequestId) -> Result<u64, SimError> {
        let alloc = self
            .requests
            .remove(&id)
            .ok_or(SimError::UnknownRequest(id))?;
        self.used[alloc.channel.index()] -= alloc.pages;
        self.used_total -= alloc.pages;
        Ok(alloc.pages)
    }

    /// Releases every page of `id` *for preemption*, returning a
    /// [`PreemptedKv`] receipt instead of a bare page count: the serving
    /// layer parks the request and uses the receipt to price its
    /// restoration (recompute or swap). Counted in
    /// [`Self::preemptions`] / [`Self::pages_preempted`], separately from
    /// completion releases.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRequest`] for unregistered ids.
    ///
    /// # Example
    ///
    /// The full preempt/restore round trip — pages come back, the context
    /// length survives parking, and the traffic is accounted:
    ///
    /// ```
    /// use neupims_kvcache::{KvGeometry, PagedKvCache};
    /// use neupims_types::{ChannelId, LlmConfig, MemConfig, RequestId};
    ///
    /// let mem = MemConfig::table2();
    /// let geo = KvGeometry::for_model(&LlmConfig::gpt3_7b(), &mem);
    /// let mut kv = PagedKvCache::new(&mem, geo, 32);
    /// let (id, ch) = (RequestId::new(7), ChannelId::new(0));
    ///
    /// kv.admit(id, ch, 128).unwrap();
    /// kv.append_token(id).unwrap(); // context grows to 129
    ///
    /// let receipt = kv.preempt(id).unwrap(); // victim selected: evict
    /// assert_eq!(receipt.seq_len, 129);
    /// assert_eq!(receipt.bytes, receipt.pages * kv.page_bytes());
    /// assert_eq!(kv.used_pages(), 0, "pages are free while parked");
    ///
    /// kv.restore(id, ch, receipt.seq_len).unwrap(); // swap back in
    /// assert_eq!(kv.seq_len(id).unwrap(), 129);
    /// assert_eq!((kv.preemptions(), kv.restores()), (1, 1));
    /// ```
    pub fn preempt(&mut self, id: RequestId) -> Result<PreemptedKv, SimError> {
        let alloc = self
            .requests
            .remove(&id)
            .ok_or(SimError::UnknownRequest(id))?;
        self.used[alloc.channel.index()] -= alloc.pages;
        self.used_total -= alloc.pages;
        self.preemptions += 1;
        self.pages_preempted += alloc.pages;
        Ok(PreemptedKv {
            channel: alloc.channel,
            seq_len: alloc.seq_len,
            pages: alloc.pages,
            bytes: alloc.pages * self.page_bytes,
        })
    }

    /// Re-admits a previously [preempted](Self::preempt) request with the
    /// `seq_len`-token context it had grown to, reserving all its pages on
    /// `channel` (which need not be the original home — restores go where
    /// room is). Counted in [`Self::restores`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] (reserving nothing) if the
    /// channel lacks pages, or [`SimError::Scheduling`] when `id` is
    /// still resident.
    pub fn restore(
        &mut self,
        id: RequestId,
        channel: ChannelId,
        seq_len: u64,
    ) -> Result<(), SimError> {
        self.admit(id, channel, seq_len)?;
        self.restores += 1;
        Ok(())
    }

    /// Preemption events since construction.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Restore events since construction.
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// Total pages released by preemptions (cumulative; restores do not
    /// subtract).
    pub fn pages_preempted(&self) -> u64 {
        self.pages_preempted
    }

    /// Number of admitted requests.
    pub fn active_requests(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::LlmConfig;

    fn cache() -> PagedKvCache {
        let mem = MemConfig::table2();
        let model = LlmConfig::gpt3_7b();
        let geo = KvGeometry::for_model(&model, &mem);
        // 8 resident layers keeps page numbers readable.
        PagedKvCache::new(&mem, geo, 8)
    }

    #[test]
    fn admission_reserves_exact_pages() {
        let mut kv = cache();
        let c = ChannelId::new(0);
        let before = kv.free_pages(c);
        kv.admit(RequestId::new(1), c, 80).unwrap();
        let expected = kv.pages_for(80);
        assert_eq!(kv.free_pages(c), before - expected);
        assert_eq!(kv.active_requests(), 1);
        assert_eq!(kv.seq_len(RequestId::new(1)).unwrap(), 80);
    }

    #[test]
    fn double_admission_rejected() {
        let mut kv = cache();
        kv.admit(RequestId::new(1), ChannelId::new(0), 10).unwrap();
        assert!(matches!(
            kv.admit(RequestId::new(1), ChannelId::new(1), 10),
            Err(SimError::Scheduling(_))
        ));
    }

    #[test]
    fn append_allocates_lazily() {
        let mut kv = cache();
        let c = ChannelId::new(2);
        // tokens per K page = 4: growth from 80 allocates only at 81, 85...
        kv.admit(RequestId::new(7), c, 80).unwrap();
        let mut total_new = 0;
        let mut events = 0;
        for _ in 0..8 {
            let d = kv.append_token(RequestId::new(7)).unwrap();
            total_new += d;
            if d > 0 {
                events += 1;
            }
        }
        assert_eq!(kv.seq_len(RequestId::new(7)).unwrap(), 88);
        assert_eq!(total_new, kv.pages_for(88) - kv.pages_for(80));
        assert!(
            events < 8,
            "every token allocating pages defeats paging ({events})"
        );
    }

    #[test]
    fn release_returns_everything() {
        let mut kv = cache();
        let c = ChannelId::new(5);
        let before = kv.free_pages(c);
        kv.admit(RequestId::new(3), c, 300).unwrap();
        for _ in 0..10 {
            kv.append_token(RequestId::new(3)).unwrap();
        }
        let freed = kv.release(RequestId::new(3)).unwrap();
        assert_eq!(kv.free_pages(c), before);
        assert_eq!(freed, kv.pages_for(310));
        assert!(matches!(
            kv.seq_len(RequestId::new(3)),
            Err(SimError::UnknownRequest(_))
        ));
    }

    #[test]
    fn admission_oom_is_clean() {
        let mem = MemConfig {
            capacity_per_channel: 64 << 10, // 64 pages
            ..MemConfig::table2()
        };
        let model = LlmConfig::gpt3_7b();
        let geo = KvGeometry::for_model(&model, &mem);
        let mut kv = PagedKvCache::new(&mem, geo, 8);
        let c = ChannelId::new(0);
        let err = kv.admit(RequestId::new(1), c, 4096).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!(kv.free_pages(c), 64, "failed admit must not leak");
        assert_eq!(kv.active_requests(), 0);
    }

    #[test]
    fn channels_are_independent() {
        let mut kv = cache();
        kv.admit(RequestId::new(1), ChannelId::new(0), 100).unwrap();
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
    }

    #[test]
    fn preempt_restore_round_trip() {
        let mut kv = cache();
        let c = ChannelId::new(1);
        kv.admit(RequestId::new(4), c, 200).unwrap();
        for _ in 0..7 {
            kv.append_token(RequestId::new(4)).unwrap();
        }
        let free_before = kv.free_pages(c);
        let receipt = kv.preempt(RequestId::new(4)).unwrap();
        assert_eq!(receipt.channel, c);
        assert_eq!(receipt.seq_len, 207);
        assert_eq!(receipt.pages, kv.pages_for(207));
        assert_eq!(receipt.bytes, receipt.pages * kv.page_bytes());
        assert_eq!(kv.free_pages(c), free_before + receipt.pages);
        assert_eq!(kv.active_requests(), 0);
        assert_eq!(kv.preemptions(), 1);
        assert_eq!(kv.pages_preempted(), receipt.pages);
        assert_eq!(kv.restores(), 0);

        // Restore onto a *different* channel: the context survives.
        let other = ChannelId::new(3);
        kv.restore(RequestId::new(4), other, receipt.seq_len)
            .unwrap();
        assert_eq!(kv.seq_len(RequestId::new(4)).unwrap(), 207);
        assert_eq!(kv.used_pages(), receipt.pages);
        assert_eq!(kv.free_pages(c), kv.pages_per_channel());
        assert_eq!(kv.restores(), 1);
        // Growth resumes where the context left off.
        kv.append_token(RequestId::new(4)).unwrap();
        assert_eq!(kv.seq_len(RequestId::new(4)).unwrap(), 208);
    }

    #[test]
    fn preempt_accounting_is_separate_from_release() {
        let mut kv = cache();
        kv.admit(RequestId::new(1), ChannelId::new(0), 64).unwrap();
        kv.admit(RequestId::new(2), ChannelId::new(0), 64).unwrap();
        kv.release(RequestId::new(1)).unwrap();
        assert_eq!(kv.preemptions(), 0, "release is not a preemption");
        kv.preempt(RequestId::new(2)).unwrap();
        assert_eq!(kv.preemptions(), 1);
        assert!(matches!(
            kv.preempt(RequestId::new(2)),
            Err(SimError::UnknownRequest(_))
        ));
    }

    #[test]
    fn restore_oom_reserves_nothing() {
        let mem = MemConfig {
            capacity_per_channel: 64 << 10, // 64 pages
            ..MemConfig::table2()
        };
        let model = LlmConfig::gpt3_7b();
        let geo = KvGeometry::for_model(&model, &mem);
        let mut kv = PagedKvCache::new(&mem, geo, 8);
        let c = ChannelId::new(0);
        let err = kv.restore(RequestId::new(1), c, 4096).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert_eq!(kv.free_pages(c), 64, "failed restore must not leak");
        assert_eq!(kv.restores(), 0, "failed restore is not counted");
    }

    #[test]
    fn unknown_request_errors() {
        let mut kv = cache();
        assert!(matches!(
            kv.append_token(RequestId::new(9)),
            Err(SimError::UnknownRequest(_))
        ));
        assert!(matches!(
            kv.release(RequestId::new(9)),
            Err(SimError::UnknownRequest(_))
        ));
    }
}
