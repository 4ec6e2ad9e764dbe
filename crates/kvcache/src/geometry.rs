//! The Section 6.3 K/V memory layout and its tile arithmetic.
//!
//! Keys are stored token-major ("key caches at the same row and column
//! share the same layer and head index, with differing sequence indices"):
//! each token contributes one `E`-element K vector, packed page-by-page and
//! interleaved row-wise across banks. Values are stored transposed
//! ("interleaving each head embedding into banks"): each embedding
//! dimension's sequence-major run is paged.
//!
//! From that layout follow the quantities Algorithm 1 uses:
//!
//! * logit GEMV (`Kᵀ x Q`): `N_tiles = ceil(seq/B_chnl) * ceil(E/P_DRAM)`,
//!   with `ceil(E/P_DRAM)` GWRITEs for the query vector;
//! * attend GEMV (`L x V`): `N_tiles = ceil((E/N_head)/B_chnl) *
//!   ceil(seq/P_DRAM) * N_head`, with `ceil(seq/P_DRAM) * N_head` GWRITEs
//!   for the per-head logit vectors.
//!
//! All counts are per decoder layer for one request on its home channel.
//! [`KvGeometry`] states each count as the formula above;
//! [`KvGeometry::counts`] prepares its divisors once, for pricing loops
//! that count every request of every iteration.

use neupims_types::{Divisor, LlmConfig, MemConfig};

/// Per-device K/V layout parameters for one model on one memory config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvGeometry {
    /// Embedding size per device (after tensor-parallel sharding), elements.
    pub embed: u64,
    /// Attention heads per device (after tensor-parallel sharding).
    pub heads: u64,
    /// Elements per DRAM page at the model dtype.
    pub page_elems: u64,
    /// Banks per channel.
    pub banks: u64,
    /// Bytes per element.
    pub elem_bytes: u64,
}

impl KvGeometry {
    /// Builds the geometry for `model` on `mem` at tensor-parallel degree
    /// `tp` (heads split evenly, at least one per device).
    pub fn with_tp(model: &LlmConfig, mem: &MemConfig, tp: u32) -> Self {
        let heads = (model.num_heads / tp).max(1) as u64;
        let d_head = (model.d_model / model.num_heads) as u64;
        Self {
            embed: heads * d_head,
            heads,
            page_elems: mem.page_elems(model.dtype),
            banks: mem.banks_per_channel as u64,
            elem_bytes: model.dtype.size_bytes(),
        }
    }

    /// Head dimension in elements.
    pub fn d_head(&self) -> u64 {
        self.embed / self.heads
    }

    /// PIM tiles of the logit GEMV for a `seq_len`-token context
    /// (Algorithm 1, line 2).
    pub fn logit_tiles(&self, seq_len: u64) -> u64 {
        if seq_len == 0 {
            return 0;
        }
        seq_len.div_ceil(self.banks) * self.embed.div_ceil(self.page_elems)
    }

    /// GWRITEs loading the query vector for the logit GEMV
    /// (Algorithm 1, line 3).
    pub fn logit_gwrites(&self) -> u64 {
        self.embed.div_ceil(self.page_elems)
    }

    /// PIM tiles of the attend GEMV (Algorithm 1, line 5).
    pub fn attend_tiles(&self, seq_len: u64) -> u64 {
        if seq_len == 0 {
            return 0;
        }
        self.d_head().div_ceil(self.banks) * seq_len.div_ceil(self.page_elems) * self.heads
    }

    /// GWRITEs loading per-head logit vectors for the attend GEMV
    /// (Algorithm 1, line 6).
    pub fn attend_gwrites(&self, seq_len: u64) -> u64 {
        if seq_len == 0 {
            return 0;
        }
        seq_len.div_ceil(self.page_elems) * self.heads
    }

    /// Total PIM tiles of one request's MHA in one decoder layer.
    pub fn mha_tiles(&self, seq_len: u64) -> u64 {
        self.logit_tiles(seq_len) + self.attend_tiles(seq_len)
    }

    /// Total GWRITEs of one request's MHA in one decoder layer.
    pub fn mha_gwrites(&self, seq_len: u64) -> u64 {
        self.logit_gwrites() + self.attend_gwrites(seq_len)
    }

    /// KV pages consumed by a `seq_len`-token context in one layer
    /// (K token-major plus V packed-transposed, page-quantized per head).
    pub fn kv_pages_per_layer(&self, seq_len: u64) -> u64 {
        if seq_len == 0 {
            return 0;
        }
        let d_head = self.d_head();
        let tokens_per_kpage = (self.page_elems / d_head).max(1);
        let k = self.heads * seq_len.div_ceil(tokens_per_kpage);
        // V is repacked transposed; page-quantize each head's d_head x seq
        // block (multiple short sequence runs share a page within a head).
        let v = self.heads * (d_head * seq_len).div_ceil(self.page_elems);
        k + v
    }

    /// KV bytes appended per token per layer (both K and V).
    pub fn kv_bytes_per_token_layer(&self) -> u64 {
        2 * self.embed * self.elem_bytes
    }

    /// The per-request counts of this geometry with their divisors
    /// prepared once.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no banks, no page elements or no heads.
    pub fn counts(&self) -> KvCounts {
        let d_head = self.d_head();
        KvCounts {
            banks: Divisor::new(self.banks),
            page: Divisor::new(self.page_elems),
            k_page_tokens: Divisor::new((self.page_elems / d_head).max(1)),
            k_pages: self.embed.div_ceil(self.page_elems),
            attend_rows: d_head.div_ceil(self.banks) * self.heads,
            heads: self.heads,
            d_head,
        }
    }
}

/// [`KvGeometry`]'s per-request counts, each `O(1)` with no hardware
/// division when banks, page size and K-page tokens are powers of two.
/// Every count equals the geometry method of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCounts {
    /// `B_chnl`: tokens per bank row.
    banks: Divisor,
    /// `P_DRAM`: elements per page.
    page: Divisor,
    /// Tokens per K page.
    k_page_tokens: Divisor,
    /// `ceil(E / P_DRAM)`: K pages, and the query GWRITEs.
    k_pages: u64,
    /// `ceil((E / N_head) / B_chnl) * N_head`: attend tiles per
    /// sequence page.
    attend_rows: u64,
    heads: u64,
    d_head: u64,
}

impl KvCounts {
    /// [`KvGeometry::logit_tiles`].
    #[inline]
    pub fn logit_tiles(&self, seq_len: u64) -> u64 {
        self.banks.div_ceil(seq_len) * self.k_pages
    }

    /// [`KvGeometry::logit_gwrites`].
    #[inline]
    pub fn logit_gwrites(&self) -> u64 {
        self.k_pages
    }

    /// [`KvGeometry::attend_tiles`].
    #[inline]
    pub fn attend_tiles(&self, seq_len: u64) -> u64 {
        self.page.div_ceil(seq_len) * self.attend_rows
    }

    /// [`KvGeometry::attend_gwrites`].
    #[inline]
    pub fn attend_gwrites(&self, seq_len: u64) -> u64 {
        self.page.div_ceil(seq_len) * self.heads
    }

    /// [`KvGeometry::mha_tiles`].
    #[inline]
    pub fn mha_tiles(&self, seq_len: u64) -> u64 {
        self.logit_tiles(seq_len) + self.attend_tiles(seq_len)
    }

    /// [`KvGeometry::mha_gwrites`].
    #[inline]
    pub fn mha_gwrites(&self, seq_len: u64) -> u64 {
        self.logit_gwrites() + self.attend_gwrites(seq_len)
    }

    /// [`KvGeometry::kv_pages_per_layer`].
    #[inline]
    pub fn kv_pages_per_layer(&self, seq_len: u64) -> u64 {
        self.heads * self.k_page_tokens.div_ceil(seq_len)
            + self.heads * self.page.div_ceil(self.d_head * seq_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::LlmConfig;

    fn geo() -> KvGeometry {
        // GPT3-7B at TP=4: 8 heads x 128 = 1024 embed per device.
        KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &MemConfig::table2(), 4)
    }

    #[test]
    fn sharded_dimensions() {
        let g = geo();
        assert_eq!(g.heads, 8);
        assert_eq!(g.embed, 1024);
        assert_eq!(g.d_head(), 128);
        assert_eq!(g.page_elems, 512);
    }

    #[test]
    fn algorithm1_line2_logit_tiles() {
        let g = geo();
        // seq=64: ceil(64/32) * ceil(1024/512) = 2 * 2 = 4 tiles.
        assert_eq!(g.logit_tiles(64), 4);
        // seq=1: still one bank row per K page -> 1 * 2.
        assert_eq!(g.logit_tiles(1), 2);
        assert_eq!(g.logit_tiles(0), 0);
        assert_eq!(g.logit_gwrites(), 2);
    }

    #[test]
    fn algorithm1_line5_attend_tiles() {
        let g = geo();
        // d_head/banks = 128/32 = 4; seq=512 fills one page per head run.
        assert_eq!(g.attend_tiles(512), 4 * 8);
        assert_eq!(g.attend_tiles(513), 4 * 2 * 8);
        assert_eq!(g.attend_gwrites(512), 8);
        assert_eq!(g.attend_gwrites(513), 16);
    }

    #[test]
    fn tiles_monotone_in_seq() {
        let g = geo();
        let mut prev = 0;
        for seq in [1u64, 16, 100, 512, 513, 2048, 8192] {
            let t = g.mha_tiles(seq);
            assert!(t >= prev, "seq {seq}");
            prev = t;
        }
    }

    #[test]
    fn asymptotic_tile_balance() {
        // For page-aligned long sequences, logit and attend tiles both
        // approach KV-bytes / (banks * page) — the layout wastes nothing.
        let g = geo();
        let seq = 16 * 512; // page-aligned
        let logit = g.logit_tiles(seq);
        let attend = g.attend_tiles(seq);
        assert_eq!(logit, attend, "logit {logit} vs attend {attend}");
    }

    #[test]
    fn kv_page_accounting() {
        let g = geo();
        // tokens per K page = 512/128 = 4.
        // seq=8: K = 8 heads * 2 pages; V = 8 heads * ceil(128*8/512)=2.
        assert_eq!(g.kv_pages_per_layer(8), 8 * 2 + 8 * 2);
        assert_eq!(g.kv_pages_per_layer(0), 0);
        // Bytes per token: 2 * 1024 * 2 = 4 KiB per layer per device.
        assert_eq!(g.kv_bytes_per_token_layer(), 4096);
    }

    #[test]
    fn full_model_geometry_unsharded() {
        let g = KvGeometry::with_tp(&LlmConfig::gpt3_175b(), &MemConfig::table2(), 1);
        assert_eq!(g.embed, 12288);
        assert_eq!(g.heads, 96);
        assert_eq!(g.logit_gwrites(), 24);
    }
}
