//! Property tests: the paged allocator never double-books or leaks pages
//! through arbitrary admit/append/preempt/restore/release interleavings,
//! and the layout arithmetic stays consistent.

use proptest::prelude::*;

use neupims_kvcache::{KvAlloc, KvGeometry, PagedKvCache, PreemptedKv};
use neupims_types::{ChannelId, LlmConfig, MemConfig, SimError};

const CHANNELS: u32 = 4;

fn small_mem() -> MemConfig {
    MemConfig {
        channels: CHANNELS,
        capacity_per_channel: 8 << 20, // 8 Ki pages
        ..MemConfig::table2()
    }
}

#[derive(Debug, Clone)]
enum OpKind {
    Admit { channel: u32, seq: u64 },
    Append { pick: usize },
    Preempt { pick: usize },
    Restore { pick: usize, channel: u32 },
    Release { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (0..CHANNELS, 1u64..300).prop_map(|(channel, seq)| OpKind::Admit { channel, seq }),
        any::<usize>().prop_map(|pick| OpKind::Append { pick }),
        any::<usize>().prop_map(|pick| OpKind::Preempt { pick }),
        (any::<usize>(), 0..CHANNELS).prop_map(|(pick, channel)| OpKind::Restore { pick, channel }),
        any::<usize>().prop_map(|pick| OpKind::Release { pick }),
    ]
}

/// Each channel's free pages and the used total, as the cache reports
/// them.
fn totals(kv: &PagedKvCache) -> (Vec<u64>, u64) {
    let per_channel = (0..CHANNELS)
        .map(|c| kv.free_pages(ChannelId::new(c)))
        .collect();
    (per_channel, kv.used_pages())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accounting invariant: used pages on every channel always equal the
    /// sum of the pages of the live allocations homed there, every live
    /// allocation holds exactly the pages its context needs, and an
    /// out-of-memory append or restore changes neither the allocation nor
    /// the totals.
    #[test]
    fn cache_accounting_is_exact(ops in prop::collection::vec(op_strategy(), 1..160)) {
        let mem = small_mem();
        let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &mem, 4);
        let mut kv = PagedKvCache::new(&mem, geo, 4);
        let mut live: Vec<KvAlloc> = Vec::new();
        let mut parked: Vec<PreemptedKv> = Vec::new();

        for op in ops {
            let before = totals(&kv);
            match op {
                OpKind::Admit { channel, seq } => {
                    match kv.admit(ChannelId::new(channel), seq) {
                        Ok(alloc) => live.push(alloc),
                        Err(SimError::OutOfMemory { .. }) => prop_assert_eq!(totals(&kv), before),
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                OpKind::Append { pick } if !live.is_empty() => {
                    let n = live.len();
                    let alloc = &mut live[pick % n];
                    let (seq, pages) = (alloc.seq_len(), alloc.pages());
                    match kv.append_token(alloc) {
                        Ok(delta) => {
                            prop_assert_eq!(alloc.seq_len(), seq + 1);
                            prop_assert_eq!(delta, alloc.pages() - pages);
                        }
                        Err(SimError::OutOfMemory { .. }) => {
                            prop_assert_eq!((alloc.seq_len(), alloc.pages()), (seq, pages));
                            prop_assert_eq!(totals(&kv), before);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                OpKind::Preempt { pick } if !live.is_empty() => {
                    let alloc = live.swap_remove(pick % live.len());
                    let (channel, seq, pages) = (alloc.channel(), alloc.seq_len(), alloc.pages());
                    let receipt = kv.preempt(alloc);
                    prop_assert_eq!(
                        (receipt.channel, receipt.seq_len, receipt.pages),
                        (channel, seq, pages)
                    );
                    prop_assert_eq!(receipt.bytes, pages * kv.page_bytes());
                    parked.push(receipt);
                }
                OpKind::Restore { pick, channel } if !parked.is_empty() => {
                    let i = pick % parked.len();
                    match kv.restore(ChannelId::new(channel), parked[i].seq_len) {
                        Ok(alloc) => {
                            prop_assert_eq!(alloc.pages(), parked[i].pages);
                            parked.swap_remove(i);
                            live.push(alloc);
                        }
                        Err(SimError::OutOfMemory { .. }) => prop_assert_eq!(totals(&kv), before),
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                OpKind::Release { pick } if !live.is_empty() => {
                    let alloc = live.swap_remove(pick % live.len());
                    let pages = alloc.pages();
                    prop_assert_eq!(kv.release(alloc), pages);
                }
                _ => {}
            }
            // Invariant check against the live allocations.
            for alloc in &live {
                prop_assert_eq!(alloc.pages(), kv.pages_for(alloc.seq_len()));
            }
            for ch in (0..CHANNELS).map(ChannelId::new) {
                let expect: u64 = live
                    .iter()
                    .filter(|a| a.channel() == ch)
                    .map(KvAlloc::pages)
                    .sum();
                prop_assert_eq!(kv.free_pages(ch), kv.pages_per_channel() - expect, "channel {:?}", ch);
            }
            prop_assert_eq!(kv.used_pages(), live.iter().map(KvAlloc::pages).sum::<u64>());
        }
        for alloc in live {
            kv.release(alloc);
        }
        prop_assert_eq!(kv.used_pages(), 0);
    }

    /// Geometry arithmetic: tiles and pages are monotone in sequence
    /// length and exactly additive across the paper's two GEMV kinds.
    #[test]
    fn geometry_monotonicity(seq_a in 1u64..8192, delta in 1u64..512) {
        let geo = KvGeometry::with_tp(&LlmConfig::gpt3_13b(), &MemConfig::table2(), 4);
        let seq_b = seq_a + delta;
        prop_assert!(geo.mha_tiles(seq_b) >= geo.mha_tiles(seq_a));
        prop_assert!(geo.kv_pages_per_layer(seq_b) >= geo.kv_pages_per_layer(seq_a));
        prop_assert_eq!(
            geo.mha_tiles(seq_a),
            geo.logit_tiles(seq_a) + geo.attend_tiles(seq_a)
        );
        prop_assert_eq!(
            geo.mha_gwrites(seq_a),
            geo.logit_gwrites() + geo.attend_gwrites(seq_a)
        );
    }

    /// The prepared counts equal the geometry's formulas on arbitrary
    /// layouts: banks, page sizes and head widths that are and are not
    /// powers of two, and contexts from 0 up to 2^40 tokens.
    #[test]
    fn prepared_counts_match_the_geometry(
        heads in 1u64..129,
        d_head in maybe_pow2(1..257),
        page_elems in maybe_pow2(1..8193),
        banks in maybe_pow2(1..65),
        seqs in prop::collection::vec(context(), 1..32),
    ) {
        let geo = KvGeometry {
            embed: heads * d_head,
            heads,
            page_elems,
            banks,
            elem_bytes: 2,
        };
        let counts = geo.counts();
        prop_assert_eq!(counts.logit_gwrites(), geo.logit_gwrites());
        for seq in seqs {
            prop_assert_eq!(counts.logit_tiles(seq), geo.logit_tiles(seq));
            prop_assert_eq!(counts.attend_tiles(seq), geo.attend_tiles(seq));
            prop_assert_eq!(counts.attend_gwrites(seq), geo.attend_gwrites(seq));
            prop_assert_eq!(counts.mha_tiles(seq), geo.mha_tiles(seq));
            prop_assert_eq!(counts.mha_gwrites(seq), geo.mha_gwrites(seq));
            prop_assert_eq!(counts.kv_pages_per_layer(seq), geo.kv_pages_per_layer(seq));
        }
    }
}

/// A value drawn from `range`, rounded up to a power of two half the time.
fn maybe_pow2(range: std::ops::Range<u64>) -> impl Strategy<Value = u64> {
    (range, any::<bool>()).prop_map(|(v, pow2)| if pow2 { v.next_power_of_two() } else { v })
}

/// A context length from 0 to 2^40 tokens, spread over every magnitude.
fn context() -> impl Strategy<Value = u64> {
    (0u32..41, any::<u64>()).prop_map(|(bits, r)| r % ((1u64 << bits) + 1))
}
