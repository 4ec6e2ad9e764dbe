//! Property tests on the scheduling algorithms: bin-packing quality
//! bounds and equivalence with a linear-scan reference, partition
//! invariants and equivalence of the count-based split, and pool
//! conservation.

use proptest::prelude::*;

use neupims_kvcache::KvGeometry;
use neupims_sched::{MhaLatencyEstimator, MinLoadPacker, RequestPool, SubBatchSides};
use neupims_types::{ChannelId, LlmConfig, MemConfig, Request, RequestId};

fn estimator() -> MhaLatencyEstimator {
    let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &MemConfig::table2(), 4);
    MhaLatencyEstimator::new(geo, 280.0, 50.0)
}

/// The small cost set of the tie-heavy equivalence test: mixed signs and
/// both zeros, so GMLBP never takes its all-positive first round.
const COST_SET: [f64; 7] = [-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0];

/// A strictly positive, tie-heavy cost set: GMLBP fills the first round
/// of channels without its heap.
const POSITIVE_COST_SET: [f64; 5] = [f64::MIN_POSITIVE, 0.5, 1.0, 1.0, 3.0];

/// Non-negative costs with both zeros: a zero-cost request leaves its
/// channel tied at zero, so GMLBP must take the heap from the start.
const NON_NEGATIVE_COST_SET: [f64; 4] = [-0.0, 0.0, 0.5, 1.0];

/// `(lengths, costs)` drawn from `len` pairs over a small length range
/// and the positive cost set.
fn positive_pairs(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<u64>, Vec<f64>)> {
    prop::collection::vec(
        (
            1u64..6,
            (0..POSITIVE_COST_SET.len()).prop_map(|i| POSITIVE_COST_SET[i]),
        ),
        len,
    )
    .prop_map(|pairs| pairs.into_iter().unzip())
}

/// Algorithm 2: the GMLBP packer's assignment.
fn assign_min_load(seq_lens: &[u64], costs: &[f64], channels: u32) -> Vec<ChannelId> {
    let mut out = Vec::new();
    MinLoadPacker::new().assign(seq_lens, costs, channels, &mut out);
    out
}

/// The naive NPU+PIM baseline's placement.
fn assign_round_robin(seq_lens: &[u64], channels: u32) -> Vec<ChannelId> {
    (0..seq_lens.len() as u32)
        .map(|i| ChannelId::new(i % channels))
        .collect()
}

/// Algorithm 2 as a plain linear scan: LPT order (stable, by descending
/// length), each request to the first channel of minimum load.
fn lpt_scan_reference(seq_lens: &[u64], costs: &[f64], channels: u32) -> Vec<ChannelId> {
    let mut loads = vec![0.0f64; channels as usize];
    let mut order: Vec<usize> = (0..seq_lens.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(seq_lens[i]));
    let mut assignment = vec![ChannelId::new(0); seq_lens.len()];
    for &i in &order {
        let (min_idx, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assignment[i] = ChannelId::new(min_idx as u32);
        loads[min_idx] += costs[i];
    }
    assignment
}

/// Algorithm 3 as the paper states it: halve each channel's list, the odd
/// request alternating sides across odd-sized channels.
fn partition_reference(per_channel: &[Vec<RequestId>]) -> (Vec<RequestId>, Vec<RequestId>) {
    let mut turn = true;
    let (mut sb1, mut sb2) = (Vec::new(), Vec::new());
    for chnl in per_channel {
        let mut bsize = chnl.len() / 2;
        if chnl.len() % 2 != 0 {
            if turn {
                bsize = chnl.len().div_ceil(2);
            }
            turn = !turn;
        }
        sb1.extend_from_slice(&chnl[..bsize]);
        sb2.extend_from_slice(&chnl[bsize..]);
    }
    (sb1, sb2)
}

/// Algorithm 3 by [`SubBatchSides`]: each channel's list, in channel
/// order, split between the two sub-batches.
fn sides_partition(per_channel: &[Vec<RequestId>]) -> (Vec<RequestId>, Vec<RequestId>) {
    let homes: Vec<ChannelId> = per_channel
        .iter()
        .zip(0..)
        .flat_map(|(ids, c)| std::iter::repeat_n(ChannelId::new(c), ids.len()))
        .collect();
    let mut sides = SubBatchSides::new(&homes);
    let (mut sb1, mut sb2) = (Vec::new(), Vec::new());
    for (&home, &id) in homes.iter().zip(per_channel.iter().flatten()) {
        if sides.next_is_first(home) {
            sb1.push(id);
        } else {
            sb2.push(id);
        }
    }
    (sb1, sb2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy min-load (LPT) never produces a worse max-load than
    /// round-robin, and stays within the classical LPT bound of optimal:
    /// max_load <= avg_load + max_item (a safe relaxation of 4/3 OPT).
    #[test]
    fn min_load_quality_bounds(
        seqs in prop::collection::vec(1u64..4096, 1..200),
        channels in 1u32..33,
    ) {
        let e = estimator();
        let costs: Vec<f64> = seqs.iter().map(|&s| e.estimate(s)).collect();
        let greedy = assign_min_load(&seqs, &costs, channels);
        let rr = assign_round_robin(&seqs, channels);
        let max = |a: &[ChannelId]| {
            let mut loads = vec![0.0f64; channels as usize];
            for (&seq, ch) in seqs.iter().zip(a) {
                loads[ch.index()] += e.estimate(seq);
            }
            loads.into_iter().fold(0.0f64, f64::max)
        };
        let g = max(&greedy);
        let r = max(&rr);
        prop_assert!(g <= r + 1e-6, "greedy {g} worse than round-robin {r}");

        let total: f64 = seqs.iter().map(|&s| e.estimate(s)).sum();
        let avg = total / channels as f64;
        let biggest = seqs.iter().map(|&s| e.estimate(s)).fold(0.0, f64::max);
        prop_assert!(g <= avg + biggest + 1e-6, "LPT bound violated: {g} > {avg} + {biggest}");
    }

    /// The heap-based greedy assigns exactly like the linear scan. Lengths
    /// and costs come from small sets, so equal lengths (sort ties) and
    /// equal loads (channel ties) are common; costs include negatives and
    /// both signed zeros.
    #[test]
    fn min_load_matches_the_linear_scan(
        pairs in prop::collection::vec(
            (1u64..6, (0..COST_SET.len()).prop_map(|i| COST_SET[i])),
            0..200,
        ),
        channels in 1u32..65,
    ) {
        let (seqs, costs): (Vec<u64>, Vec<f64>) = pairs.into_iter().unzip();
        prop_assert_eq!(
            assign_min_load(&seqs, &costs, channels),
            lpt_scan_reference(&seqs, &costs, channels)
        );
    }

    /// The equivalence on strictly positive costs, where the first round
    /// of channels is filled in index order without the heap.
    #[test]
    fn min_load_matches_the_linear_scan_on_positive_costs(
        batch in positive_pairs(0..200),
        channels in 1u32..65,
    ) {
        let (seqs, costs) = batch;
        prop_assert_eq!(
            assign_min_load(&seqs, &costs, channels),
            lpt_scan_reference(&seqs, &costs, channels)
        );
    }

    /// The equivalence when costs are never negative but may be zero:
    /// the first-round rule does not apply.
    #[test]
    fn min_load_matches_the_linear_scan_on_zero_costs(
        pairs in prop::collection::vec(
            (
                1u64..6,
                (0..NON_NEGATIVE_COST_SET.len()).prop_map(|i| NON_NEGATIVE_COST_SET[i]),
            ),
            0..12,
        ),
        channels in 1u32..17,
    ) {
        let (seqs, costs): (Vec<u64>, Vec<f64>) = pairs.into_iter().unzip();
        prop_assert_eq!(
            assign_min_load(&seqs, &costs, channels),
            lpt_scan_reference(&seqs, &costs, channels)
        );
    }

    /// Fewer requests than channels: the first round is the whole
    /// assignment when every cost is positive, and the heap's when not.
    #[test]
    fn min_load_matches_the_linear_scan_below_one_round(
        batch in positive_pairs(0..32),
        extra in 1u32..40,
        mixed_sign in any::<bool>(),
    ) {
        let (seqs, costs) = batch;
        let costs: Vec<f64> = if mixed_sign {
            costs.iter().enumerate().map(|(i, &c)| COST_SET[i % COST_SET.len()] * c).collect()
        } else {
            costs
        };
        let channels = seqs.len() as u32 + extra;
        prop_assert_eq!(
            assign_min_load(&seqs, &costs, channels),
            lpt_scan_reference(&seqs, &costs, channels)
        );
    }

    /// Exactly one request per channel: positive costs end with the first
    /// round, so every channel gets one request, longest first.
    #[test]
    fn min_load_matches_the_linear_scan_at_one_full_round(
        batch in positive_pairs(1..65),
    ) {
        let (seqs, costs) = batch;
        let channels = seqs.len() as u32;
        let greedy = assign_min_load(&seqs, &costs, channels);
        prop_assert_eq!(&greedy, &lpt_scan_reference(&seqs, &costs, channels));
        let mut used: Vec<u32> = greedy.iter().map(|c| c.0).collect();
        used.sort_unstable();
        prop_assert_eq!(used, (0..channels).collect::<Vec<u32>>());
    }

    /// One channel takes everything, whatever the costs' signs.
    #[test]
    fn min_load_on_one_channel_is_all_channel_zero(
        pairs in prop::collection::vec(
            (1u64..6, (0..COST_SET.len()).prop_map(|i| COST_SET[i])),
            0..50,
        ),
    ) {
        let (seqs, costs): (Vec<u64>, Vec<f64>) = pairs.into_iter().unzip();
        let greedy = assign_min_load(&seqs, &costs, 1);
        prop_assert_eq!(&greedy, &lpt_scan_reference(&seqs, &costs, 1));
        prop_assert!(greedy.iter().all(|c| c.0 == 0));
    }

    /// Lengths too long to pack next to their index take the stable-sort
    /// fallback, with the same assignment as the linear scan.
    #[test]
    fn min_load_matches_the_linear_scan_on_huge_lengths(
        pairs in prop::collection::vec(
            (
                prop_oneof![1u64..6, (1u64 << 58)..(1u64 << 62), (u64::MAX - 4)..u64::MAX],
                (0..POSITIVE_COST_SET.len()).prop_map(|i| POSITIVE_COST_SET[i]),
            ),
            2..100,
        ),
        channels in 1u32..17,
    ) {
        let (seqs, costs): (Vec<u64>, Vec<f64>) = pairs.into_iter().unzip();
        prop_assert_eq!(
            assign_min_load(&seqs, &costs, channels),
            lpt_scan_reference(&seqs, &costs, channels)
        );
    }

    /// The same equivalence on realistic Algorithm 1 costs.
    #[test]
    fn min_load_matches_the_linear_scan_on_estimates(
        seqs in prop::collection::vec(1u64..4096, 0..300),
        channels in 1u32..65,
    ) {
        let e = estimator();
        let costs: Vec<f64> = seqs.iter().map(|&s| e.estimate(s)).collect();
        prop_assert_eq!(
            assign_min_load(&seqs, &costs, channels),
            lpt_scan_reference(&seqs, &costs, channels)
        );
    }

    /// The count-based split puts every request on the side the paper's
    /// per-list rule puts it, for per-channel lists induced by random homes
    /// in batch order, also when its buffer is reused from another batch.
    #[test]
    fn count_based_sides_match_the_list_partition(
        homes in prop::collection::vec(0u32..40, 0..200),
    ) {
        let homes: Vec<ChannelId> = homes.into_iter().map(ChannelId::new).collect();
        let mut per_channel = vec![Vec::new(); 40];
        for (i, home) in homes.iter().enumerate() {
            per_channel[home.index()].push(RequestId::new(i as u32));
        }
        let (ref1, ref2) = partition_reference(&per_channel);

        // A split reused from another, part-walked batch over more
        // channels splits like a fresh one once reset.
        let stale: Vec<ChannelId> = (0..41).rev().map(ChannelId::new).collect();
        let mut sides = SubBatchSides::new(&stale);
        sides.next_is_first(stale[0]);
        sides.reset(&homes);
        prop_assert_eq!(sides.channels(), SubBatchSides::new(&homes).channels());
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for (i, &home) in homes.iter().enumerate() {
            let side = if sides.next_is_first(home) { &mut first } else { &mut second };
            side.push((home, RequestId::new(i as u32)));
        }
        // Channel-major, batch order within a channel: the lists' order.
        for (side, expected) in [(first, &ref1), (second, &ref2)] {
            let mut side = side;
            side.sort_by_key(|&(home, id)| (home, id));
            let ids: Vec<RequestId> = side.into_iter().map(|(_, id)| id).collect();
            prop_assert_eq!(&ids, expected);
        }
    }

    /// Every request lands on exactly one channel, in range.
    #[test]
    fn assignment_is_total_and_in_range(
        seqs in prop::collection::vec(1u64..9000, 0..150),
        channels in 1u32..64,
    ) {
        let costs: Vec<f64> = seqs.iter().map(|&s| estimator().estimate(s)).collect();
        for assign in [assign_min_load(&seqs, &costs, channels), assign_round_robin(&seqs, channels)] {
            prop_assert_eq!(assign.len(), seqs.len());
            prop_assert!(assign.iter().all(|c| c.0 < channels));
        }
    }

    /// Algorithm 3: no request lost or duplicated; per-channel split sizes
    /// differ by at most one; global sizes differ by at most one.
    #[test]
    fn partition_invariants(
        sizes in prop::collection::vec(0usize..12, 1..40),
    ) {
        let mut next = 0u32;
        let mut chans = Vec::new();
        for len in &sizes {
            let ids: Vec<RequestId> = (next..next + *len as u32).map(RequestId::new).collect();
            next += *len as u32;
            chans.push(ids);
        }
        let sb = sides_partition(&chans);
        // Conservation.
        let mut all: Vec<u32> = sb.0.iter().chain(&sb.1).map(|r| r.0).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..next).collect::<Vec<_>>());
        // Global balance.
        prop_assert!(sb.0.len().abs_diff(sb.1.len()) <= 1);
        // Per-channel balance.
        let mut start = 0u32;
        for len in &sizes {
            let end = start + *len as u32;
            let in1 = sb.0.iter().filter(|r| r.0 >= start && r.0 < end).count();
            let in2 = *len - in1;
            prop_assert!(in1.abs_diff(in2) <= 1, "channel [{start},{end}): {in1}/{in2}");
            start = end;
        }
    }

    /// Algorithm 3 + Algorithm 1 together: partitioning loses no load —
    /// the two sub-batches' estimated MHA loads sum exactly to the whole
    /// batch's estimate (request-level conservation lifted through the
    /// estimator), and no request is lost or duplicated.
    #[test]
    fn partition_conserves_estimated_load(
        chans in prop::collection::vec(
            prop::collection::vec(1u64..8192, 0..10),
            1..24,
        ),
    ) {
        let e = estimator();
        // Assign globally unique ids per channel slot; remember each id's
        // sequence length.
        let mut next = 0u32;
        let mut seq_of = std::collections::HashMap::new();
        let per_channel: Vec<Vec<RequestId>> = chans
            .iter()
            .map(|seqs| {
                seqs.iter()
                    .map(|&s| {
                        let id = RequestId::new(next);
                        next += 1;
                        seq_of.insert(id, s);
                        id
                    })
                    .collect()
            })
            .collect();
        let sb = sides_partition(&per_channel);
        prop_assert_eq!((sb.0.len() + sb.1.len()) as u32, next, "no request lost or duplicated");
        let load = |ids: &[RequestId]| -> f64 {
            ids.iter().map(|id| e.estimate(seq_of[id])).sum()
        };
        let total: f64 = chans.iter().flatten().map(|&s| e.estimate(s)).sum();
        let split = load(&sb.0) + load(&sb.1);
        prop_assert!(
            (split - total).abs() <= total.abs() * 1e-12 + 1e-6,
            "load conservation: {split} vs {total}"
        );
    }

    /// With uniform sequence lengths, Algorithm 3's odd-channel
    /// alternation keeps the two sub-batch loads within one request's
    /// estimate of perfectly balanced — the "within estimator bound of
    /// balanced" guarantee the interleaver relies on.
    #[test]
    fn partition_is_balanced_within_one_estimate_for_uniform_seqs(
        sizes in prop::collection::vec(0usize..11, 1..32),
        seq in 1u64..8192,
    ) {
        let e = estimator();
        let mut next = 0u32;
        let per_channel: Vec<Vec<RequestId>> = sizes
            .iter()
            .map(|&len| {
                let ids = (next..next + len as u32).map(RequestId::new).collect();
                next += len as u32;
                ids
            })
            .collect();
        let sb = sides_partition(&per_channel);
        let one = e.estimate(seq);
        let (l1, l2) = (sb.0.len() as f64 * one, sb.1.len() as f64 * one);
        prop_assert!(
            (l1 - l2).abs() <= one + 1e-9,
            "|{l1} - {l2}| exceeds one request's estimate {one}"
        );
    }

    /// Algorithm 1's estimate is monotone in context length and strictly
    /// positive, and `estimate_sum` is permutation-invariant — the
    /// properties that make it a sound load signal for balancing.
    #[test]
    fn estimator_is_monotone_and_permutation_invariant(
        seqs in prop::collection::vec(0u64..16384, 1..64),
        a in 0u64..16384,
        b in 0u64..16384,
    ) {
        let e = estimator();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(e.estimate(lo) <= e.estimate(hi), "monotonicity at ({lo}, {hi})");
        prop_assert!(e.estimate(a) > 0.0, "GWRITE floor keeps estimates positive");
        let forward = e.estimate_sum(&seqs);
        let reversed: Vec<u64> = seqs.iter().rev().copied().collect();
        let backward = e.estimate_sum(&reversed);
        prop_assert!((forward - backward).abs() <= forward.abs() * 1e-12 + 1e-9);
    }

    /// The request pool conserves requests through arbitrary admit/complete
    /// interleavings and never exceeds its batch cap.
    #[test]
    fn pool_conserves_requests(
        requests in prop::collection::vec((1u32..64, 1u32..12), 1..60),
        max_batch in 1usize..16,
    ) {
        let mut pool = RequestPool::new(max_batch);
        let total = requests.len() as u64;
        let expected_tokens: u64 = requests.iter().map(|&(_, o)| o as u64).sum();
        for (i, (input, output)) in requests.into_iter().enumerate() {
            pool.submit(Request::new(RequestId::new(i as u32), input, output, 0));
        }
        let mut guard = 0;
        while pool.completed() < total {
            pool.admit(0, |_| Some(()));
            prop_assert!(pool.running().len() <= max_batch);
            if pool.running().is_empty() {
                break;
            }
            pool.complete_iteration_where(|_, _| true).for_each(drop);
            guard += 1;
            prop_assert!(guard < 10_000, "no forward progress");
        }
        prop_assert_eq!(pool.completed(), total);
        prop_assert_eq!(pool.tokens_generated(), expected_tokens);
        prop_assert_eq!(pool.waiting_len(), 0);
    }

    /// The O(1) outstanding-token counter equals the walk over the
    /// waiting queue and the running batch after every operation that
    /// moves tokens: submit, (filtered) advance, preempt, resume, and
    /// head drop.
    #[test]
    fn outstanding_tokens_match_the_walk(
        ops in prop::collection::vec((0u8..6, 1u32..9, any::<u8>()), 1..120),
        max_batch in 1usize..8,
    ) {
        let mut pool = RequestPool::new(max_batch);
        let mut parked: Vec<(Request, ())> = Vec::new();
        let mut next_id = 0u32;
        let walk = |pool: &RequestPool| -> u64 {
            pool.waiting()
                .chain(pool.running())
                .map(|r| r.remaining() as u64)
                .sum()
        };
        for (op, len, pick) in ops {
            match op {
                0 => {
                    pool.submit(Request::new(RequestId::new(next_id), 8, len, 0));
                    next_id += 1;
                }
                1 => {
                    pool.admit(0, |_| Some(()));
                }
                2 => {
                    let mut turn = pick;
                    let retired = pool.complete_iteration_where(|_, _| {
                        turn = turn.rotate_left(1);
                        turn & 1 == 1
                    });
                    prop_assert!(retired.into_iter().all(|(r, _)| r.is_finished()));
                }
                3 => {
                    let n = pool.running().len();
                    if n > 0 {
                        let id = pool.running()[pick as usize % n].id;
                        parked.push(pool.preempt_running(id).expect("running"));
                    }
                }
                4 => {
                    if let Some(pair) = parked.pop() {
                        if let Err(pair) = pool.resume(pair) {
                            parked.push(pair);
                        }
                    }
                }
                _ => {
                    pool.drop_head_waiting();
                }
            }
            prop_assert_eq!(pool.outstanding_tokens(), walk(&pool));
        }
    }
}
