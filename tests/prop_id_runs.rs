//! The id-run set holds exactly the ids a `HashSet` would, over id
//! sequences that arrive ascending, shuffled, with repeats, and against
//! the top of the `u32` range, and its runs stay maximal: one run per
//! group of consecutive ids, so ids from one counter take one entry.

use std::collections::HashSet;

use proptest::prelude::*;

use neupims_types::{IdRuns, RequestId};

/// The id sequence of `shape` drawn from `raw` and `keys`.
fn ids_of(shape: usize, raw: &[u32], keys: &[u64]) -> Vec<u32> {
    match shape {
        // Ascending, with gaps and repeats.
        0 => {
            let mut ids = raw.to_vec();
            ids.sort_unstable();
            ids
        }
        // A contiguous range in a shuffled order.
        1 => {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            order
                .into_iter()
                .map(|i| i as u32 + raw.first().copied().unwrap_or(0))
                .collect()
        }
        // Repeats in any order.
        2 => raw.iter().map(|&x| x % 16).collect(),
        // Against `u32::MAX`, where a run's end cannot grow.
        _ => raw.iter().map(|&x| u32::MAX - x % 24).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn id_runs_match_a_hash_set(
        shape in 0usize..4,
        raw in prop::collection::vec(0u32..400, 0..120),
        keys in prop::collection::vec(any::<u64>(), 0..120),
        split in 0usize..120,
    ) {
        let ids = ids_of(shape, &raw, &keys);
        let mut runs = IdRuns::default();
        let mut reference = HashSet::new();
        for &id in &ids {
            prop_assert_eq!(runs.insert(RequestId::new(id)), reference.insert(id), "insert {}", id);
        }
        for &id in &ids {
            for probe in [id.wrapping_sub(1), id, id.wrapping_add(1)] {
                prop_assert_eq!(runs.contains(RequestId::new(probe)), reference.contains(&probe));
            }
        }
        let mut sorted: Vec<u32> = reference.iter().copied().collect();
        sorted.sort_unstable();
        let groups = sorted.windows(2).filter(|w| w[1] != w[0] + 1).count()
            + usize::from(!sorted.is_empty());
        prop_assert_eq!(runs.runs(), groups);

        // A union of two halves holds the whole sequence, in as few runs.
        let (left, right) = ids.split_at(split.min(ids.len()));
        let mut joined = IdRuns::default();
        let mut other = IdRuns::default();
        left.iter().for_each(|&id| { joined.insert(RequestId::new(id)); });
        right.iter().for_each(|&id| { other.insert(RequestId::new(id)); });
        joined.extend(&other);
        prop_assert_eq!(joined, runs);
    }
}

#[test]
fn ids_from_one_counter_keep_one_run() {
    let mut runs = IdRuns::default();
    for id in 0..10_000 {
        assert!(runs.insert(RequestId::new(id)));
    }
    assert_eq!(runs.runs(), 1);
    assert!(!runs.insert(RequestId::new(0)));
    assert!(!runs.insert(RequestId::new(9_999)));
    assert!(!runs.contains(RequestId::new(10_000)));
}
