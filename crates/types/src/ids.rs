//! Typed identifiers for hardware structures and inference requests.
//!
//! Newtypes keep channel indices, bank indices, device indices, and request
//! ids statically distinct (a `ChannelId` can never be passed where a
//! `BankId` is expected).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::error::SimError;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index, convenient for array indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }
    };
}

id_newtype!(
    /// Index of an HBM (PIM) channel within one NeuPIMs device.
    ChannelId
);
id_newtype!(
    /// Index of a DRAM bank within one channel.
    BankId
);
id_newtype!(
    /// Index of a NeuPIMs device within a multi-device cluster.
    DeviceId
);
id_newtype!(
    /// Unique id of an LLM inference request handled by the serving system.
    RequestId
);

/// Hasher of the id newtypes: one multiply by the 64-bit golden ratio.
///
/// Ids are dense `u32`s that the simulator's own front-ends assign (a
/// request's position in a generated workload), never read from outside
/// input, so SipHash's resistance to crafted collisions buys nothing and
/// costs a dozen rounds per lookup. The product is a bijection on the low
/// bits (the multiplier is odd), so consecutive ids land in distinct
/// buckets, and its top bits, which the map's tag byte reads, mix every
/// id bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by an id newtype, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of request ids kept as runs: sorted, disjoint ranges of
/// consecutive ids, each stored as its first and last id.
///
/// Front-ends number requests from one counter, so the ids a run has seen
/// form one run and the set holds one entry however many requests it
/// saw: a duplicate-id check in O(1) memory, and an insert in O(1) when
/// each id extends the highest run. Ids in any other order cost
/// O(log runs) per insert; touching runs merge, so the entry count never
/// exceeds the number of gaps between the ids seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdRuns {
    /// First id of each run, mapped to its last id (inclusive).
    runs: BTreeMap<u32, u32>,
}

impl IdRuns {
    /// Whether `id` is in the set.
    pub fn contains(&self, id: RequestId) -> bool {
        self.runs
            .range(..=id.0)
            .next_back()
            .is_some_and(|(_, &last)| last >= id.0)
    }

    /// Adds `id`; returns whether it was new (`false` for a duplicate).
    pub fn insert(&mut self, id: RequestId) -> bool {
        if let Some(mut top) = self.runs.last_entry() {
            if top.get().checked_add(1) == Some(id.0) {
                *top.get_mut() = id.0;
                return true;
            }
        }
        if self.contains(id) {
            return false;
        }
        self.insert_run(id.0, id.0);
        true
    }

    /// Adds every id of `other`.
    pub fn extend(&mut self, other: &IdRuns) {
        for (&first, &last) in &other.runs {
            self.insert_run(first, last);
        }
    }

    /// Number of runs held.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Adds the ids `first..=last`, merging every run they overlap or
    /// touch into one.
    fn insert_run(&mut self, first: u32, last: u32) {
        let (mut lo, mut hi) = (first, last);
        if let Some((&f, &l)) = self.runs.range(..=first).next_back() {
            if l.saturating_add(1) >= first {
                lo = f;
                hi = hi.max(l);
            }
        }
        // Runs starting inside `lo..=hi + 1` overlap or touch the new one.
        while let Some((&f, &l)) = self.runs.range(lo..=hi.saturating_add(1)).next() {
            self.runs.remove(&f);
            hi = hi.max(l);
        }
        self.runs.insert(lo, hi);
    }
}

/// The raw id of the request at 0-based position `index` of a generated
/// workload. Front-ends number requests by position; an index past
/// `u32::MAX` is an error instead of silently wrapping onto an earlier
/// request's id.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when `index` exceeds `u32::MAX`.
pub fn request_id(index: usize) -> Result<u32, SimError> {
    u32::try_from(index).map_err(|_| {
        SimError::InvalidConfig(format!(
            "request index {index} exceeds the {} request ids a run can number",
            u64::from(u32::MAX) + 1
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_and_index() {
        let c = ChannelId::new(7);
        assert_eq!(c.index(), 7);
        assert_eq!(u32::from(c), 7);
        assert_eq!(ChannelId::from(7u32), c);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(ChannelId::new(3).to_string(), "ChannelId3");
        assert_eq!(BankId::new(0).to_string(), "BankId0");
        assert_eq!(RequestId::new(42).to_string(), "RequestId42");
        assert_eq!(DeviceId::new(1).to_string(), "DeviceId1");
    }

    #[test]
    fn request_ids_are_checked_at_the_u32_boundary() {
        assert_eq!(request_id(0), Ok(0));
        assert_eq!(request_id(u32::MAX as usize), Ok(u32::MAX));
        let err = request_id(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("4294967296"), "{err}");
        assert!(request_id(usize::MAX).is_err());
    }

    #[test]
    fn id_hasher_spreads_consecutive_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        // Consecutive ids must not collide in the low bits that pick a
        // bucket (here: a 1024-bucket table).
        let buckets: HashSet<u64> = (0..1024u32)
            .map(|i| build.hash_one(RequestId::new(i)) & 1023)
            .collect();
        assert_eq!(buckets.len(), 1024);
        let mut map: IdMap<RequestId, u32> = IdMap::default();
        for i in 0..100 {
            map.insert(RequestId::new(i), i * 2);
        }
        assert_eq!(map[&RequestId::new(42)], 84);
        assert!(map.remove(&RequestId::new(7)).is_some());
        assert!(!map.contains_key(&RequestId::new(7)));
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(BankId::new(1) < BankId::new(2));
    }
}
