//! Typed identifiers for hardware structures and inference requests.
//!
//! Newtypes keep channel indices, bank indices, device indices, and request
//! ids statically distinct (a `ChannelId` can never be passed where a
//! `BankId` is expected).

use std::fmt;

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
    fn ordering_follows_raw() {
        assert!(BankId::new(1) < BankId::new(2));
    }
}
