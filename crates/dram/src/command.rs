//! DRAM command vocabulary shared by the channel model and the controller.

use neupims_types::{BankId, Cycle};

use crate::bank::Slot;

/// A raw DRAM command presented to a [`crate::DramChannel`].
///
/// Column commands (`Read`/`Write`) operate on the row currently open in the
/// addressed row-buffer slot; `col` indexes bus bursts within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Open `row` of `bank` into the given row-buffer slot.
    Activate {
        /// Target bank.
        bank: BankId,
        /// Row to open.
        row: u32,
        /// Which row buffer receives the row.
        slot: Slot,
    },
    /// Read one burst from the open row of `bank` (MEM slot only — PIM-side
    /// dot products never travel over the external data bus).
    Read {
        /// Target bank.
        bank: BankId,
        /// Burst index within the open page.
        col: u32,
    },
    /// Write one burst to the open row of `bank` (MEM slot only).
    Write {
        /// Target bank.
        bank: BankId,
        /// Burst index within the open page.
        col: u32,
    },
    /// Close the row held in the given slot of `bank`.
    ///
    /// With `slot == Slot::Pim` this is the paper's `PIM_PRECHARGE`.
    Precharge {
        /// Target bank.
        bank: BankId,
        /// Which row buffer to precharge.
        slot: Slot,
    },
    /// Close the given slot in every bank of the channel.
    PrechargeAll {
        /// Which row buffer to precharge in all banks.
        slot: Slot,
    },
    /// All-bank refresh. Requires every row buffer closed; occupies the
    /// channel for `tRFC` cycles.
    RefreshAll,
}

impl DramCommand {
    /// The bank this command addresses, if bank-scoped.
    pub fn bank(&self) -> Option<BankId> {
        match *self {
            DramCommand::Activate { bank, .. }
            | DramCommand::Read { bank, .. }
            | DramCommand::Write { bank, .. }
            | DramCommand::Precharge { bank, .. } => Some(bank),
            DramCommand::PrechargeAll { .. } | DramCommand::RefreshAll => None,
        }
    }
}

/// Result of successfully issuing a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueInfo {
    /// Cycle at which the command occupied the C/A bus.
    pub issued_at: Cycle,
    /// For column commands: the cycle at which the data burst completes.
    /// For `Activate`: the cycle at which the row is usable (tRCD elapsed).
    /// For precharge/refresh: the cycle at which the resource is idle again.
    pub done_at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_extraction() {
        let b = BankId::new(3);
        assert_eq!(
            DramCommand::Activate {
                bank: b,
                row: 1,
                slot: Slot::Mem
            }
            .bank(),
            Some(b)
        );
        assert_eq!(DramCommand::RefreshAll.bank(), None);
        assert_eq!(DramCommand::PrechargeAll { slot: Slot::Pim }.bank(), None);
    }
}
