//! Bank state machines with one or two row-buffer slots.
//!
//! A conventional bank has a single row buffer serving both regular memory
//! traffic and (in blocked-mode PIM) in-bank GEMV. The NeuPIMs bank of
//! Figure 8(b) adds an independent PIM row buffer so both uses proceed
//! concurrently. The model tracks, per slot, the open row and the earliest
//! legal cycles for follow-up commands.

use neupims_types::Cycle;

/// Selects one of the (up to) two row buffers of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Row buffer used by regular memory read/write accesses.
    Mem,
    /// Row buffer used by in-bank PIM GEMV (only in dual-row-buffer banks).
    Pim,
}

impl Slot {
    /// Index of the slot in per-bank arrays.
    pub const fn index(self) -> usize {
        match self {
            Slot::Mem => 0,
            Slot::Pim => 1,
        }
    }

    /// The other slot.
    pub const fn other(self) -> Slot {
        match self {
            Slot::Mem => Slot::Pim,
            Slot::Pim => Slot::Mem,
        }
    }
}

/// Timing state of one row-buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowSlot {
    /// Row currently latched in this buffer, if any.
    pub open_row: Option<u32>,
    /// Cycle at which the open row was activated.
    pub act_at: Cycle,
    /// Earliest cycle a column command may use this slot (tRCD).
    pub col_ready: Cycle,
    /// Earliest cycle this slot may be precharged (tRAS / tRTP / tWR).
    pub pre_ready: Cycle,
    /// Earliest cycle a new activate may open a row here (tRP after PRE).
    pub act_ready: Cycle,
}

impl RowSlot {
    /// True when no row is latched.
    fn is_closed(&self) -> bool {
        self.open_row.is_none()
    }
}

/// State of one DRAM bank (both row-buffer slots plus bank-wide constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    slots: [RowSlot; 2],
    /// Earliest cycle any ACT may target this bank (intra-bank ACT spacing).
    pub next_act_any: Cycle,
    dual: bool,
}

impl BankState {
    /// Creates a closed, idle bank. `dual` enables the PIM row buffer.
    pub fn new(dual: bool) -> Self {
        Self {
            slots: [RowSlot::default(); 2],
            next_act_any: 0,
            dual,
        }
    }

    /// Whether this bank has the PIM row buffer.
    pub fn is_dual(&self) -> bool {
        self.dual
    }

    /// In single-row-buffer banks every access shares the MEM slot; this
    /// resolves the physical slot backing a logical request.
    pub fn resolve(&self, slot: Slot) -> Slot {
        if self.dual {
            slot
        } else {
            Slot::Mem
        }
    }

    /// Read access to a slot's state (after [`Self::resolve`]).
    pub fn slot(&self, slot: Slot) -> &RowSlot {
        &self.slots[self.resolve(slot).index()]
    }

    /// Mutable access to a slot's state (after [`Self::resolve`]).
    pub fn slot_mut(&mut self, slot: Slot) -> &mut RowSlot {
        let s = self.resolve(slot);
        &mut self.slots[s.index()]
    }

    /// Row open in `slot`, if any.
    pub fn open_row(&self, slot: Slot) -> Option<u32> {
        self.slot(slot).open_row
    }

    /// True when both slots are closed (bank may be refreshed).
    pub fn fully_closed(&self) -> bool {
        self.slots.iter().all(RowSlot::is_closed)
    }

    /// True if `row` is currently owned by the *other* slot — the dual-row-
    /// buffer functional hazard the NeuPIMs controller must avoid.
    pub fn row_conflicts(&self, slot: Slot, row: u32) -> bool {
        if !self.dual {
            return false;
        }
        self.slot(slot.other()).open_row == Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_index_and_other() {
        assert_eq!(Slot::Mem.index(), 0);
        assert_eq!(Slot::Pim.index(), 1);
        assert_eq!(Slot::Mem.other(), Slot::Pim);
        assert_eq!(Slot::Pim.other(), Slot::Mem);
    }

    #[test]
    fn single_buffer_banks_alias_slots() {
        let mut b = BankState::new(false);
        b.slot_mut(Slot::Pim).open_row = Some(7);
        // In a single-row-buffer bank the PIM "slot" is the MEM buffer.
        assert_eq!(b.open_row(Slot::Mem), Some(7));
        assert!(!b.row_conflicts(Slot::Mem, 7));
    }

    #[test]
    fn dual_buffer_banks_are_independent() {
        let mut b = BankState::new(true);
        b.slot_mut(Slot::Mem).open_row = Some(3);
        assert_eq!(b.open_row(Slot::Pim), None);
        assert!(b.row_conflicts(Slot::Pim, 3));
        assert!(!b.row_conflicts(Slot::Pim, 4));
        assert!(!b.fully_closed());
        b.slot_mut(Slot::Mem).open_row = None;
        assert!(b.fully_closed());
    }
}
