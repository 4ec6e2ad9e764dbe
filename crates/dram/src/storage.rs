//! Functional data mirror of a DRAM channel.
//!
//! Rows are lazily materialized slices of `f32`. The timing model is
//! data-oblivious; this mirror exists so PIM GEMV and NPU tile transfers can
//! be executed *functionally* through the same addresses the timing model
//! schedules, letting tests check computed values against reference math.
//!
//! Element width: the simulated machine operates on fp16 tensors, so timing
//! derives element counts from [`neupims_types::DataType::Fp16`]; the mirror
//! stores `f32` values (tests use tolerances where fp16 rounding matters).

use std::collections::HashMap;

use neupims_types::{BankId, SimError};

/// Functional storage of one channel: `(bank, row) -> row data`.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    rows: HashMap<(u32, u32), Box<[f32]>>,
    elems_per_row: usize,
}

impl Storage {
    /// Creates storage whose rows hold `elems_per_row` elements each.
    pub fn new(elems_per_row: usize) -> Self {
        Self {
            rows: HashMap::new(),
            elems_per_row,
        }
    }

    /// Elements per DRAM row.
    pub fn elems_per_row(&self) -> usize {
        self.elems_per_row
    }

    /// Writes `data` into `(bank, row)` starting at element `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] when the write would overflow the
    /// row.
    pub fn write(
        &mut self,
        bank: BankId,
        row: u32,
        offset: usize,
        data: &[f32],
    ) -> Result<(), SimError> {
        if offset + data.len() > self.elems_per_row {
            return Err(SimError::InvalidShape(format!(
                "write of {} elems at offset {offset} overflows row of {}",
                data.len(),
                self.elems_per_row
            )));
        }
        let row_data = self
            .rows
            .entry((bank.0, row))
            .or_insert_with(|| vec![0.0; self.elems_per_row].into_boxed_slice());
        row_data[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` elements from `(bank, row)` starting at element `offset`.
    ///
    /// Unmaterialized rows read as zeros (DRAM contents are undefined at
    /// power-up; zero is the convenient deterministic choice).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] when the read would overflow the
    /// row.
    pub fn read(
        &self,
        bank: BankId,
        row: u32,
        offset: usize,
        len: usize,
    ) -> Result<Vec<f32>, SimError> {
        if offset + len > self.elems_per_row {
            return Err(SimError::InvalidShape(format!(
                "read of {len} elems at offset {offset} overflows row of {}",
                self.elems_per_row
            )));
        }
        Ok(match self.rows.get(&(bank.0, row)) {
            Some(row_data) => row_data[offset..offset + len].to_vec(),
            None => vec![0.0; len],
        })
    }

    /// Borrow of a whole row, if materialized.
    pub fn row(&self, bank: BankId, row: u32) -> Option<&[f32]> {
        self.rows.get(&(bank.0, row)).map(|r| &**r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmaterialized_rows_read_zero() {
        let s = Storage::new(512);
        let v = s.read(BankId::new(0), 5, 10, 4).unwrap();
        assert_eq!(v, vec![0.0; 4]);
        assert_eq!(s.rows.len(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = Storage::new(512);
        s.write(BankId::new(2), 7, 100, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(
            s.read(BankId::new(2), 7, 99, 5).unwrap(),
            vec![0.0, 1.0, 2.0, 3.0, 0.0]
        );
        assert_eq!(s.rows.len(), 1);
    }

    #[test]
    fn overflow_is_rejected() {
        let mut s = Storage::new(8);
        assert!(s.write(BankId::new(0), 0, 6, &[0.0; 4]).is_err());
        assert!(s.read(BankId::new(0), 0, 8, 1).is_err());
        // Boundary cases are fine.
        s.write(BankId::new(0), 0, 4, &[0.0; 4]).unwrap();
        s.read(BankId::new(0), 0, 0, 8).unwrap();
    }

    #[test]
    fn rows_are_independent() {
        let mut s = Storage::new(4);
        s.write(BankId::new(0), 0, 0, &[1.0; 4]).unwrap();
        s.write(BankId::new(0), 1, 0, &[2.0; 4]).unwrap();
        s.write(BankId::new(1), 0, 0, &[3.0; 4]).unwrap();
        assert_eq!(s.read(BankId::new(0), 0, 0, 4).unwrap(), vec![1.0; 4]);
        assert_eq!(s.read(BankId::new(0), 1, 0, 4).unwrap(), vec![2.0; 4]);
        assert_eq!(s.read(BankId::new(1), 0, 0, 4).unwrap(), vec![3.0; 4]);
    }
}
