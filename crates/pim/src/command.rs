//! The PIM command vocabulary and its wire encoding.
//!
//! Section 5.2 of the paper builds the NeuPIMs interface from four baseline
//! Newton commands and three additions:
//!
//! | Command | Origin | Purpose |
//! |---|---|---|
//! | `PIM_GWRITE` | Newton | copy one bank row into the global vector buffer |
//! | `PIM_ACTIVATE` | Newton | grouped activation of PIM row buffers (≤ 4 banks, tFAW) |
//! | `PIM_DOTPRODUCT` | Newton | one parallel dot-product round across activated banks |
//! | `PIM_RDRESULT` | Newton | move accumulated results to the host |
//! | `PIM_HEADER` | NeuPIMs | announce GEMV dimensionality for refresh-safe scheduling |
//! | `PIM_GEMV` | NeuPIMs | composite command: `k` dot products + result readback |
//! | `PIM_PRECHARGE` | NeuPIMs | precharge the PIM row buffer |
//!
//! The encoding is a compact tag-length-value format used by the command
//! queue between the scheduler and the per-channel memory controllers.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use neupims_types::{BankId, SimError};

/// Dimensionality announcement carried by `PIM_HEADER` (Section 5.2).
///
/// The memory controller uses it to bound the GEMV's end-to-end latency and
/// schedule its constituent commands without colliding with DRAM refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemvHeader {
    /// Number of PIM tiles (grouped-activation rounds) in the GEMV.
    pub n_tiles: u32,
    /// Number of `PIM_GWRITE`s loading operand-vector pages.
    pub n_gwrites: u32,
    /// Result bursts to read back at the end.
    pub result_bursts: u32,
}

/// One command on the PIM side of the interface.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PimCommand {
    /// Copy `row` of `bank` into the channel's global vector buffer.
    Gwrite {
        /// Source bank.
        bank: BankId,
        /// Source row.
        row: u32,
    },
    /// Announce an upcoming GEMV's shape (NeuPIMs extension).
    Header(GemvHeader),
    /// Grouped activation: open `row` in the PIM row buffer of `banks`.
    Activate {
        /// Banks activated together (≤ 4 per power/tFAW constraints).
        banks: Vec<BankId>,
        /// Row opened in each bank.
        row: u32,
    },
    /// One dot-product round across currently-activated banks.
    DotProduct,
    /// Composite GEMV: `k` dot-product rounds plus result readback.
    Gemv {
        /// Number of dot-product rounds folded into this command.
        k: u32,
    },
    /// Read accumulated results back to the host.
    RdResult {
        /// Data-bus bursts of result data.
        bursts: u32,
    },
    /// Precharge the PIM row buffer of `bank` (NeuPIMs extension).
    Precharge {
        /// Target bank.
        bank: BankId,
    },
}

const TAG_GWRITE: u8 = 1;
const TAG_HEADER: u8 = 2;
const TAG_ACTIVATE: u8 = 3;
const TAG_DOTPRODUCT: u8 = 4;
const TAG_GEMV: u8 = 5;
const TAG_RDRESULT: u8 = 6;
const TAG_PRECHARGE: u8 = 7;

impl PimCommand {
    /// Serializes the command into the controller queue format.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        match self {
            PimCommand::Gwrite { bank, row } => {
                b.put_u8(TAG_GWRITE);
                b.put_u32(bank.0);
                b.put_u32(*row);
            }
            PimCommand::Header(h) => {
                b.put_u8(TAG_HEADER);
                b.put_u32(h.n_tiles);
                b.put_u32(h.n_gwrites);
                b.put_u32(h.result_bursts);
            }
            PimCommand::Activate { banks, row } => {
                b.put_u8(TAG_ACTIVATE);
                b.put_u8(banks.len() as u8);
                for bank in banks {
                    b.put_u32(bank.0);
                }
                b.put_u32(*row);
            }
            PimCommand::DotProduct => b.put_u8(TAG_DOTPRODUCT),
            PimCommand::Gemv { k } => {
                b.put_u8(TAG_GEMV);
                b.put_u32(*k);
            }
            PimCommand::RdResult { bursts } => {
                b.put_u8(TAG_RDRESULT);
                b.put_u32(*bursts);
            }
            PimCommand::Precharge { bank } => {
                b.put_u8(TAG_PRECHARGE);
                b.put_u32(bank.0);
            }
        }
        b.freeze()
    }

    /// Deserializes a command from the controller queue format.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidShape`] on truncated or unknown encodings.
    pub fn decode(mut buf: Bytes) -> Result<Self, SimError> {
        let short = || SimError::InvalidShape("truncated PIM command".into());
        if buf.remaining() < 1 {
            return Err(short());
        }
        let tag = buf.get_u8();
        let need = |buf: &Bytes, n: usize| {
            if buf.remaining() < n {
                Err(short())
            } else {
                Ok(())
            }
        };
        Ok(match tag {
            TAG_GWRITE => {
                need(&buf, 8)?;
                PimCommand::Gwrite {
                    bank: BankId::new(buf.get_u32()),
                    row: buf.get_u32(),
                }
            }
            TAG_HEADER => {
                need(&buf, 12)?;
                PimCommand::Header(GemvHeader {
                    n_tiles: buf.get_u32(),
                    n_gwrites: buf.get_u32(),
                    result_bursts: buf.get_u32(),
                })
            }
            TAG_ACTIVATE => {
                need(&buf, 1)?;
                let n = buf.get_u8() as usize;
                need(&buf, n * 4 + 4)?;
                let banks = (0..n).map(|_| BankId::new(buf.get_u32())).collect();
                PimCommand::Activate {
                    banks,
                    row: buf.get_u32(),
                }
            }
            TAG_DOTPRODUCT => PimCommand::DotProduct,
            TAG_GEMV => {
                need(&buf, 4)?;
                PimCommand::Gemv { k: buf.get_u32() }
            }
            TAG_RDRESULT => {
                need(&buf, 4)?;
                PimCommand::RdResult {
                    bursts: buf.get_u32(),
                }
            }
            TAG_PRECHARGE => {
                need(&buf, 4)?;
                PimCommand::Precharge {
                    bank: BankId::new(buf.get_u32()),
                }
            }
            other => {
                return Err(SimError::InvalidShape(format!(
                    "unknown PIM command tag {other}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cmd: PimCommand) {
        let decoded = PimCommand::decode(cmd.encode()).unwrap();
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn all_commands_roundtrip() {
        roundtrip(PimCommand::Gwrite {
            bank: BankId::new(5),
            row: 1234,
        });
        roundtrip(PimCommand::Header(GemvHeader {
            n_tiles: 99,
            n_gwrites: 3,
            result_bursts: 7,
        }));
        roundtrip(PimCommand::Activate {
            banks: vec![BankId::new(0), BankId::new(8), BankId::new(16)],
            row: 42,
        });
        roundtrip(PimCommand::DotProduct);
        roundtrip(PimCommand::Gemv { k: 32 });
        roundtrip(PimCommand::RdResult { bursts: 2 });
        roundtrip(PimCommand::Precharge {
            bank: BankId::new(31),
        });
    }

    #[test]
    fn truncated_encodings_fail() {
        let enc = PimCommand::Gwrite {
            bank: BankId::new(1),
            row: 2,
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(
                PimCommand::decode(enc.slice(..cut)).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn unknown_tag_fails() {
        let buf = Bytes::from_static(&[0xEE, 0, 0, 0, 0]);
        assert!(PimCommand::decode(buf).is_err());
    }
}
