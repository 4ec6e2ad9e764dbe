//! Cycle-level HBM/DRAM timing simulator with dual-row-buffer PIM banks.
//!
//! This crate is the workspace's substitute for DRAMsim3: a command-level
//! DRAM model that enforces the Table 2 timing parameters (`tRP`, `tRCD`,
//! `tRAS`, `tRRD_L`, `tWR`, `tCCD_S`, `tCCD_L`, `tREFI`, `tRFC`, `tFAW`) on
//! a per-channel collection of bank state machines. Two extensions carry the
//! NeuPIMs microarchitecture:
//!
//! * every bank can be configured with **dual row buffers** — a MEM slot for
//!   regular reads/writes and a PIM slot for in-bank GEMV — mirroring
//!   Figure 8(b) of the paper; the model rejects activating the *same* row
//!   in both slots ([`neupims_types::SimError::RowBufferConflict`]);
//! * a functional storage mirror lets tests execute real data through the
//!   timing model and compare against reference math.
//!
//! The crate exposes three layers:
//!
//! 1. [`channel::DramChannel`] — raw command issue with full timing checking
//!    (used by the PIM crate to drive GEMV command streams);
//! 2. [`controller::Controller`] — an FR-FCFS transaction scheduler with
//!    auto-refresh (used to model the NPU-side read/write streams);
//! 3. [`storage::Storage`] — the functional data mirror.
//!
//! # Example
//!
//! ```
//! use neupims_dram::{Controller, MemRequest};
//! use neupims_types::{BankId, HbmTiming, MemConfig};
//!
//! let mut ctrl = Controller::new(MemConfig::table2(), HbmTiming::table2(), true);
//! ctrl.enqueue(MemRequest::read(BankId::new(0), 3, 0, 4));
//! let done = ctrl.run_until_drained().expect("legal schedule");
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod command;
pub mod controller;
pub mod stats;
pub mod storage;
pub mod trace;

pub use bank::{BankState, RowSlot, Slot};
pub use channel::DramChannel;
pub use command::{DramCommand, IssueInfo};
pub use controller::{CompletedTx, Controller, MemRequest};
pub use stats::ChannelStats;
pub use storage::Storage;
pub use trace::{assert_protocol, verify_protocol, TraceEntry, TraceRecorder, Violation};
