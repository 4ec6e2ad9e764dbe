//! Shared vocabulary for the NeuPIMs simulator workspace.
//!
//! This crate defines the types every other crate speaks: cycle/byte units,
//! typed identifiers for hardware structures, the hardware configuration
//! presets from Table 2 of the paper, the LLM configurations from Table 3,
//! request/phase descriptions of batched LLM inference, and the common error
//! type.
//!
//! # Example
//!
//! ```
//! use neupims_types::{NeuPimsConfig, LlmConfig};
//!
//! let hw = NeuPimsConfig::table2();
//! let model = LlmConfig::gpt3_13b();
//! assert_eq!(hw.npu.systolic_arrays, 8);
//! assert_eq!(model.num_layers, 40);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod ids;
pub mod request;
pub mod units;

pub use config::{
    GpuSpec, HbmTiming, LlmConfig, MemConfig, NeuPimsConfig, NpuConfig, ParallelismConfig,
};
pub use error::SimError;
pub use ids::{request_id, BankId, ChannelId, DeviceId, IdHasher, IdMap, IdRuns, RequestId};
pub use request::{Phase, Request, RequestState};
pub use units::{Bytes, Cycle, DataType, Divisor, FREQ_GHZ};
