//! The NeuPIMs simulator benchmark: three seeded workloads run through the
//! library's public API, end-to-end metrics labelled `host` (what the
//! simulator costs) or `sim` (what the modelled hardware would take), and
//! a per-layer trace recorded by pass-through decorators around the
//! public layer traits. See `README.md` in this directory for the metric
//! table and the layer-to-metric map.

pub mod metrics;
pub mod trace;
pub mod workload;
