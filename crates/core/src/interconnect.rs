//! Priced inter-chip interconnects for multi-chip sharding.
//!
//! The single-chip device model already pays for tensor-parallel ring
//! all-reduces over the board-level [`InterconnectConfig`] link; this
//! module lifts that pricing behind a trait so the sharding layer
//! ([`crate::sharding::ShardedBackend`]) can deploy one model across chips
//! connected by *different* fabrics:
//!
//! * [`PcieLink`] — the paper's PCIe/CXL-class point-to-point link. Its
//!   ring all-reduce is the one formula the devices and the GPU roofline
//!   price their tensor-parallel all-reduces with, and it keeps the
//!   [`SwapConfig`](crate::preempt::SwapConfig) convention that one GB/s
//!   moves one byte per 1 GHz cycle.
//! * [`UnifiedMemoryLink`] — an IANUS-style unified NPU-PIM memory
//!   system: chips exchange activations through a shared memory pool, so
//!   collectives cost port traffic (every chip writes its partial and
//!   reads the reduced result) instead of ring steps.
//! * [`NocLink`] — a LEAP-style scalable PIM network-on-chip: a 2D mesh
//!   of narrower links, where hop count grows with `ceil(sqrt(chips))`.
//! * [`IdealLink`] — zero latency, infinite bandwidth. The limit in which
//!   sharded pricing must reproduce the retired divide-and-ceil
//!   multi-device model bit-for-bit (its values are frozen in
//!   `tests/parity_sharding.rs`).
//!
//! Every implementation is a pure, deterministic cost model: collective
//! cost is monotone non-decreasing in both message size and chip count
//! (property-tested in `tests/prop_sharding.rs`).

use neupims_types::{config::InterconnectConfig, Cycle, SimError};

/// Number of tensor-parallel all-reduces per decoder layer (one after
/// attention, one after the FFN — the two `OpKind::AllReduce` ops the
/// block compiler emits).
pub const ALLREDUCES_PER_LAYER: u64 = 2;

/// A priced chip-to-chip fabric: point-to-point transfers plus the two
/// collectives tensor-parallel inference needs.
///
/// Implementations must be deterministic and monotone: more bytes or more
/// chips never cost fewer cycles.
pub trait Interconnect: std::fmt::Debug + Send + Sync {
    /// Short fabric name (e.g. `"pcie"`).
    fn name(&self) -> &'static str;

    /// Cycles to move `bytes` between two adjacent chips (the pipeline
    /// stage-to-stage activation hop).
    fn point_to_point_cycles(&self, bytes: u64) -> Cycle;

    /// Cycles for an all-reduce of `bytes` (per chip) across `chips`.
    fn all_reduce_cycles(&self, bytes: u64, chips: u32) -> Cycle;

    /// Cycles for an all-gather leaving every chip with `bytes` total
    /// (each chip contributes `bytes / chips`).
    fn all_gather_cycles(&self, bytes: u64, chips: u32) -> Cycle;

    /// Clones the fabric behind the trait object.
    fn clone_box(&self) -> Box<dyn Interconnect>;
}

impl Clone for Box<dyn Interconnect> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Zero-latency, infinite-bandwidth fabric: every transfer is free.
///
/// This is the limit in which [`crate::sharding::ShardedBackend`] must
/// reproduce the frozen numbers of the retired divide-and-ceil
/// multi-device model exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealLink;

impl Interconnect for IdealLink {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn point_to_point_cycles(&self, _bytes: u64) -> Cycle {
        0
    }

    fn all_reduce_cycles(&self, _bytes: u64, _chips: u32) -> Cycle {
        0
    }

    fn all_gather_cycles(&self, _bytes: u64, _chips: u32) -> Cycle {
        0
    }

    fn clone_box(&self) -> Box<dyn Interconnect> {
        Box::new(*self)
    }
}

/// PCIe/CXL-class point-to-point links in a ring.
///
/// Point-to-point pricing is the Figure 14 stage-hop formula
/// (`bytes / bandwidth + latency`), and the ring all-reduce is the one
/// the device prices its own all-reduces with, so wrapping a device
/// behind `PcieLink::from_config(device.interconnect())` re-prices
/// collectives bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct PcieLink {
    /// Link bandwidth in bytes per cycle (1 GB/s == 1 B/cycle at 1 GHz).
    pub bytes_per_cycle: u64,
    /// One-way link latency in cycles.
    pub latency: u64,
}

impl PcieLink {
    /// Wraps a board-level link config.
    pub fn from_config(ic: InterconnectConfig) -> Self {
        Self {
            bytes_per_cycle: ic.link_bytes_per_cycle,
            latency: ic.link_latency,
        }
    }

    /// A link of `gbps` GB/s at the default PCIe/CXL latency — the same
    /// GB/s-to-bytes-per-cycle convention as `SwapConfig`.
    pub fn from_gbps(gbps: f64) -> Self {
        Self {
            bytes_per_cycle: (gbps.round() as u64).max(1),
            latency: InterconnectConfig::pcie_cxl().link_latency,
        }
    }
}

impl Default for PcieLink {
    fn default() -> Self {
        Self::from_config(InterconnectConfig::pcie_cxl())
    }
}

impl Interconnect for PcieLink {
    fn name(&self) -> &'static str {
        "pcie"
    }

    fn point_to_point_cycles(&self, bytes: u64) -> Cycle {
        bytes / self.bytes_per_cycle.max(1) + self.latency
    }

    fn all_reduce_cycles(&self, bytes: u64, chips: u32) -> Cycle {
        if chips <= 1 || bytes == 0 {
            return 0;
        }
        let steps = 2 * (chips as u64 - 1);
        let per_dev = bytes * (chips as u64 - 1) * 2 / chips as u64;
        per_dev / self.bytes_per_cycle.max(1) + steps * self.latency
    }

    fn all_gather_cycles(&self, bytes: u64, chips: u32) -> Cycle {
        if chips <= 1 || bytes == 0 {
            return 0;
        }
        let steps = chips as u64 - 1;
        let per_dev = bytes * (chips as u64 - 1) / chips as u64;
        per_dev / self.bytes_per_cycle.max(1) + steps * self.latency
    }

    fn clone_box(&self) -> Box<dyn Interconnect> {
        Box::new(*self)
    }
}

/// IANUS-style unified memory: chips share one memory pool, so a
/// collective is port traffic through the shared fabric (each chip writes
/// its partial sum, then reads the reduced result) rather than ring steps.
///
/// High aggregate bandwidth, low latency, but the shared port serializes
/// all chips' traffic — cost grows linearly with the chip count.
#[derive(Debug, Clone, Copy)]
pub struct UnifiedMemoryLink {
    /// Shared-pool port bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Pool access latency in cycles.
    pub latency: u64,
}

impl UnifiedMemoryLink {
    /// The default unified-memory fabric: an 8-channel HBM-class pool
    /// port (1 TB/s) at DRAM-access latency.
    fn table_default() -> Self {
        Self {
            bytes_per_cycle: 1024,
            latency: 50,
        }
    }

    /// Overrides the pool port bandwidth in GB/s.
    fn with_gbps(mut self, gbps: f64) -> Self {
        self.bytes_per_cycle = (gbps.round() as u64).max(1);
        self
    }
}

impl Default for UnifiedMemoryLink {
    fn default() -> Self {
        Self::table_default()
    }
}

impl Interconnect for UnifiedMemoryLink {
    fn name(&self) -> &'static str {
        "unified"
    }

    fn point_to_point_cycles(&self, bytes: u64) -> Cycle {
        // A hop is one write into the pool plus one read out of it.
        2 * bytes / self.bytes_per_cycle.max(1) + self.latency
    }

    fn all_reduce_cycles(&self, bytes: u64, chips: u32) -> Cycle {
        if chips <= 1 || bytes == 0 {
            return 0;
        }
        // Every chip writes `bytes` of partials and reads `bytes` of the
        // reduced result through the one shared port.
        2 * bytes * chips as u64 / self.bytes_per_cycle.max(1) + 2 * self.latency
    }

    fn all_gather_cycles(&self, bytes: u64, chips: u32) -> Cycle {
        if chips <= 1 || bytes == 0 {
            return 0;
        }
        // Shards land once (bytes total written); every chip reads the
        // concatenation back, so reads dominate: ~bytes per chip.
        bytes * chips as u64 / self.bytes_per_cycle.max(1) + 2 * self.latency
    }

    fn clone_box(&self) -> Box<dyn Interconnect> {
        Box::new(*self)
    }
}

/// LEAP-style scalable PIM network-on-chip: a 2D mesh of narrow links.
///
/// Per-link bandwidth is far below a PCIe trunk, but latency is a few
/// hops, not a board crossing; route length grows with the mesh diameter
/// `ceil(sqrt(chips))`.
#[derive(Debug, Clone, Copy)]
pub struct NocLink {
    /// Per-link bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Per-hop latency in cycles.
    pub hop_latency: u64,
}

impl NocLink {
    /// The default mesh: 64 B/cycle links at 20-cycle hops.
    fn table_default() -> Self {
        Self {
            bytes_per_cycle: 64,
            hop_latency: 20,
        }
    }

    /// Overrides the per-link bandwidth in GB/s.
    fn with_gbps(mut self, gbps: f64) -> Self {
        self.bytes_per_cycle = (gbps.round() as u64).max(1);
        self
    }

    /// Mesh diameter class: hops per routed step on a
    /// `ceil(sqrt(n)) x ceil(sqrt(n))` grid.
    fn mesh_hops(chips: u32) -> u64 {
        (1u64..).find(|h| h * h >= chips as u64).unwrap_or(1)
    }
}

impl Default for NocLink {
    fn default() -> Self {
        Self::table_default()
    }
}

impl Interconnect for NocLink {
    fn name(&self) -> &'static str {
        "noc"
    }

    fn point_to_point_cycles(&self, bytes: u64) -> Cycle {
        // Pipeline stages sit on adjacent mesh nodes: one hop.
        bytes / self.bytes_per_cycle.max(1) + self.hop_latency
    }

    fn all_reduce_cycles(&self, bytes: u64, chips: u32) -> Cycle {
        if chips <= 1 || bytes == 0 {
            return 0;
        }
        // Ring embedded in the mesh: same volume as the PCIe ring, but
        // each of the 2(n-1) steps is a multi-hop route.
        let steps = 2 * (chips as u64 - 1);
        let per_dev = bytes * (chips as u64 - 1) * 2 / chips as u64;
        per_dev / self.bytes_per_cycle.max(1) + steps * self.hop_latency * Self::mesh_hops(chips)
    }

    fn all_gather_cycles(&self, bytes: u64, chips: u32) -> Cycle {
        if chips <= 1 || bytes == 0 {
            return 0;
        }
        let steps = chips as u64 - 1;
        let per_dev = bytes * (chips as u64 - 1) / chips as u64;
        per_dev / self.bytes_per_cycle.max(1) + steps * self.hop_latency * Self::mesh_hops(chips)
    }

    fn clone_box(&self) -> Box<dyn Interconnect> {
        Box::new(*self)
    }
}

/// Canonical fabric names accepted by [`interconnect_from_name`] (and the
/// CLI's `--interconnect` flag).
pub const INTERCONNECT_NAMES: [&str; 4] = ["pcie", "unified", "noc", "ideal"];

/// Builds a boxed fabric from its CLI name, optionally overriding the
/// link bandwidth in GB/s (ignored by `ideal`).
///
/// Accepted names (case-insensitive): `pcie`/`pcie-cxl`, `unified`/
/// `ianus`, `noc`/`mesh`/`leap`, and `ideal`/`infinite`.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for unrecognized names or
/// non-positive bandwidth overrides.
pub fn interconnect_from_name(
    name: &str,
    link_gbps: Option<f64>,
) -> Result<Box<dyn Interconnect>, SimError> {
    if let Some(g) = link_gbps {
        if g <= 0.0 || g.is_nan() {
            return Err(SimError::InvalidConfig(format!(
                "link bandwidth must be positive, got {g}"
            )));
        }
    }
    Ok(match name.to_ascii_lowercase().as_str() {
        "pcie" | "pcie-cxl" => Box::new(match link_gbps {
            Some(g) => PcieLink::from_gbps(g),
            None => PcieLink::default(),
        }),
        "unified" | "ianus" => Box::new(match link_gbps {
            Some(g) => UnifiedMemoryLink::table_default().with_gbps(g),
            None => UnifiedMemoryLink::table_default(),
        }),
        "noc" | "mesh" | "leap" => Box::new(match link_gbps {
            Some(g) => NocLink::table_default().with_gbps(g),
            None => NocLink::table_default(),
        }),
        "ideal" | "infinite" => Box::new(IdealLink),
        other => {
            return Err(SimError::InvalidConfig(format!(
                "unknown interconnect {other:?} (expected one of: {})",
                INTERCONNECT_NAMES.join(", ")
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_fabrics() -> Vec<Box<dyn Interconnect>> {
        INTERCONNECT_NAMES
            .iter()
            .map(|n| interconnect_from_name(n, None).unwrap())
            .collect()
    }

    #[test]
    fn registry_builds_every_name_and_aliases() {
        for name in INTERCONNECT_NAMES {
            assert_eq!(interconnect_from_name(name, None).unwrap().name(), name);
        }
        assert_eq!(
            interconnect_from_name("IANUS", None).unwrap().name(),
            "unified"
        );
        assert_eq!(interconnect_from_name("leap", None).unwrap().name(), "noc");
        assert_eq!(
            interconnect_from_name("infinite", None).unwrap().name(),
            "ideal"
        );
        assert!(interconnect_from_name("carrier-pigeon", None).is_err());
        assert!(interconnect_from_name("pcie", Some(0.0)).is_err());
    }

    #[test]
    fn ideal_is_free() {
        let l = IdealLink;
        assert_eq!(l.point_to_point_cycles(1 << 30), 0);
        assert_eq!(l.all_reduce_cycles(1 << 30, 64), 0);
        assert_eq!(l.all_gather_cycles(1 << 30, 64), 0);
    }

    #[test]
    fn pcie_matches_legacy_formulas() {
        // Point-to-point is the Figure 14 stage hop; all-reduce is the
        // device-internal ring formula, verbatim.
        let ic = InterconnectConfig::pcie_cxl();
        let l = PcieLink::from_config(ic);
        let bytes = 1_234_567u64;
        assert_eq!(
            l.point_to_point_cycles(bytes),
            bytes / ic.link_bytes_per_cycle.max(1) + ic.link_latency
        );
        for chips in [2u32, 4, 8] {
            let steps = 2 * (chips as u64 - 1);
            let per_dev = bytes * (chips as u64 - 1) * 2 / chips as u64;
            assert_eq!(
                l.all_reduce_cycles(bytes, chips),
                per_dev / ic.link_bytes_per_cycle.max(1) + steps * ic.link_latency
            );
        }
        assert_eq!(l.all_reduce_cycles(bytes, 1), 0);
        assert_eq!(l.all_reduce_cycles(0, 8), 0);
    }

    #[test]
    fn gbps_convention_matches_swap_config() {
        // 1 GB/s == 1 B/cycle at the 1 GHz clock, like SwapConfig.
        let l = PcieLink::from_gbps(32.0);
        assert_eq!(l.bytes_per_cycle, 32);
        assert_eq!(PcieLink::from_gbps(0.2).bytes_per_cycle, 1);
    }

    #[test]
    fn collectives_cost_something_on_real_fabrics() {
        for l in all_fabrics() {
            if l.name() == "ideal" {
                continue;
            }
            assert!(l.all_reduce_cycles(1 << 20, 4) > 0, "{}", l.name());
            assert!(l.all_gather_cycles(1 << 20, 4) > 0, "{}", l.name());
            assert!(l.point_to_point_cycles(1 << 20) > 0, "{}", l.name());
        }
    }

    #[test]
    fn mesh_hops_grow_with_chip_count() {
        assert_eq!(NocLink::mesh_hops(1), 1);
        assert_eq!(NocLink::mesh_hops(4), 2);
        assert_eq!(NocLink::mesh_hops(5), 3);
        assert_eq!(NocLink::mesh_hops(16), 4);
        let l = NocLink::table_default();
        assert!(l.all_reduce_cycles(4096, 16) > l.all_reduce_cycles(4096, 4));
    }

    #[test]
    fn boxed_fabrics_clone() {
        for l in all_fabrics() {
            let c = l.clone();
            assert_eq!(c.name(), l.name());
            assert_eq!(c.all_reduce_cycles(4096, 8), l.all_reduce_cycles(4096, 8));
        }
    }
}
