//! Preemption-aware KV-cache memory management: victim selection and
//! restore pricing for serving under memory pressure.
//!
//! NeuPIMs adopts vLLM's paged KV allocation (Section 2.2) because decode
//! batches outgrow memory; what actually lets the batch *stay* large under
//! heavy traffic is vLLM's other half — requests blocked on pages are
//! **preempted** (their KV pages evicted) and later **restored**, either
//! by re-running prefill over the context they had grown to (*recompute*)
//! or by swapping the saved pages back over the host link (*swap*). This
//! module makes that a pluggable serving-layer decision:
//!
//! * [`DropOnly`] — never preempts. Admission out-of-memory defers the
//!   request exactly as before, and a request whose context cannot grow
//!   sheds (it is dropped and counted). This is the default and the
//!   parity baseline.
//! * [`RecomputeLastAdmitted`] — vLLM's default: victims are selected
//!   newest-admitted-first (LIFO, so the oldest requests keep their
//!   progress), pages are simply freed, and a restored victim re-pays
//!   prefill over its full grown context through the serving scheduler's
//!   normal admission charge.
//! * [`SwapLru`] — victims are selected least-recently-decoded-first and
//!   their pages are saved to host memory; restoration pays a PCIe-style
//!   transfer delay priced by [`SwapConfig`] instead of recompute.
//!
//! The serving loop ([`ServingSim`](crate::serving::ServingSim)) consults
//! the policy whenever admission or per-token KV growth hits
//! out-of-memory, parks the victims in a preempted queue, and restores
//! them FIFO as pages free up; see the serving module for the lifecycle
//! and [`ServingOutcome`](crate::serving::ServingOutcome) for the
//! preemption counters it reports.
//!
//! # Example
//!
//! ```
//! use neupims_core::preempt::{
//!     preemption_from_name, PreemptionPolicy, RecomputeLastAdmitted, RestoreMode,
//!     VictimCandidate,
//! };
//! use neupims_types::RequestId;
//!
//! // Three running requests on the out-of-memory channel, in admission
//! // order; 7 pages must be freed.
//! let candidates = vec![
//!     VictimCandidate { id: RequestId::new(0), pages: 4, seq_len: 96, admitted_seq: 0, last_decoded: 30 },
//!     VictimCandidate { id: RequestId::new(1), pages: 4, seq_len: 80, admitted_seq: 1, last_decoded: 10 },
//!     VictimCandidate { id: RequestId::new(2), pages: 4, seq_len: 64, admitted_seq: 2, last_decoded: 20 },
//! ];
//! let policy = RecomputeLastAdmitted;
//! assert_eq!(policy.restore_mode(), Some(RestoreMode::Recompute));
//! // LIFO: the newest admissions (2, then 1) cover the 7 pages.
//! let victims = policy.select_victims(&candidates, 7);
//! assert_eq!(victims, vec![RequestId::new(2), RequestId::new(1)]);
//! // Asking for more than every candidate holds selects nobody (the
//! // serving loop then parks the grower itself instead of thrashing).
//! assert!(policy.select_victims(&candidates, 13).is_empty());
//! // The CLI name registry builds the same policies.
//! assert_eq!(preemption_from_name("recompute").unwrap().name(), "recompute");
//! ```

use neupims_types::{Cycle, RequestId};

use crate::backend::BackendError;

/// How a preempted victim's KV state is rebuilt at restore time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMode {
    /// Re-run prefill over the victim's full grown context (prompt plus
    /// every token generated before preemption) through the serving
    /// scheduler's normal admission charge. Costs compute, no link
    /// traffic.
    Recompute,
    /// Transfer the saved pages back from host memory over a PCIe-style
    /// link priced by [`SwapConfig`]. Costs link time proportional to the
    /// evicted bytes, no recompute.
    Swap,
}

/// PCIe-style swap link parameters for [`RestoreMode::Swap`].
///
/// The device clock is 1 GHz ([`neupims_types::units::FREQ_GHZ`]), so one
/// cycle is one nanosecond and a `gb_per_sec` link moves exactly
/// `gb_per_sec` bytes per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapConfig {
    /// Swap link bandwidth in gigabytes per second (the CLI's
    /// `--swap-gbps`). Default 32 GB/s — a PCIe 4.0 x16-class link.
    pub gb_per_sec: f64,
}

impl Default for SwapConfig {
    fn default() -> Self {
        Self { gb_per_sec: 32.0 }
    }
}

impl SwapConfig {
    /// Cycles to move `bytes` over the link (one direction), rounded up.
    ///
    /// ```
    /// use neupims_core::preempt::SwapConfig;
    /// // 32 GB/s at 1 GHz = 32 bytes per cycle.
    /// assert_eq!(SwapConfig::default().transfer_cycles(64), 2);
    /// assert_eq!(SwapConfig { gb_per_sec: 1.0 }.transfer_cycles(1 << 20), 1 << 20);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive (a zero-bandwidth link
    /// would park every swap victim forever).
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        assert!(
            self.gb_per_sec > 0.0,
            "swap bandwidth must be positive, got {}",
            self.gb_per_sec
        );
        (bytes as f64 / self.gb_per_sec).ceil() as Cycle
    }
}

/// One running request a [`PreemptionPolicy`] may evict, as seen at the
/// out-of-memory instant. All candidates live on the channel that ran out
/// of pages (evicting elsewhere frees nothing useful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimCandidate {
    /// The request.
    pub id: RequestId,
    /// Pages it holds on the out-of-memory channel.
    pub pages: u64,
    /// Its current context length in tokens (what recompute would re-pay).
    pub seq_len: u64,
    /// Monotone admission sequence number (later admissions have larger
    /// values — the LIFO axis).
    pub admitted_seq: u64,
    /// Cycle of the last decode iteration the request participated in
    /// (the LRU axis).
    pub last_decoded: Cycle,
}

/// A serving-layer preemption policy: which victims to evict when the KV
/// cache runs out of pages, and how evicted state is rebuilt.
///
/// Implementations must be deterministic (identical candidates produce
/// identical victims) — the parity and regression tests rely on it — and
/// `Send`, so replicas carrying them can advance on fleet worker threads.
pub trait PreemptionPolicy: std::fmt::Debug + Send {
    /// Policy name as accepted by [`preemption_from_name`] and printed by
    /// the CLI.
    fn name(&self) -> &'static str;

    /// Clones the policy behind a box (lets fleets replicate one
    /// configured policy across serving sims).
    fn clone_box(&self) -> Box<dyn PreemptionPolicy>;

    /// How this policy's victims are restored; `None` means the policy
    /// never preempts (out-of-memory falls back to defer-or-shed, the
    /// historical behavior).
    fn restore_mode(&self) -> Option<RestoreMode>;

    /// Selects victims from `candidates` (all on the out-of-memory
    /// channel, in admission order) whose pages sum to at least
    /// `needed_pages`. Returning an **empty** vector means "do not
    /// preempt" — either the policy never does, or no selection can cover
    /// the need (the serving loop then parks or sheds the requester
    /// itself rather than evicting uselessly).
    fn select_victims(&self, candidates: &[VictimCandidate], needed_pages: u64) -> Vec<RequestId>;
}

impl Clone for Box<dyn PreemptionPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Greedily takes candidates in the order produced by `rank` (smallest
/// key first) until `needed_pages` is covered; returns nobody when even
/// taking everyone would not cover it.
fn take_until_covered<K: Ord>(
    candidates: &[VictimCandidate],
    needed_pages: u64,
    rank: impl Fn(&VictimCandidate) -> K,
) -> Vec<RequestId> {
    if candidates.iter().map(|c| c.pages).sum::<u64>() < needed_pages {
        return Vec::new();
    }
    let mut order: Vec<&VictimCandidate> = candidates.iter().collect();
    order.sort_by_key(|c| rank(c));
    let mut victims = Vec::new();
    let mut freed = 0;
    for c in order {
        if freed >= needed_pages {
            break;
        }
        victims.push(c.id);
        freed += c.pages;
    }
    victims
}

/// The no-preemption baseline: admission out-of-memory defers the request
/// (head-of-line, exactly the historical serving behavior) and a request
/// whose context cannot grow is shed. Drop-only serving output is pinned
/// bit-for-bit against the pre-preemption golden numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropOnly;

impl PreemptionPolicy for DropOnly {
    fn name(&self) -> &'static str {
        "drop"
    }

    fn clone_box(&self) -> Box<dyn PreemptionPolicy> {
        Box::new(*self)
    }

    fn restore_mode(&self) -> Option<RestoreMode> {
        None
    }

    fn select_victims(&self, _candidates: &[VictimCandidate], _needed: u64) -> Vec<RequestId> {
        Vec::new()
    }
}

/// vLLM's default recompute preemption: evict the newest admissions first
/// (LIFO — the oldest requests, which have the most sunk progress, keep
/// their pages) and rebuild a victim's KV by re-running prefill over its
/// grown context at restore time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecomputeLastAdmitted;

impl PreemptionPolicy for RecomputeLastAdmitted {
    fn name(&self) -> &'static str {
        "recompute"
    }

    fn clone_box(&self) -> Box<dyn PreemptionPolicy> {
        Box::new(*self)
    }

    fn restore_mode(&self) -> Option<RestoreMode> {
        Some(RestoreMode::Recompute)
    }

    fn select_victims(&self, candidates: &[VictimCandidate], needed: u64) -> Vec<RequestId> {
        // Newest admission first: largest admitted_seq, ties by id for
        // determinism.
        take_until_covered(candidates, needed, |c| {
            (std::cmp::Reverse(c.admitted_seq), c.id.0)
        })
    }
}

/// Swap preemption with least-recently-used victims: evict the requests
/// that decoded longest ago (their KV is coldest) and restore by paying a
/// [`SwapConfig`]-priced transfer of the saved pages instead of
/// recompute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapLru;

impl PreemptionPolicy for SwapLru {
    fn name(&self) -> &'static str {
        "swap"
    }

    fn clone_box(&self) -> Box<dyn PreemptionPolicy> {
        Box::new(*self)
    }

    fn restore_mode(&self) -> Option<RestoreMode> {
        Some(RestoreMode::Swap)
    }

    fn select_victims(&self, candidates: &[VictimCandidate], needed: u64) -> Vec<RequestId> {
        // Coldest first: smallest last_decoded, ties by admission order.
        take_until_covered(candidates, needed, |c| (c.last_decoded, c.admitted_seq))
    }
}

/// Canonical preemption policy names accepted by [`preemption_from_name`]
/// (and the CLI's `--preemption` flag).
pub const PREEMPTION_NAMES: [&str; 3] = ["drop", "recompute", "swap"];

/// Builds a boxed preemption policy from its CLI name (case-insensitive;
/// `drop-only`, `none`, `recompute-last-admitted`, and `swap-lru` are
/// accepted aliases).
///
/// # Errors
///
/// Returns [`BackendError::InvalidSimulation`] for unrecognized names.
pub fn preemption_from_name(name: &str) -> Result<Box<dyn PreemptionPolicy>, BackendError> {
    match name.to_ascii_lowercase().as_str() {
        "drop" | "drop-only" | "none" => Ok(Box::new(DropOnly)),
        "recompute" | "recompute-last-admitted" => Ok(Box::new(RecomputeLastAdmitted)),
        "swap" | "swap-lru" => Ok(Box::new(SwapLru)),
        other => Err(BackendError::InvalidSimulation(format!(
            "unknown preemption policy {other:?} (expected one of: {})",
            PREEMPTION_NAMES.join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u32, pages: u64, admitted_seq: u64, last_decoded: Cycle) -> VictimCandidate {
        VictimCandidate {
            id: RequestId::new(id),
            pages,
            seq_len: pages * 4,
            admitted_seq,
            last_decoded,
        }
    }

    #[test]
    fn registry_builds_every_published_name() {
        for name in PREEMPTION_NAMES {
            assert_eq!(preemption_from_name(name).unwrap().name(), name);
        }
        assert_eq!(preemption_from_name("Drop-Only").unwrap().name(), "drop");
        assert_eq!(preemption_from_name("SWAP-LRU").unwrap().name(), "swap");
        assert!(preemption_from_name("magic").is_err());
    }

    #[test]
    fn drop_only_never_selects() {
        let cands = vec![cand(0, 10, 0, 0), cand(1, 10, 1, 0)];
        assert!(DropOnly.select_victims(&cands, 1).is_empty());
        assert_eq!(DropOnly.restore_mode(), None);
    }

    #[test]
    fn recompute_takes_newest_admissions_first() {
        let cands = vec![cand(5, 4, 10, 0), cand(6, 4, 30, 0), cand(7, 4, 20, 0)];
        let v = RecomputeLastAdmitted.select_victims(&cands, 1);
        assert_eq!(v, vec![RequestId::new(6)], "newest admission evicts first");
        let v = RecomputeLastAdmitted.select_victims(&cands, 5);
        assert_eq!(v, vec![RequestId::new(6), RequestId::new(7)]);
        // Exactly coverable: all three.
        let v = RecomputeLastAdmitted.select_victims(&cands, 12);
        assert_eq!(v.len(), 3);
        // Uncoverable: select nobody rather than evict uselessly.
        assert!(RecomputeLastAdmitted.select_victims(&cands, 13).is_empty());
    }

    #[test]
    fn swap_takes_coldest_first() {
        let cands = vec![cand(0, 4, 0, 500), cand(1, 4, 1, 100), cand(2, 4, 2, 300)];
        let v = SwapLru.select_victims(&cands, 1);
        assert_eq!(v, vec![RequestId::new(1)], "longest-idle KV evicts first");
        let v = SwapLru.select_victims(&cands, 8);
        assert_eq!(v, vec![RequestId::new(1), RequestId::new(2)]);
        assert_eq!(SwapLru.restore_mode(), Some(RestoreMode::Swap));
    }

    #[test]
    fn swap_transfer_rounds_up() {
        let link = SwapConfig { gb_per_sec: 16.0 };
        assert_eq!(link.transfer_cycles(0), 0);
        assert_eq!(link.transfer_cycles(1), 1);
        assert_eq!(link.transfer_cycles(16), 1);
        assert_eq!(link.transfer_cycles(17), 2);
    }

    #[test]
    #[should_panic(expected = "swap bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        SwapConfig { gb_per_sec: 0.0 }.transfer_cycles(1);
    }

    #[test]
    fn boxed_policies_clone() {
        let b: Box<dyn PreemptionPolicy> = Box::new(SwapLru);
        assert_eq!(b.clone().name(), "swap");
    }
}
