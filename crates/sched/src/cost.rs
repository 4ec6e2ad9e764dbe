//! MHA cost models: the Algorithm 1 closed form and a trace-driven
//! cycle-level alternative behind one trait.
//!
//! Algorithm 1 ([`MhaLatencyEstimator`]) is an *approximation* of what the
//! dual-row-buffer PIM channel actually does: it charges a calibrated
//! `L_tile` per grouped-activation round and `L_GWRITE` per vector page
//! load, ignoring partial-width tiles, refresh interference, ramp-up, and
//! result readback. The cycle model in `neupims-dram` knows all of those.
//! [`MhaCostModel`] abstracts over both:
//!
//! * [`MhaLatencyEstimator`] implements it directly as the `"analytic"`
//!   model — the default, and what the paper's scheduler runs;
//! * [`TraceDrivenCostModel`] builds the *real* per-request GEMV command
//!   stream (GWRITEs plus logit/attend tiles, shaped by [`KvGeometry`]
//!   exactly as Section 6.3 lays K/V out) and replays it through a
//!   [`DramChannel`] with dual row buffers via the
//!   [`GemvEngine`]. Replays are memoized by
//!   seq-len bucket (see [`TraceDrivenCostModel::bucket`]) in one slot
//!   per bucket that fills once, so a serving loop pays the cycle model
//!   once per distinct context-length bucket and one lock-free load
//!   thereafter.
//!
//! [`calibration_drift`] quantifies where the two models disagree — the
//! drift is largest at short contexts, where Algorithm 1 charges a full
//! `L_tile` for tiles that touch only a few banks (see
//! [`DEFAULT_DRIFT_TOLERANCE`]).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use neupims_dram::{ChannelStats, DramChannel};
use neupims_kvcache::KvGeometry;
use neupims_pim::engine::bankgroup_strided_order;
use neupims_pim::{CommandMode, GemvEngine, GemvJob, TileSpec};
use neupims_types::{config::PimConfig, Divisor, HbmTiming, MemConfig, NeuPimsConfig};

use crate::estimator::MhaLatencyEstimator;

/// Which [`MhaCostModel`] a pricing layer should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModelKind {
    /// The Algorithm 1 closed form (calibrated `L_tile` / `L_GWRITE`).
    #[default]
    Analytic,
    /// Command-stream replay through the cycle-level DRAM model.
    TraceDriven,
}

/// Canonical names accepted by [`CostModelKind::from_name`] (and the CLI's
/// `--cost-model` flag).
pub const COST_MODEL_NAMES: [&str; 2] = ["analytic", "trace"];

impl CostModelKind {
    /// Canonical name (`"analytic"` / `"trace"`).
    pub fn name(self) -> &'static str {
        match self {
            CostModelKind::Analytic => "analytic",
            CostModelKind::TraceDriven => "trace",
        }
    }

    /// Parses a CLI name (case-insensitive; `algorithm1`, `trace-driven`,
    /// and `cycle` are accepted aliases). Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "analytic" | "algorithm1" | "alg1" => Some(CostModelKind::Analytic),
            "trace" | "trace-driven" | "cycle" => Some(CostModelKind::TraceDriven),
            _ => None,
        }
    }
}

impl std::fmt::Display for CostModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters of a trace-driven model's life so far: the channel activity of
/// every simulated command stream plus the memoization balance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Merged DRAM channel counters of every *distinct* (non-memoized)
    /// command stream replayed so far. Memo hits reuse a prior stream's
    /// cycles without re-simulating, so these counters describe the
    /// distinct streams, not per-iteration traffic.
    pub stats: ChannelStats,
    /// Command streams actually simulated (memo misses).
    pub replays: u64,
    /// Estimates served from the memo without simulation.
    pub memo_hits: u64,
    /// Distinct command streams whose cycles came from the on-disk replay
    /// cache (see [`TraceMemo::with_cache_dir`]) instead of simulation —
    /// the cross-process analogue of `replays`. Only the *first* touch of
    /// a disk-loaded entry counts here; repeats count as `memo_hits`.
    pub disk_hits: u64,
    /// Identity of the underlying replay memo (derived from its shared
    /// allocation). Several cost-model clones — e.g. serving replicas
    /// built from clones of one device — snapshot the *same* cumulative
    /// counters; aggregators dedupe on this id instead of summing the
    /// same memo several times. `0` marks an aggregate of several memos.
    pub memo_id: u64,
}

impl TraceSnapshot {
    /// Fraction of estimates served from the memo, in `[0, 1]`.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.replays + self.memo_hits + self.disk_hits;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Fraction of *distinct* command streams served from the on-disk
    /// replay cache instead of simulated, in `[0, 1]`. A fully-warm rerun
    /// over a populated cache directory reports `1.0`.
    pub fn disk_hit_rate(&self) -> f64 {
        let total = self.replays + self.disk_hits;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }
}

/// Prices the PIM-resident GEMV share of one request's decode MHA.
///
/// This is the cost function of every scheduling decision downstream:
/// Algorithm 2 balances per-channel loads with it
/// ([`MinLoadPacker`](crate::MinLoadPacker)), Algorithm 3 sub-batch
/// phases are paced by it, and the serving loop's NPU/PIM overlap credit
/// derives from it. Implementations must be deterministic — identical
/// inputs produce identical estimates (memoization and the parity tests
/// rely on it) — and `Send`, so serving replicas carrying them can
/// advance on fleet worker threads.
pub trait MhaCostModel: std::fmt::Debug + Send {
    /// Model name (`"analytic"` / `"trace"`), as printed by the CLI.
    fn name(&self) -> &'static str;

    /// The K/V layout geometry the costs are computed for.
    fn geometry(&self) -> &KvGeometry;

    /// Estimated MHA latency (cycles) of one request with `seq_len` tokens
    /// of context, per decoder layer, on its home PIM channel.
    fn estimate(&self, seq_len: u64) -> f64;

    /// Estimated total load (cycles) of a set of co-located requests: the
    /// serial composition of their per-request GEMV streams on one channel.
    fn estimate_sum(&self, seq_lens: &[u64]) -> f64 {
        seq_lens.iter().map(|&s| self.estimate(s)).sum()
    }

    /// Replaces the contents of `out` with [`Self::estimate`] of every
    /// context in `seq_lens`, in order: the batch form pricing loops call
    /// once per iteration. Estimates and counters end as one `estimate`
    /// per item leaves them; a model may update its counters once per
    /// batch instead of once per item.
    fn estimate_into(&self, seq_lens: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(seq_lens.iter().map(|&s| self.estimate(s)));
    }

    /// Channel activity and memoization counters, for models that simulate
    /// real command streams (`None` for closed-form models).
    fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        None
    }

    /// Pre-simulates the command streams a workload will touch, before the
    /// serving loop starts paying for them one miss at a time. Each
    /// `(lo, hi)` span covers the context lengths `lo..=hi` one request
    /// sweeps while decoding. Trace-driven models collapse the spans to
    /// their distinct memo buckets and cold-replay the missing ones in
    /// parallel on up to `jobs` scoped threads; closed-form models have
    /// nothing to warm. Returns the number of streams simulated.
    fn warm_replay(&self, _spans: &[(u64, u64)], _jobs: usize) -> u64 {
        0
    }

    /// Clones the model behind a box (serving sims and fleets replicate
    /// one configured model).
    fn clone_box(&self) -> Box<dyn MhaCostModel>;
}

impl Clone for Box<dyn MhaCostModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The estimator *is* the analytic cost model (same numbers, same type).
impl MhaCostModel for MhaLatencyEstimator {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn geometry(&self) -> &KvGeometry {
        MhaLatencyEstimator::geometry(self)
    }

    fn estimate(&self, seq_len: u64) -> f64 {
        MhaLatencyEstimator::estimate(self, seq_len)
    }

    fn clone_box(&self) -> Box<dyn MhaCostModel> {
        Box::new(*self)
    }
}

/// Memo key: the geometry/mode fingerprint, a hash of the hardware
/// configuration the replay runs on (memory organization, timing, PIM
/// datapath), and the bucketed context length — one entry per distinct
/// command-stream shape *and* hardware, so models sharing a [`TraceMemo`]
/// across different configs never serve each other's cycles.
type TraceKey = (u64, u64, u64, u64, bool, u64, u64);

/// The part of a [`TraceKey`] one model never varies: geometry, dual flag
/// and hardware fingerprint. Each family owns one [`BucketTable`].
type FamilyKey = (u64, u64, u64, u64, bool, u64);

/// Bucket-table slots below the octave region: bucket `k` bank rows for
/// `k` in `0..=32` (see [`TraceDrivenCostModel::bucket`]: the octave
/// region starts at most 32 bank rows in).
const SMALL_SLOTS: usize = 33;

/// Bucket-table slots per octave `[2^p, 2^(p+1))` of the ~6% region: the
/// buckets `2^p + j * 2^(p-4)` for `j` in `0..16`. The octave's last
/// bucket, `2^(p+1)` (`j = 16`), is the next octave's first and takes its
/// slot.
const OCTAVE_SLOTS: usize = 16;

/// Slots of one family's bucket table: every bucket of every `u64`
/// context length has one (1,058 slots, ~17 KB per family).
const TABLE_SLOTS: usize = SMALL_SLOTS + 64 * OCTAVE_SLOTS + 1;

/// One model family's share of the memo: a slot per context-length
/// bucket, indexed by the bucket's ordinal. The first lookup that misses
/// a slot fills it, exactly once, from the disk entries or by a replay;
/// a concurrent miss blocks in `get_or_init` until then. The slots are
/// allocated on first use, so a model built on a memo that never prices
/// anything (a replica's own memo before a fleet-shared one replaces it)
/// costs no table.
#[derive(Default)]
struct BucketTable(OnceLock<Box<[OnceLock<f64>]>>);

impl BucketTable {
    fn slot(&self, slot: usize) -> &OnceLock<f64> {
        &self
            .0
            .get_or_init(|| (0..TABLE_SLOTS).map(|_| OnceLock::new()).collect())[slot]
    }

    fn filled(&self) -> usize {
        self.0.get().map_or(0, |slots| {
            slots.iter().filter(|s| s.get().is_some()).count()
        })
    }
}

impl std::fmt::Debug for BucketTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BucketTable({}/{TABLE_SLOTS} filled)", self.filled())
    }
}

/// Version tag of the on-disk replay-cache format. Bump it whenever the
/// cycle model or the memo-key layout changes meaning: files carrying any
/// other tag are ignored (with a warning), never misread.
const MEMO_CACHE_VERSION: &str = "neupims-trace-memo-v1";

#[derive(Debug, Default)]
struct TraceMemoShared {
    /// One bucket table per model family, handed out when a model is
    /// built (never on the estimate path).
    tables: Mutex<HashMap<FamilyKey, Arc<BucketTable>>>,
    /// Disk-loaded cycles no lookup has touched yet. A bucket's first
    /// lookup drains its entry into the bucket's slot.
    on_disk: Mutex<HashMap<TraceKey, f64>>,
    /// Merged channel activity of every replayed stream. Touched only on
    /// cold replays, so it never contends with warm lookups.
    stats: Mutex<ChannelStats>,
    replays: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    /// Opt-in persistence: a directory of append-only replay-cache files,
    /// one per hardware fingerprint. The mutex serializes appends.
    cache_dir: Mutex<Option<PathBuf>>,
}

/// Shared replay memo of [`TraceDrivenCostModel`]s. Cloning shares the
/// underlying cache, so every model handed out by one device (across
/// serving iterations, scheduler calls, device clones, and — via
/// fleet-level sharing — whole replica fleets) amortizes the same set of
/// simulated command streams.
///
/// The memo is one store: every model family (geometry, dual flag,
/// hardware fingerprint) owns a dense table with one `OnceLock<f64>` slot
/// per context-length bucket, which a model resolves once when it is
/// built. A warm `estimate` is the bucket's ordinal, one atomic load and
/// the `memo_hits` count: no hashing and no lock.
///
/// A cold lookup fills its slot exactly once, and `get_or_init` is the
/// **single flight**: the first thread to miss a bucket replays it (or
/// drains its disk entry) while later arrivals for the same bucket block
/// on the slot and reuse the result, counting a memo hit, so a stream is
/// never simulated twice. Since every estimate is the deterministic
/// replay of its key, the counters are timing-independent: `replays`
/// equals the number of distinct keys touched no matter how many threads
/// race.
///
/// [`Self::with_cache_dir`] adds cross-process persistence: replays are
/// appended to versioned per-fingerprint files and loaded back on
/// construction into a map of disk entries, which each bucket's first
/// lookup drains, so reruns skip cold replay entirely (tracked by
/// [`TraceSnapshot::disk_hits`]).
#[derive(Debug, Clone, Default)]
pub struct TraceMemo(Arc<TraceMemoShared>);

impl TraceMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memo backed by an on-disk replay cache at `dir` (created if
    /// missing). Every cache file already present is loaded — entries are
    /// keyed by hardware fingerprint and bucket, so a directory can be
    /// shared across heterogeneous configurations — and every future cold
    /// replay is appended, making reruns (eval suites, sweeps, repeated
    /// CLI invocations) skip simulation entirely.
    ///
    /// Files with an unknown version tag and corrupt lines (cycles that
    /// are not positive and finite included) are skipped with a warning
    /// on stderr, never misread; delete the directory (or a single
    /// `memo-<fingerprint>.txt`) to invalidate.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created or
    /// listed. Unreadable individual files are warnings, not errors.
    pub fn with_cache_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let memo = Self::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let is_cache_file = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("memo-") && n.ends_with(".txt"));
            if is_cache_file {
                memo.load_cache_file(&path);
            }
        }
        *memo.0.cache_dir.lock().expect("memo cache dir poisoned") = Some(dir.to_path_buf());
        Ok(memo)
    }

    /// The cache directory backing this memo, when persistence is on.
    pub fn cache_dir(&self) -> Option<PathBuf> {
        self.0
            .cache_dir
            .lock()
            .expect("memo cache dir poisoned")
            .clone()
    }

    /// Memoized command streams currently held: filled slots plus the
    /// disk entries no lookup has touched yet.
    pub fn entries(&self) -> usize {
        let filled: usize = self
            .0
            .tables
            .lock()
            .expect("memo tables poisoned")
            .values()
            .map(|t| t.filled())
            .sum();
        filled + self.disk_entries().len()
    }

    /// Counters accumulated so far, across every model sharing this memo.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            stats: *self.0.stats.lock().expect("memo stats poisoned"),
            replays: self.0.replays.load(Ordering::Relaxed),
            memo_hits: self.0.memo_hits.load(Ordering::Relaxed),
            disk_hits: self.0.disk_hits.load(Ordering::Relaxed),
            memo_id: Arc::as_ptr(&self.0) as usize as u64,
        }
    }

    /// The bucket table of one model family, created on first request.
    fn bucket_table(&self, family: FamilyKey) -> Arc<BucketTable> {
        let mut tables = self.0.tables.lock().expect("memo tables poisoned");
        Arc::clone(tables.entry(family).or_default())
    }

    fn disk_entries(&self) -> std::sync::MutexGuard<'_, HashMap<TraceKey, f64>> {
        self.0.on_disk.lock().expect("memo disk entries poisoned")
    }

    /// Appends one replayed entry to its fingerprint's cache file (no-op
    /// without persistence). Write failures are warnings: a full disk
    /// must not take the simulation down.
    fn append_to_cache(&self, key: &TraceKey, cycles: f64) {
        let cache_dir = self.0.cache_dir.lock().expect("memo cache dir poisoned");
        let Some(dir) = cache_dir.as_ref() else {
            return;
        };
        let path = dir.join(format!("memo-{:016x}.txt", key.5));
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                if f.metadata()?.len() == 0 {
                    writeln!(f, "{MEMO_CACHE_VERSION}")?;
                }
                writeln!(
                    f,
                    "{} {} {} {} {} {:016x} {} {:016x}",
                    key.0,
                    key.1,
                    key.2,
                    key.3,
                    key.4 as u8,
                    key.5,
                    key.6,
                    cycles.to_bits()
                )
            });
        if let Err(e) = res {
            eprintln!(
                "warning: failed to append to replay cache {}: {e}",
                path.display()
            );
        }
    }

    /// Loads one cache file into the disk entries. Version mismatches and
    /// corrupt lines are skipped with a warning.
    fn load_cache_file(&self, path: &Path) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "warning: ignoring unreadable replay cache {}: {e}",
                    path.display()
                );
                return;
            }
        };
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(MEMO_CACHE_VERSION) {
            eprintln!(
                "warning: ignoring replay cache {} (version mismatch, expected {MEMO_CACHE_VERSION})",
                path.display()
            );
            return;
        }
        let mut corrupt = 0usize;
        let mut on_disk = self.disk_entries();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_cache_line(line) {
                Some((key, cycles)) => {
                    on_disk.insert(key, cycles);
                }
                None => corrupt += 1,
            }
        }
        if corrupt > 0 {
            eprintln!(
                "warning: skipped {corrupt} corrupt line(s) in replay cache {}",
                path.display()
            );
        }
    }
}

/// Parses one cache line: the seven key fields then the cycles as raw
/// `f64` bits in hex (bit-identical across processes by construction).
fn parse_cache_line(line: &str) -> Option<(TraceKey, f64)> {
    let mut it = line.split_whitespace();
    let embed = it.next()?.parse().ok()?;
    let heads = it.next()?.parse().ok()?;
    let page_elems = it.next()?.parse().ok()?;
    let banks = it.next()?.parse().ok()?;
    let dual = match it.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let fingerprint = u64::from_str_radix(it.next()?, 16).ok()?;
    let bucket = it.next()?.parse().ok()?;
    let cycles = f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?);
    // Every replay span is at least one cycle (bucket 0 still carries its
    // query GWRITEs), so zero, negative and non-finite cycles are corrupt.
    if it.next().is_some() || !(cycles.is_finite() && cycles > 0.0) {
        return None;
    }
    Some((
        (embed, heads, page_elems, banks, dual, fingerprint, bucket),
        cycles,
    ))
}

/// Cycle-level MHA pricing: the per-request GEMV command stream, replayed
/// through the dual-row-buffer DRAM channel model.
///
/// Per request the model builds what Section 6.3's layout implies:
///
/// * the **logit** GEMV (`Kᵀ x Q`): `ceil(E/P_DRAM)` GWRITEs for the query
///   pages, then `ceil(seq/B_chnl)` grouped-activation rounds per K page —
///   the final round activating only the banks the tail tokens occupy
///   (Algorithm 1 rounds that partial tile up to a full one; this model
///   does not, which is the main source of small-context drift);
/// * the **attend** GEMV (`L x V`): per head, `ceil(seq/P_DRAM)` logit-page
///   GWRITEs and `ceil(d_head/B_chnl)` rounds per sequence page.
///
/// Both streams run through a [`GemvEngine`] (composite `PIM_GEMV`
/// commands on dual-row-buffer hardware, Newton-style fine-grained control
/// otherwise — matching the `l_tile` vs `l_tile_fine` calibration split)
/// on a fresh [`DramChannel`], refresh included. The measured span is the
/// estimate.
///
/// Replays are memoized by [`Self::bucket`]: context lengths are rounded
/// up to ~6% granularity, so a serving loop touching thousands of distinct
/// lengths simulates only O(hundreds) streams, and
/// [`MhaCostModel::estimate_sum`] composes per-request results from the
/// shared [`TraceMemo`]. The model holds its family's bucket table, so a
/// warm estimate is one atomic load.
#[derive(Debug, Clone)]
pub struct TraceDrivenCostModel {
    geometry: KvGeometry,
    hw: TraceHardware,
    dual: bool,
    memo: TraceMemo,
    table: Arc<BucketTable>,
    /// The bank-row quantum `B_chnl` of the buckets below the octave
    /// region (at least one token), prepared once.
    row: Divisor,
    /// Where the octave region starts: the smallest power of two `2^p`
    /// whose octave quantum `2^(p-4)` exceeds one bank row.
    octaves_from: u64,
}

/// The hardware a trace replay runs on — memory organization, DRAM timing
/// and PIM datapath — with its fingerprint computed once. The fingerprint
/// is part of every memo key and names the on-disk `memo-<fp>.txt` cache
/// files, so a device building many models over one configuration hashes
/// it once, not once per model.
#[derive(Debug, Clone, Copy)]
pub struct TraceHardware {
    mem: MemConfig,
    timing: HbmTiming,
    pim: PimConfig,
    fingerprint: u64,
}

impl TraceHardware {
    /// Captures and fingerprints the replay-relevant part of `cfg`.
    pub fn new(cfg: &NeuPimsConfig) -> Self {
        // The replay depends on the whole hardware description, not just
        // the geometry; fingerprint it into the memo key so one memo can
        // be shared across models without cross-config collisions. The
        // config structs are plain numeric records, so their Debug forms
        // are faithful fingerprint material.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}{:?}{:?}", cfg.mem, cfg.timing, cfg.pim).hash(&mut h);
        Self {
            mem: cfg.mem,
            timing: cfg.timing,
            pim: cfg.pim,
            fingerprint: h.finish(),
        }
    }

    /// Hash of `(mem, timing, pim)`: part of every memo key and the name
    /// of this hardware's replay-cache file.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl TraceDrivenCostModel {
    /// Builds the model for one hardware configuration and K/V geometry.
    /// `dual_row_buffer` selects the command style (composite `PIM_GEMV`
    /// with dual buffers, fine-grained Newton control without) and the
    /// channel's buffer mode.
    pub fn new(cfg: &NeuPimsConfig, geometry: KvGeometry, dual_row_buffer: bool) -> Self {
        Self::with_memo(cfg, geometry, dual_row_buffer, TraceMemo::new())
    }

    /// Like [`Self::new`], but sharing an existing replay memo (device
    /// backends hand the same memo to every model they create).
    pub fn with_memo(
        cfg: &NeuPimsConfig,
        geometry: KvGeometry,
        dual_row_buffer: bool,
        memo: TraceMemo,
    ) -> Self {
        Self::on_hardware(TraceHardware::new(cfg), geometry, dual_row_buffer, memo)
    }

    /// Like [`Self::with_memo`], over hardware fingerprinted beforehand.
    pub fn on_hardware(
        hw: TraceHardware,
        geometry: KvGeometry,
        dual_row_buffer: bool,
        memo: TraceMemo,
    ) -> Self {
        let g = &geometry;
        let table = memo.bucket_table((
            g.embed,
            g.heads,
            g.page_elems,
            g.banks,
            dual_row_buffer,
            hw.fingerprint,
        ));
        let row = g.banks.max(1);
        Self {
            geometry,
            hw,
            dual: dual_row_buffer,
            memo,
            table,
            row: Divisor::new(row),
            octaves_from: 16 * (row + 1).next_power_of_two(),
        }
    }

    /// Whether the model simulates dual-row-buffer (composite-command)
    /// hardware.
    pub fn dual_row_buffer(&self) -> bool {
        self.dual
    }

    /// The memo bucket a context length falls into: `seq_len` rounded up
    /// to a quantum of `2^floor(log2 seq)/16` once that exceeds one bank
    /// row `B_chnl`, so bucketing overestimates by under ~6.25% while
    /// collapsing the memo to 16 entries per octave. Shorter contexts
    /// round up to whole bank rows, which matches Algorithm 1's own
    /// full-tile rounding granularity, but never past the first octave
    /// bucket: with a bank count that is not a power of two the next bank
    /// row could overshoot it. So the rule is monotone and idempotent for
    /// every bank count, which [`MhaCostModel::warm_replay`]'s walk over
    /// the buckets relies on.
    pub fn bucket(&self, seq_len: u64) -> u64 {
        self.bucket_slot(seq_len).0
    }

    /// [`Self::bucket`] and the bucket's slot in the family's bucket
    /// table. Below the octave region the slot is the bucket's count of
    /// bank rows (under 32, since the octave region starts at most 32
    /// bank rows in); in octave `p` it is `SMALL_SLOTS + 16p + j` for the
    /// bucket `(16 + j) * 2^(p-4)`, so an octave's last bucket (`j = 16`)
    /// lands on the next octave's first. No slot ever holds two buckets,
    /// and no bucket has two slots: the octave region's first bucket
    /// takes its octave slot even when it is a whole number of bank rows
    /// (1024 with 32 banks), or it would replay once per slot.
    #[inline]
    fn bucket_slot(&self, seq_len: u64) -> (u64, usize) {
        if seq_len < self.octaves_from {
            let rows = self.row.div_ceil(seq_len);
            let bucket = rows * self.row.get();
            if bucket < self.octaves_from {
                return (bucket, rows as usize);
            }
            let octave = self.octaves_from.trailing_zeros() as usize;
            return (self.octaves_from, SMALL_SLOTS + octave * OCTAVE_SLOTS);
        }
        let log2 = 63 - seq_len.leading_zeros();
        let shift = log2 - 4;
        let steps = (seq_len >> shift) + u64::from(seq_len & ((1 << shift) - 1) != 0);
        let slot = SMALL_SLOTS + log2 as usize * OCTAVE_SLOTS + (steps - 16) as usize;
        (steps * (1 << shift), slot)
    }

    /// Counters accumulated so far (shared across clones of this model's
    /// memo).
    pub fn snapshot(&self) -> TraceSnapshot {
        self.memo.snapshot()
    }

    /// The replay memo this model shares.
    pub fn memo(&self) -> &TraceMemo {
        &self.memo
    }

    fn key(&self, bucket: u64) -> TraceKey {
        let g = &self.geometry;
        (
            g.embed,
            g.heads,
            g.page_elems,
            g.banks,
            self.dual,
            self.hw.fingerprint,
            bucket,
        )
    }

    /// Builds the per-request GEMV jobs for a `seq_len`-token context.
    fn build_jobs(&self, seq_len: u64) -> Vec<GemvJob> {
        let g = &self.geometry;
        let order = bankgroup_strided_order(&self.hw.mem);
        let rows_per_bank = self.hw.mem.rows_per_bank().max(1) as u32;
        let mut row: u32 = 0;
        let mut fresh_row = || {
            let r = row % rows_per_bank;
            row = row.wrapping_add(1);
            r
        };

        // Logit GEMV (Kᵀ x Q): query-page GWRITEs, then one activation
        // round per (bank-row of tokens, K page). The last row activates
        // only the banks the tail tokens occupy.
        let k_pages = g.logit_gwrites();
        let mut logit_tiles = Vec::new();
        let bank_rows = seq_len.div_ceil(g.banks);
        for r in 0..bank_rows {
            let width = (seq_len - r * g.banks).min(g.banks) as usize;
            for _ in 0..k_pages {
                let row = fresh_row();
                logit_tiles.push(TileSpec {
                    rows: order[..width].iter().map(|&b| (b, row)).collect(),
                });
            }
        }
        let gwrites = (0..k_pages)
            .map(|i| (order[i as usize % order.len()], fresh_row()))
            .collect();
        let n_logit = logit_tiles.len() as u32;
        let logit = GemvJob {
            gwrites,
            tiles: logit_tiles,
            result_bursts: if n_logit == 0 {
                0
            } else {
                (n_logit / 4).max(1)
            },
            min_start: 0,
        };
        if seq_len == 0 {
            // Only the fixed query GWRITEs remain (Algorithm 1's seq=0
            // degenerate case).
            return vec![logit];
        }

        // Attend GEMV (L x V): per head, per sequence page, one activation
        // round per bank-row of embedding dimensions.
        let seq_pages = seq_len.div_ceil(g.page_elems);
        let d_rows = g.d_head().div_ceil(g.banks);
        let mut attend_tiles = Vec::new();
        for _head in 0..g.heads {
            for _p in 0..seq_pages {
                for dr in 0..d_rows {
                    let width = (g.d_head() - dr * g.banks).min(g.banks) as usize;
                    let row = fresh_row();
                    attend_tiles.push(TileSpec {
                        rows: order[..width].iter().map(|&b| (b, row)).collect(),
                    });
                }
            }
        }
        let attend_gwrites = (0..g.attend_gwrites(seq_len))
            .map(|i| (order[i as usize % order.len()], fresh_row()))
            .collect();
        let n_attend = attend_tiles.len() as u32;
        let attend = GemvJob {
            gwrites: attend_gwrites,
            tiles: attend_tiles,
            result_bursts: (n_attend / 4).max(1),
            min_start: 0,
        };
        vec![logit, attend]
    }

    /// Fills the empty slot of `bucket`: with its disk entry when there
    /// is one (a disk hit), by a replay otherwise, which is merged into
    /// the channel stats, counted and persisted.
    fn fill(&self, bucket: u64) -> f64 {
        let key = self.key(bucket);
        let memo = &self.memo.0;
        let on_disk = self.memo.disk_entries().remove(&key);
        if let Some(cycles) = on_disk {
            memo.disk_hits.fetch_add(1, Ordering::Relaxed);
            return cycles;
        }
        let (cycles, stats) = self.replay(bucket);
        memo.stats
            .lock()
            .expect("memo stats poisoned")
            .merge(&stats);
        memo.replays.fetch_add(1, Ordering::Relaxed);
        self.memo.append_to_cache(&key, cycles);
        cycles
    }

    /// The cycles of `seq_len`'s bucket, and whether they were a memo
    /// hit. Warm path: one atomic load, no hashing and no lock. A miss
    /// fills the slot; a lookup that finds it filled, or filled while it
    /// waited in `get_or_init`, is a hit, which the caller counts.
    #[inline]
    fn lookup(&self, seq_len: u64) -> (f64, bool) {
        let (bucket, slot) = self.bucket_slot(seq_len);
        let mut filled_here = false;
        let cycles = *self.table.slot(slot).get_or_init(|| {
            filled_here = true;
            self.fill(bucket)
        });
        (cycles, !filled_here)
    }

    /// Replays the command stream of one bucketed context length through a
    /// fresh channel and returns its span.
    fn replay(&self, bucket: u64) -> (f64, ChannelStats) {
        let mode = if self.dual {
            CommandMode::Composite
        } else {
            CommandMode::FineGrained
        };
        let mut ch = DramChannel::new(self.hw.mem, self.hw.timing, self.dual);
        let mut engine = GemvEngine::new(self.hw.pim, mode, true);
        for job in self.build_jobs(bucket) {
            engine.enqueue(job);
        }
        let stats = engine
            .run_to_completion(&mut ch)
            .expect("trace replay must be schedulable on a validated config");
        let mut ch_stats = *ch.stats();
        // The channel classifies row hits/misses only for controller-level
        // transactions; PIM command streams bypass that layer. A GEMV
        // stream never revisits an open row — every PIM-slot activation is
        // a cold miss (streaming is the whole point of in-bank compute) —
        // so record them as such for the hit-rate surfaced upstream.
        ch_stats.row_misses += ch_stats.pim_acts;
        (stats.span() as f64, ch_stats)
    }
}

impl MhaCostModel for TraceDrivenCostModel {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn geometry(&self) -> &KvGeometry {
        &self.geometry
    }

    fn estimate(&self, seq_len: u64) -> f64 {
        let (cycles, hit) = self.lookup(seq_len);
        if hit {
            self.memo.0.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        cycles
    }

    fn estimate_into(&self, seq_lens: &[u64], out: &mut Vec<f64>) {
        // One shared-counter update per batch, not one per request.
        let mut hits = 0u64;
        out.clear();
        out.extend(seq_lens.iter().map(|&s| {
            let (cycles, hit) = self.lookup(s);
            hits += u64::from(hit);
            cycles
        }));
        if hits > 0 {
            self.memo.0.memo_hits.fetch_add(hits, Ordering::Relaxed);
        }
    }

    fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        Some(self.snapshot())
    }

    fn warm_replay(&self, spans: &[(u64, u64)], jobs: usize) -> u64 {
        // Walk each span through the bucket lattice: every context in
        // `[s, bucket(s)]` maps to `bucket(s)` (bucketing is monotone and
        // rounds up), so jumping to `bucket(s) + 1` enumerates exactly
        // the distinct buckets a span touches.
        let mut buckets = std::collections::BTreeSet::new();
        for &(lo, hi) in spans {
            let mut s = lo;
            while s <= hi {
                let b = self.bucket(s);
                buckets.insert(b);
                s = b + 1;
            }
        }
        let missing: Vec<u64> = buckets
            .into_iter()
            .filter(|&b| {
                let (bucket, slot) = self.bucket_slot(b);
                self.table.slot(slot).get().is_none()
                    && !self.memo.disk_entries().contains_key(&self.key(bucket))
            })
            .collect();
        if missing.is_empty() {
            return 0;
        }
        let replay = |part: &[u64]| {
            for &bucket in part {
                self.estimate(bucket);
            }
        };
        let jobs = jobs.max(1).min(missing.len());
        if jobs == 1 {
            // A lone chunk replays on the caller: a spawned thread would
            // only give the process a second malloc arena.
            replay(&missing);
        } else {
            let chunk = missing.len().div_ceil(jobs);
            std::thread::scope(|scope| {
                for part in missing.chunks(chunk) {
                    scope.spawn(move || replay(part));
                }
            });
        }
        missing.len() as u64
    }

    fn clone_box(&self) -> Box<dyn MhaCostModel> {
        Box::new(self.clone())
    }
}

/// Default relative tolerance of the calibration-drift check: analytic
/// and trace-driven MHA latencies are expected to agree within this
/// fraction at every context length. The constants were calibrated from
/// the same cycle model, so residual drift comes from what the closed
/// form leaves out — partial-width logit tiles at non-bank-aligned
/// contexts, GWRITE/tile ramp-up, refresh placement, result readback, and
/// the memo's ~6% seq-len bucketing — and stays in the low single-digit
/// percent on the Table 2 configuration (the `drift` CLI command prints
/// the sweep). A violation means the cycle model and the Algorithm 1
/// constants have genuinely diverged: recalibrate, or switch the affected
/// runs to trace-driven pricing.
pub const DEFAULT_DRIFT_TOLERANCE: f64 = 0.10;

/// Analytic-vs-trace disagreement at one context length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPoint {
    /// Context length probed.
    pub seq_len: u64,
    /// Analytic estimate, cycles.
    pub analytic: f64,
    /// Trace-driven estimate, cycles.
    pub trace: f64,
}

impl DriftPoint {
    /// Relative error of the trace-driven estimate against the analytic
    /// one, `|trace - analytic| / max(analytic, 1)`.
    pub fn rel_err(&self) -> f64 {
        (self.trace - self.analytic).abs() / self.analytic.max(1.0)
    }
}

/// Outcome of a [`calibration_drift`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// One point per probed context length, in input order.
    pub points: Vec<DriftPoint>,
    /// The tolerance violations were judged against.
    pub tolerance: f64,
}

impl DriftReport {
    /// Points whose relative error exceeds the tolerance.
    pub fn violations(&self) -> Vec<&DriftPoint> {
        self.points
            .iter()
            .filter(|p| p.rel_err() > self.tolerance)
            .collect()
    }

    /// Largest relative error observed (0 for an empty sweep).
    pub fn max_rel_err(&self) -> f64 {
        self.points
            .iter()
            .map(DriftPoint::rel_err)
            .fold(0.0, f64::max)
    }
}

/// Sweeps `seq_lens` through both models and reports where they disagree
/// by more than `tolerance` (relative). This is the calibration-drift
/// check: when the cycle model evolves (new timing parameters, new command
/// styles), the sweep shows where the Algorithm 1 constants stopped being
/// a faithful summary of it.
pub fn calibration_drift(
    analytic: &dyn MhaCostModel,
    trace: &dyn MhaCostModel,
    seq_lens: &[u64],
    tolerance: f64,
) -> DriftReport {
    let points = seq_lens
        .iter()
        .map(|&seq_len| DriftPoint {
            seq_len,
            analytic: analytic.estimate(seq_len),
            trace: trace.estimate(seq_len),
        })
        .collect();
    DriftReport { points, tolerance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neupims_types::LlmConfig;

    fn geometry() -> KvGeometry {
        KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &MemConfig::table2(), 4)
    }

    fn analytic() -> MhaLatencyEstimator {
        let cal = neupims_pim::calibrate(&NeuPimsConfig::table2()).unwrap();
        MhaLatencyEstimator::new(geometry(), cal.l_tile, cal.l_gwrite)
    }

    fn trace() -> TraceDrivenCostModel {
        TraceDrivenCostModel::new(&NeuPimsConfig::table2(), geometry(), true)
    }

    #[test]
    fn kind_registry_round_trips() {
        for name in COST_MODEL_NAMES {
            assert_eq!(CostModelKind::from_name(name).unwrap().name(), name);
        }
        assert_eq!(
            CostModelKind::from_name("Trace-Driven"),
            Some(CostModelKind::TraceDriven)
        );
        assert_eq!(CostModelKind::from_name("magic"), None);
        assert_eq!(CostModelKind::default(), CostModelKind::Analytic);
        assert_eq!(CostModelKind::TraceDriven.to_string(), "trace");
    }

    #[test]
    fn estimator_is_the_analytic_model_bit_for_bit() {
        let est = analytic();
        let dy: &dyn MhaCostModel = &est;
        for seq in [0u64, 1, 31, 32, 100, 511, 512, 513, 4096, 16384] {
            assert_eq!(dy.estimate(seq).to_bits(), est.estimate(seq).to_bits());
        }
        assert_eq!(dy.name(), "analytic");
        assert!(dy.trace_snapshot().is_none());
        let sum = dy.estimate_sum(&[100, 200, 300]);
        assert!((sum - est.estimate_sum(&[100, 200, 300])).abs() < 1e-12);
    }

    #[test]
    fn trace_job_shapes_match_geometry_counts() {
        let t = trace();
        let g = *t.geometry();
        for seq in [0u64, 1, 31, 32, 33, 512, 513, 2048] {
            let jobs = t.build_jobs(seq);
            let tiles: u64 = jobs.iter().map(|j| j.n_tiles()).sum();
            let gwrites: u64 = jobs.iter().map(|j| j.gwrites.len() as u64).sum();
            assert_eq!(tiles, g.mha_tiles(seq), "seq {seq}: tile count");
            assert_eq!(gwrites, g.mha_gwrites(seq), "seq {seq}: gwrite count");
            // Every tile activates at least one and at most B_chnl banks.
            for job in &jobs {
                for tile in &job.tiles {
                    assert!(!tile.rows.is_empty());
                    assert!(tile.rows.len() as u64 <= g.banks);
                }
            }
        }
    }

    #[test]
    fn trace_estimates_are_positive_and_monotone_in_buckets() {
        let t = trace();
        let mut prev = 0.0;
        for seq in [1u64, 32, 128, 512, 1024, 4096] {
            let est = t.estimate(seq);
            assert!(est > 0.0, "seq {seq}");
            assert!(est >= prev, "seq {seq}: {est} < {prev}");
            prev = est;
        }
        // seq=0 costs only the fixed query GWRITEs.
        assert!(t.estimate(0) > 0.0);
        assert!(t.estimate(0) < t.estimate(1));
    }

    #[test]
    fn memo_hits_and_stats_accumulate() {
        let t = trace();
        let a = t.estimate(300);
        let snap1 = t.snapshot();
        assert!(snap1.replays >= 1);
        assert!(snap1.stats.pim_acts > 0, "PIM activations must be counted");
        assert!(snap1.stats.ca_busy > 0);
        // Same bucket: served from the memo, identical cycles.
        let b = t.estimate(300);
        assert_eq!(a.to_bits(), b.to_bits());
        let snap2 = t.snapshot();
        assert_eq!(snap2.replays, snap1.replays);
        assert_eq!(snap2.memo_hits, snap1.memo_hits + 1);
        assert!(snap2.memo_hit_rate() > 0.0);
        // Clones share the memo.
        let clone = t.clone();
        clone.estimate(300);
        assert_eq!(t.snapshot().memo_hits, snap2.memo_hits + 1);
    }

    #[test]
    fn bucket_granularity_is_bounded() {
        let t = trace();
        assert_eq!(t.bucket(0), 0);
        let banks = t.geometry().banks;
        for seq in [1u64, 17, 32, 100, 999, 5000, 16384] {
            let b = t.bucket(seq);
            assert!(b >= seq, "bucket must round up");
            // Below one bank row everything shares the `banks` bucket (the
            // stream shape is one partial activation round either way);
            // above it the quantum is bounded relative to seq.
            if seq < banks {
                assert_eq!(b, banks, "sub-bank-row contexts share one bucket");
            } else {
                let slack = (b - seq) as f64 / seq as f64;
                assert!(slack <= 1.0, "seq {seq} -> bucket {b}");
                if seq >= 512 {
                    assert!(slack < 0.07, "seq {seq} -> bucket {b}: slack {slack}");
                }
            }
            // Bucketing is idempotent.
            assert_eq!(t.bucket(b), b);
        }
    }

    #[test]
    fn distinct_buckets_of_one_family_never_share_a_slot() {
        // The bucket rule as first written: round up to a quantum of
        // max(B_chnl, 2^floor(log2 seq)/16). Below the octave region it
        // is capped at the region's first bucket, which only binds when
        // the bank count is not a power of two.
        let reference = |banks: u64, seq: u64| {
            if seq == 0 {
                return 0;
            }
            let pow2 = 1u64 << (63 - seq.leading_zeros() as u64);
            let quantum = (pow2 / 16).max(banks).max(1);
            let bucket = seq.div_ceil(quantum) * quantum;
            let first_octave = 16 * (banks + 1).next_power_of_two();
            if seq <= first_octave && !banks.is_power_of_two() {
                bucket.min(first_octave)
            } else {
                bucket
            }
        };
        for banks in [1u64, 16, 32, 48] {
            let t = TraceDrivenCostModel::new(
                &NeuPimsConfig::table2(),
                KvGeometry {
                    banks,
                    ..geometry()
                },
                true,
            );
            let mut seqs: Vec<u64> = (0..20_000).collect();
            for shift in 14..63 {
                let base = 1u64 << shift;
                seqs.extend([base - 1, base, base + 1, base + base / 32, base + base / 2]);
            }
            seqs.push(u64::MAX / 2);
            let mut owner = vec![None; TABLE_SLOTS];
            let mut slots_of = std::collections::HashMap::<u64, Vec<usize>>::new();
            for seq in seqs {
                let (bucket, slot) = t.bucket_slot(seq);
                assert_eq!(bucket, reference(banks, seq), "banks {banks} seq {seq}");
                assert!(slot < TABLE_SLOTS, "banks {banks} seq {seq}: slot {slot}");
                let first = *owner[slot].get_or_insert(bucket);
                assert_eq!(
                    first, bucket,
                    "banks {banks}: slot {slot} holds two buckets"
                );
                let slots = slots_of.entry(bucket).or_default();
                if !slots.contains(&slot) {
                    slots.push(slot);
                }
            }
            // No bucket takes two slots, not even where bank rows meet
            // the first octave: it would replay once per slot.
            let shared: Vec<_> = slots_of.iter().filter(|(_, s)| s.len() > 1).collect();
            assert!(shared.is_empty(), "banks {banks}: {shared:?}");
        }
    }

    #[test]
    fn trace_agrees_with_analytic_at_steady_state() {
        // At contexts large enough that full-width tiles dominate, the
        // trace-driven span must agree with the Algorithm 1 closed form
        // within the documented tolerance (the constants were calibrated
        // from this very cycle model).
        let a = analytic();
        let t = trace();
        for seq in [512u64, 1024, 4096, 8192] {
            let ea = a.estimate(seq);
            let et = t.estimate(seq);
            let rel = (et - ea).abs() / ea;
            assert!(
                rel < DEFAULT_DRIFT_TOLERANCE,
                "seq {seq}: analytic {ea:.0} vs trace {et:.0} ({rel:.2})"
            );
        }
    }

    #[test]
    fn fine_grained_trace_costs_more_control_traffic() {
        // The Newton-style (single-row-buffer) stream pays per-group
        // control slots; its ca_busy share per tile must exceed the
        // composite stream's.
        let cfg = NeuPimsConfig::table2();
        let dual = TraceDrivenCostModel::new(&cfg, geometry(), true);
        let blocked = TraceDrivenCostModel::new(&cfg, geometry(), false);
        dual.estimate(1024);
        blocked.estimate(1024);
        let ca_dual = dual.snapshot().stats.ca_busy;
        let ca_blocked = blocked.snapshot().stats.ca_busy;
        assert!(
            ca_blocked > ca_dual,
            "fine-grained C/A {ca_blocked} must exceed composite {ca_dual}"
        );
    }

    #[test]
    fn warm_replay_prepopulates_the_memo() {
        let t = trace();
        let warmed = MhaCostModel::warm_replay(&t, &[(1, 2000), (64, 512)], 4);
        assert!(warmed > 0, "a fresh memo has everything to warm");
        let snap = t.snapshot();
        assert_eq!(snap.replays, warmed, "warmup replays exactly the gaps");
        assert_eq!(snap.memo_hits, 0);
        // The serving loop then never cold-replays inside the span.
        t.estimate(300);
        t.estimate(1500);
        t.estimate(2000);
        let after = t.snapshot();
        assert_eq!(after.replays, snap.replays, "warmed spans never re-replay");
        assert_eq!(after.memo_hits, 3);
        // A second pass over the same spans finds nothing missing.
        assert_eq!(MhaCostModel::warm_replay(&t, &[(1, 2000)], 4), 0);
        // Warmed results are bit-identical to an unwarmed model's.
        let cold = trace();
        for seq in [1u64, 77, 300, 1024, 1999] {
            assert_eq!(t.estimate(seq).to_bits(), cold.estimate(seq).to_bits());
        }
        // Analytic models have nothing to warm.
        let a = analytic();
        assert_eq!(MhaCostModel::warm_replay(&a, &[(1, 2000)], 4), 0);
    }

    #[test]
    fn warm_replay_counts_the_same_on_the_caller_and_on_workers() {
        // One job replays on the calling thread, two on scoped workers:
        // the same buckets replay, and the counters agree.
        let warm = |jobs| {
            let t = trace();
            let warmed = MhaCostModel::warm_replay(&t, &[(1, 3000), (64, 512)], jobs);
            let snap = t.snapshot();
            (warmed, snap.replays, snap.memo_hits, snap.disk_hits)
        };
        let serial = warm(1);
        assert!(serial.0 > 1, "more than one bucket to split");
        assert_eq!(serial, warm(2));
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("neupims-memo-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_cache_round_trips_bit_identical() {
        let dir = scratch_dir("roundtrip");
        let cfg = NeuPimsConfig::table2();
        let seqs = [1u64, 128, 300, 1024, 4096];

        let memo1 = TraceMemo::with_cache_dir(&dir).unwrap();
        assert_eq!(memo1.cache_dir().as_deref(), Some(dir.as_path()));
        let m1 = TraceDrivenCostModel::with_memo(&cfg, geometry(), true, memo1.clone());
        let first: Vec<u64> = seqs.iter().map(|&s| m1.estimate(s).to_bits()).collect();
        let populated = memo1.snapshot();
        assert!(populated.replays > 0);
        assert_eq!(populated.disk_hits, 0, "first run has nothing on disk");

        // A fresh memo over the same directory serves everything from
        // disk: zero replays, bit-identical cycles, 100% disk hit rate.
        let memo2 = TraceMemo::with_cache_dir(&dir).unwrap();
        assert_eq!(memo2.entries() as u64, populated.replays);
        let m2 = TraceDrivenCostModel::with_memo(&cfg, geometry(), true, memo2.clone());
        let second: Vec<u64> = seqs.iter().map(|&s| m2.estimate(s).to_bits()).collect();
        assert_eq!(first, second, "disk round trip must be bit-identical");
        let snap = memo2.snapshot();
        assert_eq!(snap.replays, 0, "a warm cache leaves nothing to replay");
        assert_eq!(snap.disk_hits, populated.replays);
        assert!((snap.disk_hit_rate() - 1.0).abs() < f64::EPSILON);
        // Repeat touches count as memo hits, not disk hits.
        m2.estimate(300);
        assert_eq!(memo2.snapshot().disk_hits, snap.disk_hits);
        assert_eq!(memo2.snapshot().memo_hits, snap.memo_hits + 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_cache_entries_are_ignored() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        // Wrong version tag: the whole file is skipped.
        std::fs::write(
            dir.join("memo-000000000000dead.txt"),
            "neupims-trace-memo-v0\n1 2 3 4 1 dead 5 0000000000000000\n",
        )
        .unwrap();
        // Right version, corrupt lines: each line is skipped.
        std::fs::write(
            dir.join("memo-000000000000beef.txt"),
            format!("{MEMO_CACHE_VERSION}\nnot a record\n1 2 3\n1 2 3 4 9 beef 5 zz\n"),
        )
        .unwrap();
        let memo = TraceMemo::with_cache_dir(&dir).unwrap();
        assert_eq!(memo.entries(), 0, "nothing valid to load");
        // The memo still works: estimates replay and persist as usual.
        let m = TraceDrivenCostModel::with_memo(
            &NeuPimsConfig::table2(),
            geometry(),
            true,
            memo.clone(),
        );
        let est = m.estimate(512);
        assert!(est > 0.0);
        assert_eq!(memo.snapshot().replays, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_line_parser_rejects_garbage() {
        assert!(parse_cache_line("").is_none());
        assert!(parse_cache_line("1 2 3 4 1 10 5").is_none(), "short line");
        assert!(
            parse_cache_line("1 2 3 4 1 10 5 0 extra").is_none(),
            "trailing fields"
        );
        assert!(parse_cache_line("1 2 3 4 7 10 5 0").is_none(), "bad bool");
        assert!(
            parse_cache_line("1 2 3 4 1 10 5 7ff0000000000000").is_none(),
            "non-finite cycles"
        );
        assert!(
            parse_cache_line("1 2 3 4 1 10 5 bff0000000000000").is_none(),
            "negative cycles"
        );
        assert!(
            parse_cache_line("1 2 3 4 1 10 5 0000000000000000").is_none(),
            "zero cycles"
        );
        let (key, cycles) = parse_cache_line("8 16 256 32 1 00000000000000ff 512 4045000000000000")
            .expect("well-formed line");
        assert_eq!(key, (8, 16, 256, 32, true, 0xff, 512));
        assert_eq!(cycles, 42.0);
    }

    #[test]
    fn drift_report_flags_violations() {
        let a = analytic();
        let t = trace();
        let report = calibration_drift(&a, &t, &[1, 64, 512, 4096], 0.0);
        assert_eq!(report.points.len(), 4);
        // Zero tolerance: everything that differs at all is a violation.
        assert!(!report.violations().is_empty());
        assert!(report.max_rel_err() > 0.0);
        let loose = calibration_drift(&a, &t, &[512, 4096], 10.0);
        assert!(loose.violations().is_empty());
        // Short contexts drift more than long ones (full-tile rounding).
        let short = report.points[0].rel_err();
        let long = report.points[3].rel_err();
        assert!(
            short > long,
            "short-context drift {short:.2} should exceed long-context {long:.2}"
        );
    }
}
