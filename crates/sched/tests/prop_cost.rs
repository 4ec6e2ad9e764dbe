//! Property tests on the MHA cost models: analytic/trace agreement across
//! the Table 3 model configurations, the regression pin that the
//! analytic model reproduces the legacy estimator cycle-for-cycle, the
//! memo bucket rule at every bank count, the batch estimate against
//! per-request ones, the replay memo's counting, and its tolerance of
//! hostile cache files.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use neupims_kvcache::KvGeometry;
use neupims_pim::calibrate;
use neupims_sched::{
    calibration_drift, MhaCostModel, MhaLatencyEstimator, TraceDrivenCostModel, TraceMemo,
    DEFAULT_DRIFT_TOLERANCE,
};
use neupims_types::{LlmConfig, NeuPimsConfig};

/// A trace-driven model of GPT3-7B's layout with `banks` banks per
/// channel row, on its own memo.
fn model_with_banks(banks: u64) -> TraceDrivenCostModel {
    let cfg = NeuPimsConfig::table2();
    let geo = KvGeometry {
        banks,
        ..KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &cfg.mem, 4)
    };
    TraceDrivenCostModel::new(&cfg, geo, true)
}

/// The memo bucket is a rounding rule at every bank count, powers of two
/// or not: at least the context, monotone, and idempotent. (With 48 banks
/// a rule that rounded to whole bank rows below the octave region put
/// 1010 tokens in bucket 1056, above 1024's bucket 1024.)
#[test]
fn memo_buckets_round_up_monotonically_at_every_bank_count() {
    let mut seqs: Vec<u64> = (0..5_000).collect();
    for shift in 13..62 {
        let base = 1u64 << shift;
        seqs.extend([base - 1, base, base + 1, base + base / 32, base + base / 2]);
    }
    for banks in 1..=64 {
        let model = model_with_banks(banks);
        let mut last = 0;
        for &seq in &seqs {
            let bucket = model.bucket(seq);
            assert!(bucket >= seq, "banks {banks}: seq {seq} -> bucket {bucket}");
            assert!(
                bucket >= last,
                "banks {banks}: seq {seq} -> bucket {bucket} below an earlier {last}"
            );
            assert_eq!(
                model.bucket(bucket),
                bucket,
                "banks {banks}: bucket {bucket}"
            );
            last = bucket;
        }
    }
}

/// `warm_replay` walks the buckets of a span and replays exactly the ones
/// per-request lookups would: afterwards no context of the span replays,
/// and a fresh memo looking up every context replays the same number.
/// Covers bank counts that are not powers of two (24 and 20 straddle the
/// first octave between two bank rows).
#[test]
fn warm_replay_fills_exactly_the_slots_lookups_touch() {
    let (lo, hi) = (300, 1_100);
    for banks in [16, 20, 24, 32] {
        let warmed = model_with_banks(banks);
        let replayed = warmed.warm_replay(&[(lo, hi)], 2);
        assert_eq!(warmed.snapshot().replays, replayed, "banks {banks}");
        for seq in lo..=hi {
            warmed.estimate(seq);
        }
        assert_eq!(
            warmed.snapshot().replays,
            replayed,
            "banks {banks}: a warmed span replays nothing more"
        );
        let cold = model_with_banks(banks);
        for seq in lo..=hi {
            cold.estimate(seq);
        }
        assert_eq!(cold.snapshot().replays, replayed, "banks {banks}");
    }
}

/// One (analytic, trace) model pair per Table 3 model, built once so the
/// trace replay memo persists across proptest cases.
fn model_pairs() -> &'static Vec<(String, MhaLatencyEstimator, TraceDrivenCostModel)> {
    static PAIRS: OnceLock<Vec<(String, MhaLatencyEstimator, TraceDrivenCostModel)>> =
        OnceLock::new();
    PAIRS.get_or_init(|| {
        let cfg = NeuPimsConfig::table2();
        let cal = calibrate(&cfg).unwrap();
        LlmConfig::table3()
            .into_iter()
            .map(|model| {
                let geo = KvGeometry::with_tp(&model, &cfg.mem, model.parallelism.tp);
                let analytic = MhaLatencyEstimator::new(geo, cal.l_tile, cal.l_gwrite);
                let trace = TraceDrivenCostModel::new(&cfg, geo, true);
                (model.name.clone(), analytic, trace)
            })
            .collect()
    })
}

/// Two model families that can share one memo: different geometries and
/// different command styles.
fn family_models(memo: &TraceMemo) -> [TraceDrivenCostModel; 2] {
    let cfg = NeuPimsConfig::table2();
    let geo = |model: &LlmConfig| KvGeometry::with_tp(model, &cfg.mem, model.parallelism.tp);
    [
        TraceDrivenCostModel::with_memo(&cfg, geo(&LlmConfig::gpt3_7b()), true, memo.clone()),
        TraceDrivenCostModel::with_memo(&cfg, geo(&LlmConfig::gpt3_13b()), false, memo.clone()),
    ]
}

/// The cycles of one family's bucket as a cold replay prices them: a
/// model on a memo of its own meets every bucket cold, so its first
/// estimate of a bucket is a replay. Cached across cases.
fn cold_cycles(family: usize, bucket: u64) -> u64 {
    static SEEN: OnceLock<Mutex<HashMap<(usize, u64), u64>>> = OnceLock::new();
    let seen = SEEN.get_or_init(Default::default);
    if let Some(&bits) = seen.lock().unwrap().get(&(family, bucket)) {
        return bits;
    }
    let bits = family_models(&TraceMemo::new())[family]
        .estimate(bucket)
        .to_bits();
    seen.lock().unwrap().insert((family, bucket), bits);
    bits
}

/// What the memo must count for a stream of `(family, seq)` lookups: the
/// first touch of a bucket is a disk hit when `on_disk` holds it and a
/// replay otherwise; every later touch is a memo hit.
#[derive(Default)]
struct Counts {
    seen: HashSet<(usize, u64)>,
    on_disk: HashSet<(usize, u64)>,
    memo_hits: u64,
    replays: u64,
    disk_hits: u64,
}

impl Counts {
    fn touch(&mut self, family: usize, bucket: u64) {
        if !self.seen.insert((family, bucket)) {
            self.memo_hits += 1;
        } else if self.on_disk.contains(&(family, bucket)) {
            self.disk_hits += 1;
        } else {
            self.replays += 1;
        }
    }

    fn triple(&self) -> (u64, u64, u64) {
        (self.memo_hits, self.replays, self.disk_hits)
    }
}

/// Runs `stream` through `models`, checking every estimate against the
/// cold replay's cycles and recording what the memo must count.
fn run_stream(models: &[TraceDrivenCostModel; 2], stream: &[(usize, u64)], counts: &mut Counts) {
    for &(family, seq) in stream {
        let model = &models[family];
        let bucket = model.bucket(seq);
        assert_eq!(
            model.estimate(seq).to_bits(),
            cold_cycles(family, bucket),
            "family {family} seq {seq} (bucket {bucket})"
        );
        counts.touch(family, bucket);
    }
}

fn counted(memo: &TraceMemo) -> (u64, u64, u64) {
    let snap = memo.snapshot();
    (snap.memo_hits, snap.replays, snap.disk_hits)
}

/// `(family, context)` lookups: repeats are common, and contexts cover
/// the bank-row buckets and the first octaves of the ~6% region.
fn lookup_stream() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec(
        (0usize..2, prop_oneof![0u64..1_100, 1_000u64..3_000]),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The bucket table serves the cold replay's bits and counts each
    /// bucket's first touch a replay and every later touch a memo hit: on
    /// a fresh memo shared by two families, on the same memo warm, and
    /// for a model built on the warm memo afterwards.
    #[test]
    fn bucket_table_matches_the_sharded_map(stream in lookup_stream()) {
        let memo = TraceMemo::new();
        let models = family_models(&memo);
        let mut counts = Counts::default();
        run_stream(&models, &stream, &mut counts);
        prop_assert_eq!(counted(&memo), counts.triple(), "fresh memo");
        prop_assert_eq!(memo.entries(), counts.seen.len());

        run_stream(&models, &stream, &mut counts);
        prop_assert_eq!(counted(&memo), counts.triple(), "warm memo");

        run_stream(&family_models(&memo), &stream, &mut counts);
        prop_assert_eq!(counted(&memo), counts.triple(), "model built on a warm memo");
        prop_assert_eq!(counts.replays as usize, counts.seen.len());
    }

    /// On a memo restored from a cache directory, each bucket's first
    /// touch still counts a disk hit (not a memo hit), later touches count
    /// memo hits, and buckets missing from disk replay.
    #[test]
    fn bucket_table_keeps_disk_hits_on_a_restored_memo(
        stream in lookup_stream(),
        split in 0usize..60,
    ) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "neupims-bucket-table-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let first = TraceMemo::with_cache_dir(&dir).unwrap();
        let mut persisted = Counts::default();
        run_stream(&family_models(&first), &stream[..split.min(stream.len())], &mut persisted);

        let restored = TraceMemo::with_cache_dir(&dir).unwrap();
        let models = family_models(&restored);
        let mut counts = Counts {
            on_disk: persisted.seen,
            ..Counts::default()
        };
        run_stream(&models, &stream, &mut counts);
        prop_assert_eq!(counted(&restored), counts.triple(), "first pass");
        run_stream(&models, &stream, &mut counts);
        prop_assert_eq!(counted(&restored), counts.triple(), "second pass");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The context lengths of the hostile-cache property: two bank-row
/// buckets, the bucket where bank rows meet the first octave, and an
/// octave bucket.
const CACHE_SEQS: [u64; 4] = [100, 700, 1_000, 3_000];

/// A replay cache written by a real run of family 0 over [`CACHE_SEQS`]:
/// its file name and its lines, the version tag first.
fn valid_cache() -> &'static (String, Vec<String>) {
    static CACHE: OnceLock<(String, Vec<String>)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("neupims-valid-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let memo = TraceMemo::with_cache_dir(&dir).unwrap();
        for seq in CACHE_SEQS {
            family_models(&memo)[0].estimate(seq);
        }
        let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        let name = file.file_name().into_string().unwrap();
        let text = std::fs::read_to_string(file.path()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (name, text.lines().map(str::to_owned).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A replay-cache file whose lines were kept (edit 0), given arbitrary
    /// cycle bits (1, 2), or replaced by a garbage token (3) or arbitrary
    /// bytes (4) loads without error. Lines whose cycles are not positive
    /// and finite are skipped like garbage, and so is every line of a
    /// file that is not UTF-8: a skipped line's bucket replays, every
    /// other line serves its bucket from disk, and every estimate is
    /// positive and finite.
    #[test]
    fn hostile_cache_lines_are_skipped_and_estimates_stay_positive(
        edits in prop::collection::vec(
            (0u8..5, any::<u64>(), prop::collection::vec(any::<u8>(), 1..12)), 4..5),
    ) {
        static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (name, lines) = valid_cache();
        let mut file = format!("{}\n", lines[0]).into_bytes();
        // Per line: its bucket, its replayed bits, and the bits an intact
        // line serves from disk.
        let mut expected = Vec::new();
        for (line, (op, bits, bytes)) in lines[1..].iter().zip(&edits) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bucket: u64 = fields[6].parse().unwrap();
            let replayed = u64::from_str_radix(fields[7], 16).unwrap();
            let cycles = f64::from_bits(*bits);
            match op {
                0 => {
                    file.extend(line.as_bytes());
                    expected.push((bucket, replayed, Some(replayed)));
                }
                1 | 2 => {
                    file.extend(format!("{} {bits:016x}", fields[..7].join(" ")).as_bytes());
                    let valid = cycles.is_finite() && cycles > 0.0;
                    expected.push((bucket, replayed, valid.then_some(*bits)));
                }
                // One token of printable non-space bytes: never a record.
                3 => {
                    file.extend(bytes.iter().map(|b| b'!' + b % 94));
                    expected.push((bucket, replayed, None));
                }
                // Under 15 bytes cannot hold a record's 8 fields.
                _ => {
                    file.extend(bytes);
                    expected.push((bucket, replayed, None));
                }
            }
            file.push(b'\n');
        }
        if std::str::from_utf8(&file).is_err() {
            expected.iter_mut().for_each(|e| e.2 = None);
        }

        let dir = std::env::temp_dir().join(format!(
            "neupims-hostile-cache-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(name), &file).unwrap();
        let memo = TraceMemo::with_cache_dir(&dir).expect("a hostile cache file is never an error");
        let _ = std::fs::remove_dir_all(&dir);

        let served = expected.iter().filter(|e| e.2.is_some()).count();
        prop_assert_eq!(memo.entries(), served, "only intact lines load");
        let model = &family_models(&memo)[0];
        for &(bucket, replayed, on_disk) in &expected {
            let cycles = model.estimate(bucket);
            prop_assert!(cycles.is_finite() && cycles > 0.0, "bucket {bucket}: {cycles}");
            prop_assert_eq!(cycles.to_bits(), on_disk.unwrap_or(replayed), "bucket {}", bucket);
        }
        let snap = memo.snapshot();
        prop_assert_eq!(snap.disk_hits, served as u64, "intact lines serve from disk");
        prop_assert_eq!(snap.replays, (expected.len() - served) as u64, "skipped lines replay");
    }

    /// Analytic and trace-driven MHA latencies agree within the documented
    /// tolerance across context lengths 1..16k for every Table 3 model —
    /// the acceptance bar of the trace-driven refactor. (Log-uniform seq
    /// sampling so every octave is exercised, not just the long tail.)
    #[test]
    fn trace_agrees_with_analytic_across_models(
        octave in 0u32..14,
        frac in 0.0f64..1.0,
    ) {
        let seq = ((1u64 << octave) as f64 * (1.0 + frac)) as u64;
        prop_assert!((1..=16_384).contains(&seq));
        for (name, analytic, trace) in model_pairs() {
            let ea = analytic.estimate(seq);
            let et = trace.estimate(seq);
            let rel = (et - ea).abs() / ea.max(1.0);
            prop_assert!(
                rel <= DEFAULT_DRIFT_TOLERANCE,
                "{name} seq {seq}: analytic {ea:.0} vs trace {et:.0} (rel {rel:.3})"
            );
        }
    }

    /// Regression pin: the estimator behind `dyn MhaCostModel` reproduces
    /// the legacy `MhaLatencyEstimator` cycle-for-cycle — bitwise-identical
    /// estimates and sums.
    #[test]
    fn analytic_matches_legacy_estimator(
        seqs in prop::collection::vec(0u64..20_000, 1..64),
    ) {
        for (name, est, _) in model_pairs() {
            let dyn_est: &dyn MhaCostModel = est;
            for &seq in &seqs {
                let legacy = est.estimate(seq);
                prop_assert_eq!(dyn_est.estimate(seq).to_bits(), legacy.to_bits(), "{}", name);
            }
            let legacy_sum = est.estimate_sum(&seqs);
            prop_assert_eq!(dyn_est.estimate_sum(&seqs).to_bits(), legacy_sum.to_bits(), "{}", name);
        }
    }

    /// `estimate_into` prices a batch exactly as one `estimate` per
    /// request does, and counts the same replays and memo hits, on a cold
    /// memo and then warm, for both cost models.
    #[test]
    fn batch_estimates_match_per_request_estimates(
        seqs in prop::collection::vec(prop_oneof![0u64..1_200, 1_000u64..4_000], 0..48),
    ) {
        let (batched, single) = (model_with_banks(32), model_with_banks(32));
        let mut out = vec![f64::NAN; 3];
        for pass in ["cold", "warm"] {
            batched.estimate_into(&seqs, &mut out);
            let expect: Vec<u64> = seqs.iter().map(|&s| single.estimate(s).to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(got, expect, "{} pass", pass);
            let (b, s) = (batched.snapshot(), single.snapshot());
            prop_assert_eq!(
                (b.replays, b.memo_hits, b.disk_hits),
                (s.replays, s.memo_hits, s.disk_hits),
                "{} pass", pass
            );
        }
        for (name, analytic, _) in model_pairs() {
            analytic.estimate_into(&seqs, &mut out);
            let expect: Vec<u64> = seqs.iter().map(|&s| analytic.estimate(s).to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(got, expect, "{}", name);
        }
    }

    /// Trace-driven estimates are deterministic and monotone across memo
    /// buckets (a longer context never costs less than a shorter one).
    #[test]
    fn trace_is_deterministic_and_monotone(
        a in 1u64..16_384,
        b in 1u64..16_384,
    ) {
        let (_, _, trace) = &model_pairs()[0];
        let (lo, hi) = (a.min(b), a.max(b));
        let c_lo = trace.estimate(lo);
        let c_hi = trace.estimate(hi);
        prop_assert!(c_lo <= c_hi, "seq {lo} -> {c_lo}, seq {hi} -> {c_hi}");
        prop_assert_eq!(trace.estimate(lo).to_bits(), c_lo.to_bits());
    }
}

/// Concurrency stress: 16 threads hammer one shared [`TraceMemo`] over
/// overlapping bucket ranges — every estimate must be bit-identical to a
/// serial replay, and the single-flight counters must land exactly where
/// a serial run puts them (each distinct bucket simulated once, every
/// other lookup a memo hit), no matter how the threads interleave.
#[test]
fn shared_memo_is_bit_identical_under_16_thread_hammering() {
    const THREADS: usize = 16;
    // Overlapping per-thread ranges over a mixed short/long tail, so
    // cold misses on the *same* bucket race constantly.
    let seqs: Vec<u64> = (0..192u64).map(|i| 1 + (i * 131) % 6_000).collect();
    let cfg = NeuPimsConfig::table2();
    let geo = KvGeometry::with_tp(&LlmConfig::gpt3_7b(), &cfg.mem, 4);

    // Serial reference on a private memo.
    let serial = TraceDrivenCostModel::new(&cfg, geo, true);
    let expected: Vec<u64> = seqs.iter().map(|&s| serial.estimate(s).to_bits()).collect();
    let serial_snap = serial.snapshot();

    let memo = TraceMemo::new();
    let shared = TraceDrivenCostModel::with_memo(&cfg, geo, true, memo.clone());
    let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let model = shared.clone();
                let seqs = &seqs;
                scope.spawn(move || {
                    // Each thread walks a rotated view of the same range,
                    // so every pair of threads overlaps on most buckets.
                    (0..seqs.len())
                        .map(|i| model.estimate(seqs[(i + t * 11) % seqs.len()]).to_bits())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, bits) in results.iter().enumerate() {
        for (i, &b) in bits.iter().enumerate() {
            let seq = seqs[(i + t * 11) % seqs.len()];
            assert_eq!(
                b,
                expected[(i + t * 11) % seqs.len()],
                "thread {t} diverged from serial replay at seq {seq}"
            );
        }
    }
    let snap = memo.snapshot();
    assert_eq!(
        snap.replays, serial_snap.replays,
        "single flight: each distinct bucket simulates exactly once"
    );
    assert_eq!(
        snap.replays + snap.memo_hits,
        (THREADS * seqs.len()) as u64,
        "every estimate is either the one replay or a memo hit"
    );
    assert_eq!(
        snap.stats, serial_snap.stats,
        "merged channel stats match the serial replay exactly"
    );
}

/// Fixed-grid drift sweep: the shipped tolerance holds on every Table 3
/// model at the canonical probe points (the same grid the `drift` CLI
/// command prints).
#[test]
fn drift_grid_within_default_tolerance() {
    let grid = [
        1u64, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    ];
    for (name, analytic, trace) in model_pairs() {
        let report = calibration_drift(analytic, trace, &grid, DEFAULT_DRIFT_TOLERANCE);
        assert!(
            report.violations().is_empty(),
            "{name}: max drift {:.3} exceeds {DEFAULT_DRIFT_TOLERANCE}",
            report.max_rel_err()
        );
    }
}
