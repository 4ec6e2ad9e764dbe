//! Declarative scenario generators: the traffic shapes behind the eval
//! harness's suite specs.
//!
//! The streaming arrivals of [`crate::batch`] model one regime — a
//! stationary Poisson process — and the KV-pressure trace of
//! [`crate::pressure`] one more. Production serving traffic is none of
//! those for long: it is *bursty* (request fronts arriving together),
//! *diurnal* (rates that swing with the clock), and *heavy-tailed*
//! (quiet stretches broken by deep backlogs). This module gives every one
//! of those shapes a name and a seeded generator so an eval suite can say
//! `process = "bursty"` in TOML and get the same trace on every machine:
//!
//! * [`ArrivalProcess`] — Poisson, bursty (compound-Poisson burst
//!   fronts), diurnal (sinusoidal-rate NHPP via thinning), and
//!   heavy-tailed (Pareto inter-arrival gaps), all normalized so the
//!   long-run mean rate equals the spec'd `rate` regardless of shape;
//! * [`LengthDistribution`] — dataset-backed, log-normal, uniform, or
//!   fixed token lengths;
//! * [`TenantClass`] / [`TenantMix`] — weighted multi-tenant traffic
//!   classes, each with its own length distributions;
//! * [`ScenarioWorkload::generate`] — the one-call entry point the eval
//!   runner drives: exactly `requests` arrival-sorted
//!   [`GeneratedRequest`]s.

use rand::{Rng, RngExt};

use neupims_types::{Cycle, SimError};

use crate::batch::request_buffer;
use crate::dataset::{sample_lognormal, Dataset, MAX_LEN};

/// An arrival process generating request timestamps at a target long-run
/// mean rate, in requests per million cycles (= kilo-requests/s at 1 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson: i.i.d. exponential inter-arrival gaps.
    Poisson {
        /// Mean arrival rate, requests per Mcycle.
        rate: f64,
    },
    /// Compound Poisson: bursts of `burst_size` requests arrive together
    /// at Poisson-spaced fronts; the front rate is `rate / burst_size`,
    /// so the long-run request rate stays `rate`.
    Bursty {
        /// Mean arrival rate, requests per Mcycle.
        rate: f64,
        /// Requests per burst front (the last burst is truncated so the
        /// generated trace conserves the requested count exactly).
        burst_size: usize,
    },
    /// Non-homogeneous Poisson with a sinusoidal rate —
    /// `λ(t) = rate · (1 + amplitude · sin(2πt / period))` — sampled by
    /// Lewis–Shedler thinning, the standard NHPP construction.
    Diurnal {
        /// Mean arrival rate, requests per Mcycle.
        rate: f64,
        /// Relative swing of the rate, in `[0, 1)`: 0 is Poisson, 0.9
        /// swings between 0.1x and 1.9x the mean.
        amplitude: f64,
        /// Period of one "day", in cycles.
        period: Cycle,
    },
    /// Renewal process with Pareto(α) inter-arrival gaps scaled to a mean
    /// of `1/rate`: occasional very long gaps followed by backlog, the
    /// canonical heavy-tailed shape (α must exceed 1 for the mean to
    /// exist; α ≤ 2 leaves the gap variance infinite).
    HeavyTailed {
        /// Mean arrival rate, requests per Mcycle.
        rate: f64,
        /// Pareto tail index, > 1. Smaller is heavier; 1.5 is a typical
        /// serving-trace fit.
        alpha: f64,
    },
}

impl ArrivalProcess {
    /// The process's long-run mean rate, requests per Mcycle.
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate }
            | ArrivalProcess::Bursty { rate, .. }
            | ArrivalProcess::Diurnal { rate, .. }
            | ArrivalProcess::HeavyTailed { rate, .. } => rate,
        }
    }

    /// Canonical name, as written in scenario TOML.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::HeavyTailed { .. } => "heavy-tailed",
        }
    }
}

/// Samples one exponential gap with the given mean.
fn exp_gap<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// Samples exactly `n` arrival timestamps from `process`, sorted
/// ascending. Every process shape conserves the request count: a bursty
/// trace truncates its final burst rather than overshooting.
///
/// # Panics
///
/// Panics if the process rate is not positive, a bursty `burst_size` is
/// zero, a diurnal `amplitude` is outside `[0, 1)` or `period` is zero,
/// or a heavy-tailed `alpha` is not greater than 1.
///
/// # Errors
///
/// Returns the [`request_buffer`] error when `n` arrivals cannot be
/// stored.
pub fn arrival_times<R: Rng + ?Sized>(
    rng: &mut R,
    process: &ArrivalProcess,
    n: usize,
) -> Result<Vec<Cycle>, SimError> {
    let rate = process.rate();
    assert!(rate > 0.0, "arrival rate must be positive");
    let mean_gap = 1.0e6 / rate;
    let mut out = request_buffer(n)?;
    match *process {
        ArrivalProcess::Poisson { .. } => {
            let mut t = 0.0f64;
            for _ in 0..n {
                t += exp_gap(rng, mean_gap);
                out.push(t as Cycle);
            }
        }
        ArrivalProcess::Bursty { burst_size, .. } => {
            assert!(burst_size > 0, "burst_size must be positive");
            let front_gap = mean_gap * burst_size as f64;
            let mut t = 0.0f64;
            while out.len() < n {
                t += exp_gap(rng, front_gap);
                let take = burst_size.min(n - out.len());
                for _ in 0..take {
                    out.push(t as Cycle);
                }
            }
        }
        ArrivalProcess::Diurnal {
            rate,
            amplitude,
            period,
        } => {
            assert!(
                (0.0..1.0).contains(&amplitude),
                "diurnal amplitude must be in [0, 1)"
            );
            assert!(period > 0, "diurnal period must be positive");
            // Thinning against the envelope rate λ* = rate · (1 + a).
            let lambda_max = rate * (1.0 + amplitude);
            let envelope_gap = 1.0e6 / lambda_max;
            let mut t = 0.0f64;
            while out.len() < n {
                t += exp_gap(rng, envelope_gap);
                let phase = 2.0 * std::f64::consts::PI * (t / period as f64);
                let lambda_t = rate * (1.0 + amplitude * phase.sin());
                let keep: f64 = rng.random();
                if keep * lambda_max <= lambda_t {
                    out.push(t as Cycle);
                }
            }
        }
        ArrivalProcess::HeavyTailed { alpha, .. } => {
            assert!(alpha > 1.0, "heavy-tailed alpha must exceed 1");
            // Pareto with scale x_m chosen so E[gap] = x_m·α/(α−1) equals
            // the target mean gap.
            let x_m = mean_gap * (alpha - 1.0) / alpha;
            let mut t = 0.0f64;
            for _ in 0..n {
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                t += x_m / u.powf(1.0 / alpha);
                out.push(t as Cycle);
            }
        }
    }
    Ok(out)
}

/// A token-length distribution for prompts or generations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthDistribution {
    /// Lengths drawn from a published dataset's distribution
    /// ([`Dataset::sample_input`] / [`Dataset::sample_output`] shapes).
    DatasetInput(Dataset),
    /// Generation lengths of a published dataset.
    DatasetOutput(Dataset),
    /// Log-normal with the given *mean* (not median) and shape `sigma`,
    /// the canonical fit for conversational length data.
    LogNormal {
        /// Target mean length in tokens.
        mean: f64,
        /// Log-space standard deviation (larger = heavier tail).
        sigma: f64,
    },
    /// Uniform over `[lo, hi]` tokens.
    Uniform {
        /// Inclusive lower bound, tokens.
        lo: u32,
        /// Inclusive upper bound, tokens.
        hi: u32,
    },
    /// Every request gets exactly this many tokens.
    Fixed(u32),
}

impl LengthDistribution {
    /// Samples one length in tokens (clamped to `[1, MAX_LEN]`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            LengthDistribution::DatasetInput(d) => d.sample_input(rng),
            LengthDistribution::DatasetOutput(d) => d.sample_output(rng),
            LengthDistribution::LogNormal { mean, sigma } => sample_lognormal(rng, mean, sigma),
            LengthDistribution::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform length bounds out of order");
                rng.random_range(lo.max(1)..hi.max(1) + 1).min(MAX_LEN)
            }
            LengthDistribution::Fixed(len) => len.clamp(1, MAX_LEN),
        }
    }

    /// The distribution's mean length in tokens (exact for every shape).
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDistribution::DatasetInput(d) => d.mean_input(),
            LengthDistribution::DatasetOutput(d) => d.mean_output(),
            LengthDistribution::LogNormal { mean, .. } => mean,
            LengthDistribution::Uniform { lo, hi } => (lo as f64 + hi as f64) / 2.0,
            LengthDistribution::Fixed(len) => len as f64,
        }
    }
}

/// One traffic class of a multi-tenant workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Tenant label (surfaced in reports).
    pub name: String,
    /// Relative share of the request stream (weights need not sum to 1).
    pub weight: f64,
    /// Prompt-length distribution.
    pub input: LengthDistribution,
    /// Generation-length distribution.
    pub output: LengthDistribution,
}

/// A weighted mix of tenant classes.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    classes: Vec<TenantClass>,
    total_weight: f64,
}

impl TenantMix {
    /// Builds a mix from its classes.
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty or any weight is not positive.
    pub fn new(classes: Vec<TenantClass>) -> Self {
        assert!(!classes.is_empty(), "tenant mix needs at least one class");
        let total_weight = classes
            .iter()
            .map(|c| {
                assert!(c.weight > 0.0, "tenant weight must be positive: {}", c.name);
                c.weight
            })
            .sum();
        Self {
            classes,
            total_weight,
        }
    }

    /// A single-tenant mix drawing both lengths from `dataset`.
    pub fn single(dataset: Dataset) -> Self {
        Self::new(vec![TenantClass {
            name: dataset.name().to_owned(),
            weight: 1.0,
            input: LengthDistribution::DatasetInput(dataset),
            output: LengthDistribution::DatasetOutput(dataset),
        }])
    }

    /// The tenant classes in declaration order.
    pub fn classes(&self) -> &[TenantClass] {
        &self.classes
    }

    /// Samples a tenant index proportionally to the weights.
    fn sample_tenant<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut x: f64 = rng.random::<f64>() * self.total_weight;
        for (i, c) in self.classes.iter().enumerate() {
            x -= c.weight;
            if x < 0.0 {
                return i;
            }
        }
        self.classes.len() - 1
    }
}

/// One generated request of a scenario trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedRequest {
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Target generation length in tokens.
    pub output_len: u32,
    /// Arrival time at the serving frontend.
    pub arrival: Cycle,
    /// Index of the tenant class that produced the request.
    pub tenant: usize,
}

/// A fully specified workload scenario: an arrival process, a tenant mix,
/// and a request count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioWorkload {
    /// The arrival process shaping request timestamps.
    pub arrival: ArrivalProcess,
    /// The tenant classes sharing the stream.
    pub tenants: TenantMix,
    /// Total requests to generate.
    pub requests: usize,
}

impl ScenarioWorkload {
    /// Generates the trace: exactly `self.requests` arrival-sorted
    /// requests, lengths drawn per-tenant.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_generate`] returns an error; use that for
    /// a request count from outside the program.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<GeneratedRequest> {
        self.try_generate(rng)
            .expect("the request count fits in memory")
    }

    /// [`Self::generate`], with the trace's buffers reserved fallibly.
    ///
    /// # Errors
    ///
    /// Returns the [`request_buffer`] error when `self.requests` requests
    /// cannot be stored.
    pub fn try_generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<Vec<GeneratedRequest>, SimError> {
        let arrivals = arrival_times(rng, &self.arrival, self.requests)?;
        let mut out = request_buffer(self.requests)?;
        out.extend(arrivals.into_iter().map(|arrival| {
            let tenant = self.tenants.sample_tenant(rng);
            let class = &self.tenants.classes()[tenant];
            GeneratedRequest {
                input_len: class.input.sample(rng),
                output_len: class.output.sample(rng),
                arrival,
                tenant,
            }
        }));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_gaps(times: &[Cycle]) -> f64 {
        assert!(times.len() > 1);
        (times[times.len() - 1] - times[0]) as f64 / (times.len() - 1) as f64
    }

    #[test]
    fn every_process_conserves_count_and_order() {
        let processes = [
            ArrivalProcess::Poisson { rate: 5.0 },
            ArrivalProcess::Bursty {
                rate: 5.0,
                burst_size: 7,
            },
            ArrivalProcess::Diurnal {
                rate: 5.0,
                amplitude: 0.8,
                period: 3_000_000,
            },
            ArrivalProcess::HeavyTailed {
                rate: 5.0,
                alpha: 1.5,
            },
        ];
        for p in &processes {
            let mut rng = StdRng::seed_from_u64(13);
            let times = arrival_times(&mut rng, p, 501).unwrap();
            assert_eq!(times.len(), 501, "{}", p.name());
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "{} unsorted",
                p.name()
            );
        }
    }

    #[test]
    fn poisson_yields_exactly_n_sorted_arrivals() {
        let mut rng = StdRng::seed_from_u64(4);
        let poisson = ArrivalProcess::Poisson { rate: 10.0 };
        let arr = arrival_times(&mut rng, &poisson, 200).unwrap();
        assert_eq!(arr.len(), 200);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap ~100k cycles: 200 arrivals land around 20 Mcycles.
        let span = *arr.last().unwrap() as f64;
        assert!((5e6..60e6).contains(&span), "{span}");
        // An unreservable count is an error naming it, not an abort.
        let err = arrival_times(&mut rng, &poisson, usize::MAX / 4).unwrap_err();
        assert!(err.to_string().contains("requests"), "{err}");
    }

    #[test]
    fn bursty_truncates_final_burst_exactly() {
        // 10 requests in bursts of 4: fronts of 4, 4, then 2.
        let p = ArrivalProcess::Bursty {
            rate: 2.0,
            burst_size: 4,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let times = arrival_times(&mut rng, &p, 10).unwrap();
        assert_eq!(times.len(), 10);
        let mut fronts: Vec<Cycle> = times.clone();
        fronts.dedup();
        assert_eq!(fronts.len(), 3, "{times:?}");
        assert_eq!(times.iter().filter(|&&t| t == fronts[2]).count(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = ArrivalProcess::HeavyTailed {
            rate: 3.0,
            alpha: 1.4,
        };
        let a = arrival_times(&mut StdRng::seed_from_u64(9), &p, 64).unwrap();
        let b = arrival_times(&mut StdRng::seed_from_u64(9), &p, 64).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tenant_mix_follows_weights() {
        let mix = TenantMix::new(vec![
            TenantClass {
                name: "chat".into(),
                weight: 3.0,
                input: LengthDistribution::Fixed(64),
                output: LengthDistribution::Fixed(128),
            },
            TenantClass {
                name: "batch".into(),
                weight: 1.0,
                input: LengthDistribution::Fixed(512),
                output: LengthDistribution::Fixed(32),
            },
        ]);
        let mut rng = StdRng::seed_from_u64(21);
        let n = 8000;
        let chat = (0..n).filter(|_| mix.sample_tenant(&mut rng) == 0).count();
        let share = chat as f64 / n as f64;
        assert!((share - 0.75).abs() < 0.03, "chat share {share}");
    }

    #[test]
    fn generate_assigns_tenant_lengths() {
        let wl = ScenarioWorkload {
            arrival: ArrivalProcess::Poisson { rate: 4.0 },
            tenants: TenantMix::new(vec![
                TenantClass {
                    name: "a".into(),
                    weight: 1.0,
                    input: LengthDistribution::Fixed(100),
                    output: LengthDistribution::Fixed(10),
                },
                TenantClass {
                    name: "b".into(),
                    weight: 1.0,
                    input: LengthDistribution::Fixed(200),
                    output: LengthDistribution::Fixed(20),
                },
            ]),
            requests: 300,
        };
        let trace = wl.generate(&mut StdRng::seed_from_u64(2));
        assert_eq!(trace.len(), 300);
        for r in &trace {
            match r.tenant {
                0 => assert_eq!((r.input_len, r.output_len), (100, 10)),
                1 => assert_eq!((r.input_len, r.output_len), (200, 20)),
                t => panic!("unknown tenant {t}"),
            }
        }
        assert!(trace.iter().any(|r| r.tenant == 0));
        assert!(trace.iter().any(|r| r.tenant == 1));
    }

    #[test]
    fn lognormal_mean_parameterization_holds() {
        let d = LengthDistribution::LogNormal {
            mean: 300.0,
            sigma: 0.8,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mean = (0..30_000).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / 30_000.0;
        assert!((mean - 300.0).abs() < 15.0, "{mean}");
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn pareto_without_mean_is_rejected() {
        let p = ArrivalProcess::HeavyTailed {
            rate: 1.0,
            alpha: 1.0,
        };
        let _ = arrival_times(&mut StdRng::seed_from_u64(0), &p, 4);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let p = ArrivalProcess::Poisson { rate: 0.0 };
        let _ = arrival_times(&mut StdRng::seed_from_u64(0), &p, 100);
    }

    // ------------------------------------------------------ property tests

    use proptest::prelude::*;

    proptest! {
        /// Empirical mean inter-arrival gap of every process matches the
        /// spec'd rate within 20% at 2000 samples.
        #[test]
        fn arrival_rate_is_honored(seed in 0u64..1000, rate in 1.0f64..20.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shapes = [
                ArrivalProcess::Poisson { rate },
                ArrivalProcess::Bursty { rate, burst_size: 5 },
                ArrivalProcess::Diurnal { rate, amplitude: 0.6, period: 2_000_000 },
                ArrivalProcess::HeavyTailed { rate, alpha: 2.5 },
            ];
            for p in &shapes {
                let times = arrival_times(&mut rng, p, 2000).unwrap();
                let gap = mean_gaps(&times);
                let want = 1.0e6 / rate;
                prop_assert!(
                    (gap - want).abs() / want < 0.2,
                    "{}: gap {gap:.0} want {want:.0}", p.name()
                );
            }
        }

        /// Bursty schedules conserve the request count for any
        /// (count, burst size) combination.
        #[test]
        fn burst_schedule_conserves_requests(n in 1usize..400, burst in 1usize..32) {
            let p = ArrivalProcess::Bursty { rate: 4.0, burst_size: burst };
            let mut rng = StdRng::seed_from_u64(n as u64 ^ (burst as u64) << 32);
            let times = arrival_times(&mut rng, &p, n).unwrap();
            prop_assert_eq!(times.len(), n);
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }

        /// Log-normal and uniform length distributions land their
        /// empirical means within tolerance and respect hard bounds.
        #[test]
        fn length_distribution_means_hold(seed in 0u64..1000, mean in 20.0f64..500.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ln = LengthDistribution::LogNormal { mean, sigma: 0.7 };
            let got = (0..4000).map(|_| ln.sample(&mut rng) as f64).sum::<f64>() / 4000.0;
            prop_assert!((got - mean).abs() / mean < 0.15, "lognormal mean {got} want {mean}");

            let (lo, hi) = (mean as u32, mean as u32 * 2);
            let uni = LengthDistribution::Uniform { lo, hi };
            for _ in 0..200 {
                let x = uni.sample(&mut rng);
                prop_assert!(x >= lo && x <= hi);
            }
        }

        /// The heavy-tailed process has a heavier max/mean gap ratio than
        /// Poisson at the same rate — the tail is the point.
        #[test]
        fn heavy_tail_is_heavier_than_poisson(seed in 0u64..200) {
            let rate = 5.0;
            let gaps = |times: &[Cycle]| -> Vec<f64> {
                times.windows(2).map(|w| (w[1] - w[0]) as f64).collect()
            };
            let tail_ratio = |g: &[f64]| {
                let mean = g.iter().sum::<f64>() / g.len() as f64;
                let max = g.iter().cloned().fold(0.0, f64::max);
                max / mean.max(1e-9)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let pois = arrival_times(&mut rng, &ArrivalProcess::Poisson { rate }, 3000).unwrap();
            let heavy = arrival_times(
                &mut rng,
                &ArrivalProcess::HeavyTailed { rate, alpha: 1.3 },
                3000,
            )
            .unwrap();
            prop_assert!(
                tail_ratio(&gaps(&heavy)) > tail_ratio(&gaps(&pois)),
                "heavy tail must dominate"
            );
        }
    }
}
