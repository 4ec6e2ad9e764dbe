//! Synthetic stand-ins for the ShareGPT and Alpaca length distributions.
//!
//! Only the sequence-length distributions of the datasets enter the
//! simulator, so each dataset is modeled as a pair of log-normal
//! distributions (the canonical shape of conversational length data)
//! matched to the paper's published means: ShareGPT 80/296 tokens
//! (input/output), Alpaca 12/56.

use rand::{Rng, RngExt};

/// Maximum sampled length; matches common LLM serving context caps.
pub const MAX_LEN: u32 = 8192;

/// A dataset's input/output token-length distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// ShareGPT: real conversations scraped from ChatGPT usage; long
    /// prompts and long generations (means 80 in / 296 out).
    ShareGpt,
    /// Alpaca: instruction-following dataset; short prompts and short
    /// responses (means 12 in / 56 out).
    Alpaca,
}

impl Dataset {
    /// Both datasets in paper order.
    pub const ALL: [Dataset; 2] = [Dataset::Alpaca, Dataset::ShareGpt];

    /// Dataset name as printed in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::ShareGpt => "ShareGPT",
            Dataset::Alpaca => "Alpaca",
        }
    }

    /// Mean input (prompt) length in tokens.
    pub fn mean_input(&self) -> f64 {
        match self {
            Dataset::ShareGpt => 80.0,
            Dataset::Alpaca => 12.0,
        }
    }

    /// Mean output (generation) length in tokens.
    pub fn mean_output(&self) -> f64 {
        match self {
            Dataset::ShareGpt => 296.0,
            Dataset::Alpaca => 56.0,
        }
    }

    /// Log-normal shape parameter (heavier tail for ShareGPT).
    fn sigma(&self) -> f64 {
        match self {
            Dataset::ShareGpt => 0.9,
            Dataset::Alpaca => 0.7,
        }
    }

    /// Samples one prompt length.
    pub fn sample_input<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        sample_lognormal(rng, self.mean_input(), self.sigma())
    }

    /// Samples one generation length.
    pub fn sample_output<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        sample_lognormal(rng, self.mean_output(), self.sigma())
    }
}

/// Log-normal sampler with the requested *mean* (not median):
/// `mu = ln(mean) - sigma^2 / 2`, via the Box–Muller transform. The
/// datasets' samplers and the scenario generator's log-normal lengths
/// both draw through it.
///
/// # Panics
///
/// Panics if `mean < 1`.
pub(crate) fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> u32 {
    assert!(mean >= 1.0, "log-normal mean must be at least one token");
    let mu = mean.ln() - sigma * sigma / 2.0;
    // Box–Muller: two uniforms -> one standard normal.
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let x = (mu + sigma * z).exp();
    (x.round() as u32).clamp(1, MAX_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(samples: &[u32]) -> f64 {
        samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn sharegpt_means_match_paper() {
        let mut rng = StdRng::seed_from_u64(7);
        let inputs: Vec<u32> = (0..20_000)
            .map(|_| Dataset::ShareGpt.sample_input(&mut rng))
            .collect();
        let outputs: Vec<u32> = (0..20_000)
            .map(|_| Dataset::ShareGpt.sample_output(&mut rng))
            .collect();
        let mi = mean_of(&inputs);
        let mo = mean_of(&outputs);
        assert!((mi - 80.0).abs() < 8.0, "input mean {mi}");
        assert!((mo - 296.0).abs() < 25.0, "output mean {mo}");
    }

    #[test]
    fn alpaca_means_match_paper() {
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<u32> = (0..20_000)
            .map(|_| Dataset::Alpaca.sample_input(&mut rng))
            .collect();
        let outputs: Vec<u32> = (0..20_000)
            .map(|_| Dataset::Alpaca.sample_output(&mut rng))
            .collect();
        assert!((mean_of(&inputs) - 12.0).abs() < 2.0);
        assert!((mean_of(&outputs) - 56.0).abs() < 6.0);
    }

    #[test]
    fn sharegpt_is_longer_than_alpaca() {
        let mut rng = StdRng::seed_from_u64(3);
        let sg: Vec<u32> = (0..5_000)
            .map(|_| Dataset::ShareGpt.sample_output(&mut rng))
            .collect();
        let al: Vec<u32> = (0..5_000)
            .map(|_| Dataset::Alpaca.sample_output(&mut rng))
            .collect();
        assert!(mean_of(&sg) > 3.0 * mean_of(&al));
    }

    #[test]
    fn samples_are_bounded_and_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = Dataset::ShareGpt.sample_output(&mut rng);
            assert!((1..=MAX_LEN).contains(&x));
        }
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let a: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100)
                .map(|_| Dataset::ShareGpt.sample_input(&mut rng))
                .collect()
        };
        let b: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100)
                .map(|_| Dataset::ShareGpt.sample_input(&mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }
}
