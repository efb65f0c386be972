//! Categorical action sampling, greedy decoding, and the quantile
//! action-thresholding of the paper's risk-seeking evaluation (§3.4).

use std::borrow::Cow;

use rand::Rng;

/// A categorical distribution over `n` discrete actions, given as
/// (possibly unnormalized, but non-negative) probabilities.
#[derive(Debug, Clone)]
pub struct Categorical<'a> {
    probs: Cow<'a, [f64]>,
    total: f64,
}

impl<'a> Categorical<'a> {
    /// Wraps a probability vector. Negative (and NaN) entries are clamped
    /// to zero, in a copy; a slice with none — every softmax output — is
    /// borrowed, so a sampled decision allocates nothing. Returns `None`
    /// when no positive mass exists.
    pub fn new(probs: &'a [f64]) -> Option<Self> {
        let probs: Cow<'a, [f64]> = if probs.iter().all(|&p| p >= 0.0) {
            Cow::Borrowed(probs)
        } else {
            Cow::Owned(probs.iter().map(|&p| p.max(0.0)).collect())
        };
        let total: f64 = probs.iter().sum();
        // NaN totals fall through to the finiteness check.
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        Some(Categorical { probs, total })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no categories.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Normalized probability of category `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i] / self.total
    }

    /// Log probability of category `i` (−inf mass floors at a tiny value
    /// to keep downstream arithmetic finite).
    pub fn log_prob(&self, i: usize) -> f64 {
        self.prob(i).max(1e-300).ln()
    }

    /// Shannon entropy in nats.
    pub fn entropy(&self) -> f64 {
        self.probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| {
                let q = p / self.total;
                -q * q.ln()
            })
            .sum()
    }

    /// Samples a category.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut roll = rng.gen::<f64>() * self.total;
        for (i, &p) in self.probs.iter().enumerate() {
            roll -= p;
            if roll <= 0.0 && p > 0.0 {
                return i;
            }
        }
        // Floating-point tail: return the last positive-mass category.
        self.probs.iter().rposition(|&p| p > 0.0).expect("total > 0 implies a positive entry")
    }

    /// The highest-probability category (greedy decoding).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_p = f64::NEG_INFINITY;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > best_p {
                best_p = p;
                best = i;
            }
        }
        best
    }
}

/// Quantile thresholding (§3.4): returns a boolean keep-mask over the
/// probability vector, keeping entries whose probability is at or above
/// the `quantile`-quantile of the *positive* entries. At least the argmax
/// always survives, so the distribution never becomes empty.
///
/// The paper computes a threshold from the quantile of all VM (or PM)
/// probabilities at each step and masks everything below it, preventing
/// the sampled trajectories from taking low-probability (likely
/// sub-optimal) actions.
pub fn quantile_keep_mask(probs: &[f64], quantile: f64) -> Vec<bool> {
    assert!((0.0..=1.0).contains(&quantile), "quantile must be in [0,1]");
    let mut positive: Vec<f64> = probs.iter().copied().filter(|&p| p > 0.0).collect();
    if positive.is_empty() {
        return vec![false; probs.len()];
    }
    positive.sort_by(|a, b| a.partial_cmp(b).expect("finite probabilities"));
    let idx = ((positive.len() as f64 - 1.0) * quantile).floor() as usize;
    let threshold = positive[idx.min(positive.len() - 1)];
    let mut mask: Vec<bool> = probs.iter().map(|&p| p >= threshold && p > 0.0).collect();
    if !mask.iter().any(|&b| b) {
        // Degenerate ties: keep the argmax.
        let mut best = 0;
        for (i, &p) in probs.iter().enumerate() {
            if p > probs[best] {
                best = i;
            }
        }
        mask[best] = true;
    }
    mask
}

/// Applies a keep-mask to probabilities (zeroing dropped entries).
pub fn apply_keep_mask(probs: &[f64], mask: &[bool]) -> Vec<f64> {
    probs.iter().zip(mask).map(|(&p, &keep)| if keep { p } else { 0.0 }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_matches_distribution() {
        let dist = Categorical::new(&[0.1, 0.7, 0.2]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[dist.sample(&mut rng)] += 1;
        }
        let freq1 = counts[1] as f64 / n as f64;
        assert!((freq1 - 0.7).abs() < 0.02, "freq {freq1}");
        assert_eq!(dist.argmax(), 1);
    }

    #[test]
    fn zero_mass_rejected() {
        assert!(Categorical::new(&[0.0, 0.0]).is_none());
        assert!(Categorical::new(&[]).is_none());
        assert!(Categorical::new(&[-1.0, 0.0]).is_none());
    }

    #[test]
    fn only_clamping_copies() {
        let probs = [0.25, 0.0, 0.75];
        assert!(matches!(Categorical::new(&probs).unwrap().probs, Cow::Borrowed(_)));
        let d = Categorical::new(&[f64::NAN, 0.5, -0.5]).unwrap();
        assert!(matches!(d.probs, Cow::Owned(_)));
        assert_eq!((d.prob(0), d.prob(1), d.prob(2)), (0.0, 1.0, 0.0));
    }

    #[test]
    fn negative_probs_clamped() {
        let d = Categorical::new(&[-0.5, 1.0]).unwrap();
        assert_eq!(d.prob(0), 0.0);
        assert_eq!(d.prob(1), 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn entropy_uniform_is_ln_n() {
        let d = Categorical::new(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!((d.entropy() - 4.0f64.ln()).abs() < 1e-12);
        let det = Categorical::new(&[0.0, 1.0]).unwrap();
        assert!(det.entropy().abs() < 1e-12);
    }

    #[test]
    fn log_prob_consistent() {
        let d = Categorical::new(&[2.0, 6.0]).unwrap();
        assert!((d.log_prob(1) - 0.75f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn quantile_mask_keeps_top_entries() {
        let probs = vec![0.001, 0.5, 0.3, 0.15, 0.049];
        let mask = quantile_keep_mask(&probs, 0.5);
        // Median of positives = 0.15; keep >= 0.15.
        assert_eq!(mask, vec![false, true, true, true, false]);
    }

    #[test]
    fn quantile_mask_never_empty() {
        let probs = vec![0.25, 0.25, 0.25, 0.25];
        let mask = quantile_keep_mask(&probs, 1.0);
        assert!(mask.iter().any(|&b| b));
        let sparse = vec![0.0, 1.0, 0.0];
        let mask = quantile_keep_mask(&sparse, 0.99);
        assert_eq!(mask, vec![false, true, false]);
    }

    #[test]
    fn quantile_zero_keeps_all_positive() {
        let probs = vec![0.6, 0.0, 0.4];
        let mask = quantile_keep_mask(&probs, 0.0);
        assert_eq!(mask, vec![true, false, true]);
        let filtered = apply_keep_mask(&probs, &mask);
        assert_eq!(filtered, vec![0.6, 0.0, 0.4]);
    }
}
