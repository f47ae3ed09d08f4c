//! Deterministic randomness helpers: every generator takes an explicit
//! seed so workloads are reproducible across runs and machines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for workload generation.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A Zipf(α) sampler over ranks `0..n` (rank 0 most popular), via
/// inverse-CDF over precomputed cumulative weights. Used for skewed
/// label popularity and preferential attachment in the web generator.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler for `n` ranks with exponent `alpha`
    /// (`alpha = 0` is uniform).
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf entries are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = rng(42);
        let mut b = rng(42);
        let xa: Vec<u32> = (0..5).map(|_| a.gen()).collect();
        let xb: Vec<u32> = (0..5).map(|_| b.gen()).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(100, 1.2);
        let mut r = rng(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[50] * 3, "rank 0 should dominate rank 50");
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn zipf_alpha_zero_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng(7);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "roughly uniform, got {counts:?}");
        }
    }
}
