//! Robust summaries (median, quartiles, percentiles) and the seeded
//! generator every workload draws its inputs from.
//!
//! Single simulations jitter up to 2× on a shared sandbox, so no metric in
//! this benchmark is a mean or a single sample: each is the median of
//! repeated passes or operations, printed with its inter-quartile range
//! and sample count.

/// Linear-interpolated quantile `q` (0..=1) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let s = sorted(values);
    quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25)
}

/// Geometric mean (of ratios; every input must be positive).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// xorshift64* — the benchmark's only randomness, so the same `--seed`
/// always generates the same inputs.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator; the seed is mixed first so that small seeds
    /// (0, 1, 2…) start from well-spread, nonzero states.
    pub fn new(seed: u64) -> XorShift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-enough value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.75), 7.0);
        assert_eq!(iqr(&v), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.9), 1.9);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_ends_are_min_and_max() {
        let v = [9.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 2.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
        assert_eq!(quantile(&v, 7.0), 9.0, "out-of-range q clamps");
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 11.0, 10.5, 400.0, 10.2]), 10.5);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[2.0, 0.5, 4.0, 0.25]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xorshift_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = XorShift::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(XorShift::new(0).next_u64(), 0, "seed 0 must not stick at zero");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..50).collect();
        XorShift::new(3).shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }
}
