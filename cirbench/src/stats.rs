//! Pure helpers behind the benchmark's figures: sample statistics, ranking
//! overlap, the Table-I drift ratio, and the seeded ECO edit generator.

/// Median of `samples` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), p)]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 0.9 × 100 from rounding up a rank.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Percentiles tried, highest first, when looking for a reportable tail.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// above its nearest-rank position, as `(percentile, value)`; `None` when
/// even the median has fewer than ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - 1 - nearest_rank(n, p) >= 10)
        .map(|&p| (p, percentile(samples, p)))
}

/// Share of `a` also present in `b`, over the larger set's size: the top-k
/// overlap of two rankings when both are their top-k heads. Two empty sets
/// agree completely.
pub fn overlap(a: &[usize], b: &[usize]) -> f64 {
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 1.0;
    }
    let mut bs = b.to_vec();
    bs.sort_unstable();
    let shared = a.iter().filter(|x| bs.binary_search(x).is_ok()).count();
    shared as f64 / denom as f64
}

/// Mean relative change of the primary-output predictions, the Table-I
/// drift measure: `|p − b| / max(|b|, floor)` per output, where `floor` is
/// 5% of the largest base magnitude (outputs sitting right behind primary
/// inputs would otherwise explode the ratio). Identical predictions give 0.
pub fn relative_drift(base: &[f64], perturbed: &[f64]) -> f64 {
    if base.is_empty() {
        return 0.0;
    }
    let floor = base.iter().fold(0.0f64, |m, b| m.max(b.abs())) * 0.05;
    let total: f64 = base
        .iter()
        .zip(perturbed)
        .map(|(&b, &p)| (p - b).abs() / b.abs().max(floor).max(1e-9))
        .sum();
    total / base.len() as f64
}

/// Unstable-over-stable drift ratio; `None` when the stable drift is zero
/// or either drift is not finite (the ratio would carry no information).
pub fn separation(unstable_drift: f64, stable_drift: f64) -> Option<f64> {
    let ratio = unstable_drift / stable_drift;
    (stable_drift > 0.0 && ratio.is_finite()).then_some(ratio)
}

/// SplitMix64: a tiny seeded generator, so every input the benchmark draws
/// is a pure function of the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// One seeded ECO edit: rescale an existing edge `(u, v)` of `edges` by a
/// factor drawn uniformly from `[0.5, 2]`. `None` when there is no edge.
pub fn rescale_edit(edges: &[(usize, usize)], rng: &mut Rng) -> Option<(usize, usize, f64)> {
    if edges.is_empty() {
        return None;
    }
    let (u, v) = edges[rng.below(edges.len())];
    let factor = 0.5 + 1.5 * rng.unit();
    Some((u, v, factor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90, leaving exactly 10 above it;
        // p95 would leave only 5.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        // 1000 samples reach p99 (10 above rank 990).
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        // 20 samples: only the median leaves 10 above it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50.0, 10.0)));
        // Too few samples for any tail.
        let s: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn overlap_counts_shared_members() {
        assert_eq!(overlap(&[1, 2, 3, 4], &[4, 3, 2, 1]), 1.0);
        assert_eq!(overlap(&[1, 2, 3, 4], &[3, 4, 5, 6]), 0.5);
        assert_eq!(overlap(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(overlap(&[1, 2], &[1, 2, 3, 4]), 0.5);
        assert_eq!(overlap(&[], &[]), 1.0);
    }

    #[test]
    fn empty_perturbation_has_zero_drift() {
        let base = [0.2, 0.9, 1.0, 0.5];
        assert_eq!(relative_drift(&base, &base), 0.0);
        assert_eq!(relative_drift(&[], &[]), 0.0);
        assert_eq!(separation(0.3, 0.0), None);
        assert_eq!(separation(0.0, 0.0), None);
    }

    #[test]
    fn drift_is_relative_with_a_floor() {
        // The 0.01 output is floored at 5% of 1.0 = 0.05.
        let d = relative_drift(&[1.0, 0.01], &[1.1, 0.02]);
        let expected = (0.1 / 1.0 + 0.01 / 0.05) / 2.0;
        assert!((d - expected).abs() < 1e-12, "{d} vs {expected}");
        assert_eq!(separation(0.4, 0.1), Some(4.0));
    }

    #[test]
    fn edits_pick_existing_edges_deterministically() {
        let edges = vec![(0, 1), (1, 2), (2, 5), (3, 4), (4, 5)];
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let (u, v, f) = rescale_edit(&edges, &mut a).unwrap();
            assert_eq!(Some((u, v, f)), rescale_edit(&edges, &mut b));
            assert!(edges.contains(&(u, v)), "({u}, {v}) is not an edge");
            assert!((0.5..=2.0).contains(&f), "factor {f}");
            seen.insert((u, v));
        }
        assert_eq!(seen.len(), edges.len(), "every edge is reachable");
        let mut c = Rng::new(43);
        let first_a = rescale_edit(&edges, &mut Rng::new(42));
        assert_ne!(first_a, rescale_edit(&edges, &mut c));
        assert_eq!(rescale_edit(&[], &mut c), None);
    }
}
