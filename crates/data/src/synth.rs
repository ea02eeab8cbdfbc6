//! Synthetic time-accumulating vector data.

use mbi_ann::VectorStore;
use mbi_math::Metric;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generated dataset: train vectors with timestamps, plus held-out test
/// (query) vectors drawn from the same distribution — mirroring the paper's
/// setup where 200–10,000 vectors are sampled as queries and excluded from
/// indexing (§5.2).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Short dataset name (e.g. `"sift_like"`).
    pub name: String,
    /// Distance function the dataset is evaluated under.
    pub metric: Metric,
    /// Train vectors in timestamp order.
    pub train: VectorStore,
    /// Timestamps parallel to `train` (non-decreasing).
    pub timestamps: Vec<i64>,
    /// Held-out query vectors.
    pub test: VectorStore,
}

impl Dataset {
    /// Number of train vectors.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the train set is empty.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.train.dim()
    }

    /// Iterates `(vector, timestamp)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], i64)> + '_ {
        (0..self.len()).map(|i| (self.train.get(i), self.timestamps[i]))
    }
}

/// How timestamps are laid out over the generated sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimestampModel {
    /// `t_i = i` — the "virtual timestamp = item index" rule the paper
    /// applies to GloVe/SIFT/GIST/DEEP.
    Sequential,
    /// Non-uniform density: later periods are denser (quadratic ramp),
    /// mimicking real accumulation rates (uploads grow over time). Spans
    /// `[0, horizon)`.
    Accelerating {
        /// Total timestamp span.
        horizon: i64,
    },
}

impl TimestampModel {
    fn generate(self, n: usize) -> Vec<i64> {
        match self {
            TimestampModel::Sequential => (0..n as i64).collect(),
            TimestampModel::Accelerating { horizon } => {
                // Quantile transform of a quadratic CDF: dense near the end.
                let mut ts: Vec<i64> = (0..n)
                    .map(|i| {
                        let u = (i as f64 + 0.5) / n as f64;
                        // CDF F(x) = x², so x = √u of the horizon.
                        (u.sqrt() * horizon as f64) as i64
                    })
                    .collect();
                ts.sort_unstable();
                ts
            }
        }
    }
}

/// A mixture of Gaussian clusters whose centres drift over time.
///
/// Real time-accumulating corpora are *temporally correlated*: consecutive
/// satellite frames look alike; a catalogue's style drifts over decades. The
/// generator captures that by moving each cluster centre along a random
/// direction as the sequence advances; `drift = 0` recovers a stationary
/// mixture (the right model for the descriptor datasets, where virtual
/// timestamps are uncorrelated with content).
///
/// ```
/// use mbi_data::DriftingMixture;
/// use mbi_math::Metric;
///
/// let dataset = DriftingMixture { drift: 1.0, ..DriftingMixture::new(16, 42) }
///     .generate("demo", Metric::Euclidean, 1_000, 10);
/// assert_eq!(dataset.len(), 1_000);
/// assert_eq!(dataset.dim(), 16);
/// assert_eq!(dataset.test.len(), 10);
/// // Ready to ingest: (vector, timestamp) pairs in time order.
/// let (first_vec, first_ts) = dataset.iter().next().unwrap();
/// assert_eq!(first_vec.len(), 16);
/// assert_eq!(first_ts, 0);
/// ```
#[derive(Clone, Debug)]
pub struct DriftingMixture {
    /// Dimensionality.
    pub dim: usize,
    /// Number of mixture components.
    pub clusters: usize,
    /// Within-cluster standard deviation.
    pub spread: f32,
    /// Total centre displacement (in units of the unit hypercube) over the
    /// full sequence.
    pub drift: f32,
    /// RNG seed.
    pub seed: u64,
    /// Timestamp layout.
    pub timestamps: TimestampModel,
}

impl DriftingMixture {
    /// A reasonable default: 16 clusters, mild spread, no drift.
    pub fn new(dim: usize, seed: u64) -> Self {
        DriftingMixture {
            dim,
            clusters: 16,
            spread: 0.35,
            drift: 0.0,
            seed,
            timestamps: TimestampModel::Sequential,
        }
    }

    /// Generates `n_train` timestamped vectors and `n_test` held-out queries.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `clusters == 0`.
    pub fn generate(&self, name: &str, metric: Metric, n_train: usize, n_test: usize) -> Dataset {
        assert!(self.dim > 0 && self.clusters > 0);
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // Cluster centres uniform in [-1, 1]^d, each with a random unit
        // drift direction.
        let centers: Vec<Vec<f32>> = (0..self.clusters)
            .map(|_| (0..self.dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
            .collect();
        let directions: Vec<Vec<f32>> =
            (0..self.clusters).map(|_| random_unit(&mut rng, self.dim)).collect();

        let timestamps = self.timestamps.generate(n_train);
        let mut train = VectorStore::with_capacity(self.dim, n_train);
        // Every angular index store caches each row's inverse norm, so
        // ground truth over this store scores rows as the indexes do.
        if metric == Metric::Angular {
            train.enable_norm_cache();
        }
        let mut buf = vec![0.0f32; self.dim];
        for i in 0..n_train {
            let progress = if n_train > 1 { i as f32 / (n_train - 1) as f32 } else { 0.0 };
            self.sample_into(&mut rng, &centers, &directions, progress, &mut buf);
            train.push(&buf);
        }

        // Test queries from the same mixture at random progress points —
        // they resemble the data without being members of it.
        let mut test = VectorStore::with_capacity(self.dim, n_test);
        for _ in 0..n_test {
            let progress = rng.gen_range(0.0..1.0f32);
            self.sample_into(&mut rng, &centers, &directions, progress, &mut buf);
            test.push(&buf);
        }

        Dataset { name: name.to_string(), metric, train, timestamps, test }
    }

    fn sample_into(
        &self,
        rng: &mut SmallRng,
        centers: &[Vec<f32>],
        directions: &[Vec<f32>],
        progress: f32,
        out: &mut [f32],
    ) {
        let c = rng.gen_range(0..self.clusters);
        let shift = self.drift * progress;
        for (j, o) in out.iter_mut().enumerate() {
            *o = centers[c][j] + shift * directions[c][j] + gaussian(rng) * self.spread;
        }
    }
}

/// A standard normal sample (Box–Muller).
pub fn gaussian(rng: &mut SmallRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0f32);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

fn random_unit(rng: &mut SmallRng, dim: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| gaussian(rng)).collect();
    let norm = mbi_math::norm(&v).max(f32::EPSILON);
    for x in &mut v {
        *x /= norm;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_counts() {
        let d = DriftingMixture::new(8, 1).generate("t", Metric::Euclidean, 500, 20);
        assert_eq!(d.len(), 500);
        assert_eq!(d.test.len(), 20);
        assert_eq!(d.dim(), 8);
        assert!(!d.is_empty());
        assert_eq!(d.iter().count(), 500);
    }

    #[test]
    fn timestamps_are_sorted_both_models() {
        for model in [TimestampModel::Sequential, TimestampModel::Accelerating { horizon: 10_000 }]
        {
            let mut gen = DriftingMixture::new(4, 2);
            gen.timestamps = model;
            let d = gen.generate("t", Metric::Euclidean, 300, 5);
            for w in d.timestamps.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn sequential_timestamps_are_indices() {
        let d = DriftingMixture::new(4, 3).generate("t", Metric::Euclidean, 10, 1);
        assert_eq!(d.timestamps, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn accelerating_is_denser_late() {
        let mut gen = DriftingMixture::new(4, 4);
        gen.timestamps = TimestampModel::Accelerating { horizon: 1000 };
        let d = gen.generate("t", Metric::Euclidean, 1000, 1);
        let first_half = d.timestamps.iter().filter(|&&t| t < 500).count();
        let second_half = 1000 - first_half;
        assert!(
            second_half > first_half * 2,
            "late period should be denser: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DriftingMixture::new(6, 9).generate("t", Metric::Angular, 100, 10);
        let b = DriftingMixture::new(6, 9).generate("t", Metric::Angular, 100, 10);
        assert_eq!(a.train.as_flat(), b.train.as_flat());
        assert_eq!(a.test.as_flat(), b.test.as_flat());
        let c = DriftingMixture::new(6, 10).generate("t", Metric::Angular, 100, 10);
        assert_ne!(a.train.as_flat(), c.train.as_flat());
    }

    #[test]
    fn angular_train_caches_norms() {
        let gen = DriftingMixture::new(4, 2);
        assert!(gen.generate("t", Metric::Angular, 10, 1).train.has_norm_cache());
        assert!(!gen.generate("t", Metric::Euclidean, 10, 1).train.has_norm_cache());
    }

    #[test]
    fn data_is_clustered() {
        // Distances within the dataset should be bimodal-ish: nearer than
        // uniform for same-cluster pairs. Weak check: the minimum pairwise
        // distance among 200 points is far below the mean.
        let d = DriftingMixture { spread: 0.05, ..DriftingMixture::new(16, 5) }.generate(
            "t",
            Metric::Euclidean,
            200,
            1,
        );
        let mut min = f32::INFINITY;
        let mut sum = 0.0f64;
        let mut count = 0u64;
        for i in 0..200 {
            for j in (i + 1)..200 {
                let dist = mbi_math::squared_euclidean(d.train.get(i), d.train.get(j));
                min = min.min(dist);
                sum += dist as f64;
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!((min as f64) < mean / 10.0, "min {min} vs mean {mean}");
    }

    #[test]
    fn drift_moves_the_distribution() {
        let gen =
            DriftingMixture { drift: 3.0, clusters: 1, spread: 0.01, ..DriftingMixture::new(8, 6) };
        let d = gen.generate("t", Metric::Euclidean, 1000, 1);
        let early = d.train.get(0);
        let late = d.train.get(999);
        let dist = mbi_math::squared_euclidean(early, late).sqrt();
        assert!(dist > 1.0, "centres should have moved: {dist}");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SmallRng::seed_from_u64(0);
        let xs: Vec<f32> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
