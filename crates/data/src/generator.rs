//! Gaussian-mixture embedding generator.
//!
//! Features are drawn as `x = μ_c + ε`, `ε ~ N(0, I)`, with class means
//! `μ_c` placed `class_sep` apart along a random unit direction plus small
//! per-class random offsets, emulating the cluster structure frozen
//! backbones produce. Ground truth is sampled from the spec's class
//! marginal; optional `truth_noise` flips a fraction of the *recorded*
//! ground truth to emulate noisy reference labels (Chexpert).
//!
//! The returned training set carries **ground-truth one-hot labels marked
//! clean** — callers (normally `chef-weak`) immediately replace them with
//! probabilistic labels and clear the clean flags, which keeps this crate
//! free of any weak-supervision policy.

use crate::spec::DatasetSpec;
use chef_linalg::{vector, Matrix};
use chef_model::{Dataset, SoftLabel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A train/validation/test triple.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training samples (labels = recorded ground truth until weakened).
    pub train: Dataset,
    /// Validation samples (trusted deterministic labels, paper §3.1).
    pub val: Dataset,
    /// Held-out test samples.
    pub test: Dataset,
}

/// Standard normal sample via Box–Muller (keeps us on `rand` core only).
fn randn(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Class means `class_sep` apart along a random direction.
fn class_means(spec: &DatasetSpec, rng: &mut SmallRng) -> Vec<Vec<f64>> {
    let mut dir: Vec<f64> = (0..spec.dim).map(|_| randn(rng)).collect();
    let n = vector::norm2(&dir);
    vector::scale(1.0 / n.max(1e-12), &mut dir);
    (0..spec.num_classes)
        .map(|c| {
            let offset = c as f64 - (spec.num_classes - 1) as f64 / 2.0;
            let mut mu: Vec<f64> = dir.iter().map(|d| d * offset * spec.class_sep).collect();
            // Small per-class jitter so classes are not perfectly colinear.
            for m in mu.iter_mut() {
                *m += 0.1 * randn(rng);
            }
            mu
        })
        .collect()
}

/// Sample a class from the spec's marginal (binary uses `positive_rate`;
/// more classes split the remainder evenly).
fn sample_class(spec: &DatasetSpec, rng: &mut SmallRng) -> usize {
    if spec.num_classes == 2 {
        usize::from(rng.gen_range(0.0..1.0) < spec.positive_rate)
    } else {
        rng.gen_range(0..spec.num_classes)
    }
}

/// Draw `n` samples row by row, handing each to `sink` as it is
/// produced. This is the single source of truth for the per-row RNG
/// draw order (class → `dim` feature draws → flip roll → flip shift),
/// shared by the in-memory [`generate`] and the streaming
/// [`generate_train_store`] so both emit bit-identical rows from the
/// same seed.
fn emit_part(
    spec: &DatasetSpec,
    means: &[Vec<f64>],
    n: usize,
    noisy_truth: bool,
    rng: &mut SmallRng,
    mut sink: impl FnMut(&[f64], usize) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut row = vec![0.0; spec.dim];
    for _ in 0..n {
        let true_class = sample_class(spec, rng);
        for (x, mu_d) in row.iter_mut().zip(&means[true_class]) {
            *x = mu_d + randn(rng);
        }
        // Recorded truth may itself be wrong (automated labelers). Both
        // random draws happen unconditionally so that datasets generated
        // from the same seed with different `truth_noise` share features.
        let flip_roll = rng.gen_range(0.0..1.0);
        let flip_shift = rng.gen_range(0..spec.num_classes - 1);
        let recorded = if noisy_truth && flip_roll < spec.truth_noise {
            (true_class + 1 + flip_shift) % spec.num_classes
        } else {
            true_class
        };
        sink(&row, recorded)?;
    }
    Ok(())
}

fn make_part(
    spec: &DatasetSpec,
    means: &[Vec<f64>],
    n: usize,
    noisy_truth: bool,
    rng: &mut SmallRng,
) -> Dataset {
    let mut raw = Vec::with_capacity(n * spec.dim);
    let mut labels = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    emit_part(spec, means, n, noisy_truth, rng, |row, recorded| {
        raw.extend_from_slice(row);
        labels.push(SoftLabel::onehot(recorded, spec.num_classes));
        truth.push(Some(recorded));
        Ok(())
    })
    .expect("in-memory sink cannot fail");
    Dataset::new(
        Matrix::from_vec(n, spec.dim, raw),
        labels,
        vec![true; n],
        truth,
        spec.num_classes,
    )
}

/// Generate a full [`Split`] for a dataset spec, deterministically in
/// `seed`.
pub fn generate(spec: &DatasetSpec, seed: u64) -> Split {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc5ef_da7a_5eed);
    let means = class_means(spec, &mut rng);
    let train = make_part(spec, &means, spec.train, true, &mut rng);
    // Validation/test labels are human-verified in the paper — no noise.
    let val = make_part(spec, &means, spec.val, false, &mut rng);
    let test = make_part(spec, &means, spec.test, false, &mut rng);
    Split { train, val, test }
}

/// Like [`generate`], but **stream the training part straight into an
/// on-disk `store.v2` directory** instead of materializing it: peak
/// memory is one shard plus the O(n) label columns, so a training set
/// larger than RAM can be produced. The (small) validation and test
/// parts are returned in memory.
///
/// Uses the same RNG stream as [`generate`], so for any `(spec, seed)`
/// the rows written to `dir` are bit-identical to `generate(spec,
/// seed).train` and the returned val/test datasets are identical to the
/// in-memory split's.
pub fn generate_train_store(
    spec: &DatasetSpec,
    seed: u64,
    dir: &std::path::Path,
    chunk_rows: usize,
) -> std::io::Result<(crate::store::Manifest, Dataset, Dataset)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc5ef_da7a_5eed);
    let means = class_means(spec, &mut rng);
    let mut writer =
        crate::store::StoreWriter::create(dir, spec.dim, spec.num_classes, chunk_rows)?;
    emit_part(spec, &means, spec.train, true, &mut rng, |row, recorded| {
        writer.push_row(
            row,
            SoftLabel::onehot(recorded, spec.num_classes),
            true,
            Some(recorded),
        )
    })?;
    let manifest = writer.finish()?;
    let val = make_part(spec, &means, spec.val, false, &mut rng);
    let test = make_part(spec, &means, spec.test, false, &mut rng);
    Ok((manifest, val, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{paper_suite, DatasetKind};

    fn small_spec() -> DatasetSpec {
        DatasetSpec {
            name: "toy",
            kind: DatasetKind::FullyClean,
            train: 200,
            val: 50,
            test: 50,
            dim: 8,
            num_classes: 2,
            class_sep: 2.0,
            positive_rate: 0.4,
            truth_noise: 0.0,
            weak_quality: 0.8,
            annotator_error: 0.05,
        }
    }

    #[test]
    fn sizes_match_spec() {
        let s = generate(&small_spec(), 1);
        assert_eq!(s.train.len(), 200);
        assert_eq!(s.val.len(), 50);
        assert_eq!(s.test.len(), 50);
        assert_eq!(s.train.dim(), 8);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&small_spec(), 7);
        let b = generate(&small_spec(), 7);
        assert_eq!(a.train.feature(0), b.train.feature(0));
        assert_eq!(a.test.feature(10), b.test.feature(10));
        let c = generate(&small_spec(), 8);
        assert_ne!(a.train.feature(0), c.train.feature(0));
    }

    #[test]
    fn class_marginal_approximates_positive_rate() {
        let mut spec = small_spec();
        spec.train = 4000;
        let s = generate(&spec, 3);
        let pos = (0..s.train.len())
            .filter(|&i| s.train.ground_truth(i) == Some(1))
            .count() as f64
            / s.train.len() as f64;
        assert!((pos - 0.4).abs() < 0.05, "positive rate {pos}");
    }

    #[test]
    fn classes_are_linearly_separable_enough() {
        // With class_sep = 2 a mean-threshold classifier along the
        // difference of class centroids should beat 75% accuracy (the
        // Bayes rate along the separating direction is ~84%). Use a
        // large test split so the accuracy estimate's binomial noise
        // (~1pp at n=1000) cannot cross the threshold by chance.
        let mut spec = small_spec();
        spec.test = 1000;
        let s = generate(&spec, 5);
        let d = s.train.dim();
        let mut mu0 = vec![0.0; d];
        let mut mu1 = vec![0.0; d];
        let (mut n0, mut n1) = (0.0, 0.0);
        for i in 0..s.train.len() {
            let target = if s.train.ground_truth(i) == Some(1) {
                n1 += 1.0;
                &mut mu1
            } else {
                n0 += 1.0;
                &mut mu0
            };
            vector::axpy(1.0, s.train.feature(i), target);
        }
        vector::scale(1.0 / n0, &mut mu0);
        vector::scale(1.0 / n1, &mut mu1);
        let w = vector::sub(&mu1, &mu0);
        let mid = 0.5 * (vector::dot(&w, &mu0) + vector::dot(&w, &mu1));
        let correct = (0..s.test.len())
            .filter(|&i| {
                let pred = usize::from(vector::dot(&w, s.test.feature(i)) > mid);
                Some(pred) == s.test.ground_truth(i)
            })
            .count();
        assert!(
            correct as f64 / s.test.len() as f64 > 0.75,
            "accuracy {}",
            correct as f64 / s.test.len() as f64
        );
    }

    #[test]
    fn truth_noise_flips_recorded_labels() {
        let mut spec = small_spec();
        spec.truth_noise = 0.3;
        spec.train = 3000;
        spec.class_sep = 5.0; // strong separation → flips dominate errors
        let s = generate(&spec, 9);
        // Train a centroid classifier on *features* and compare against
        // recorded truth: with 30% noise the agreement caps near 70%.
        let mismatch = {
            let strong = generate(
                &DatasetSpec {
                    truth_noise: 0.0,
                    ..spec.clone()
                },
                9,
            );
            // Same seed & means → identical features; compare recorded truths.
            (0..s.train.len())
                .filter(|&i| s.train.ground_truth(i) != strong.train.ground_truth(i))
                .count() as f64
                / s.train.len() as f64
        };
        assert!(
            (mismatch - 0.3).abs() < 0.05,
            "recorded-truth flip rate {mismatch}"
        );
    }

    #[test]
    fn val_and_test_truth_is_noise_free_and_deterministic() {
        let mut spec = small_spec();
        spec.truth_noise = 0.5;
        let s = generate(&spec, 11);
        for i in 0..s.val.len() {
            assert!(s.val.is_clean(i));
            assert!(s.val.label(i).is_deterministic());
        }
    }

    #[test]
    fn streamed_store_matches_in_memory_generation_bit_for_bit() {
        use chef_model::DatasetStore;
        let spec = small_spec();
        let seed = 13;
        let dir = std::env::temp_dir().join(format!("chef-gen-store-{}", std::process::id()));
        let (manifest, val, test) = generate_train_store(&spec, seed, &dir, 64).unwrap();
        assert_eq!(manifest.n, spec.train);
        let split = generate(&spec, seed);
        let store = crate::store::MmapStore::open(&dir).unwrap();
        for i in 0..spec.train {
            assert_eq!(store.feature(i), split.train.feature(i), "row {i}");
            assert_eq!(store.label(i).probs(), split.train.label(i).probs());
            assert_eq!(store.ground_truth(i), split.train.ground_truth(i));
        }
        assert_eq!(val.feature(0), split.val.feature(0));
        assert_eq!(test.feature(0), split.test.feature(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whole_paper_suite_generates() {
        for spec in paper_suite(200) {
            let s = generate(&spec, 1);
            assert!(s.train.len() >= 30, "{}", spec.name);
            assert_eq!(s.train.num_classes(), 2);
        }
    }

    use chef_linalg::vector;
}
