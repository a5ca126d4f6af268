//! Residency cost of SGD on the out-of-core store.
//!
//! A shuffled minibatch lands on nearly every chunk of the store. The
//! batch gather (`DatasetStore::gather_rows`) must pay for that once per
//! chunk it touches, not once per row: one SGD epoch over a 25-chunk
//! store with an 8-chunk residency window issues at most
//! 2 × (chunks touched) `madvise` calls per batch. The factor 2 allows
//! for a batch split into two gradient blocks, each gathering on its
//! own.

use chef_data::store::write_store;
use chef_data::{MmapStore, StoreOptions};
use chef_linalg::Matrix;
use chef_model::{Dataset, DatasetStore, LogisticRegression, Model, SoftLabel, WeightedObjective};
use chef_train::{train, BatchPlan, SgdConfig};

const CHUNK_ROWS: usize = 64;
const CHUNKS: usize = 25;
const WINDOW: usize = 8;
const DIM: usize = 4;
const BATCH: usize = 512;

fn fixture() -> Dataset {
    let n = CHUNK_ROWS * CHUNKS;
    let raw = (0..n * DIM)
        .map(|k| ((k * 37 % 101) as f64 - 50.0) / 25.0)
        .collect();
    let labels = (0..n)
        .map(|i| {
            SoftLabel::new(vec![
                0.25 + 0.5 * (i % 2) as f64,
                0.75 - 0.5 * (i % 2) as f64,
            ])
        })
        .collect();
    Dataset::new(
        Matrix::from_vec(n, DIM, raw),
        labels,
        vec![false; n],
        vec![None; n],
        2,
    )
}

fn chunks_touched(batch: &[usize]) -> usize {
    let mut cs: Vec<usize> = batch.iter().map(|&i| i / CHUNK_ROWS).collect();
    cs.sort_unstable();
    cs.dedup();
    cs.len()
}

fn open(dir: &std::path::Path) -> MmapStore {
    MmapStore::open_with(
        dir,
        StoreOptions {
            residency_chunks: WINDOW,
            ..StoreOptions::default()
        },
    )
    .expect("open store")
}

#[test]
fn sgd_epoch_issues_o_chunks_advise_calls_per_batch() {
    let dir = std::env::temp_dir().join(format!("chef-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = fixture();
    let manifest = write_store(&data, &dir, CHUNK_ROWS).expect("write store");
    assert_eq!(manifest.chunks.len(), CHUNKS);

    let model = LogisticRegression::new(DIM, 2);
    let objective = WeightedObjective::new(0.8, 0.01);
    let plan = BatchPlan::new(data.len(), BATCH, 1, 7);

    // Batch by batch, as the SGD loop runs them.
    let store = open(&dir);
    let mut w = model.init_params();
    let mut g = vec![0.0; model.num_params()];
    let mut budget = 0;
    for (t, batch) in plan.iter() {
        let touched = chunks_touched(&batch);
        assert!(touched > WINDOW, "batch {t} must overrun the window");
        let before = store.io_stats().unwrap().advise_calls;
        objective.batch_grad(&model, &store, &batch, &w, &mut g);
        let calls = store.io_stats().unwrap().advise_calls - before;
        assert!(
            calls as usize <= 2 * touched,
            "batch {t}: {calls} advise calls for {touched} chunks touched ({} rows)",
            batch.len()
        );
        assert!(calls > 0, "batch {t}: the gather must release its chunks");
        assert!(store.resident_chunks() <= WINDOW);
        chef_linalg::vector::axpy(-0.1, &g, &mut w);
        budget += 2 * touched;
    }

    // The trainer itself adds no residency work on top of the gathers.
    let store = open(&dir);
    let cfg = SgdConfig {
        lr: 0.1,
        epochs: 1,
        batch_size: BATCH,
        seed: 7,
        cache_provenance: false,
    };
    let out = train(&model, &objective, &store, &model.init_params(), &cfg);
    let calls = store.io_stats().unwrap().advise_calls as usize;
    assert!(
        calls <= budget,
        "epoch: {calls} advise calls, budget {budget}"
    );
    // Same bits as training in memory.
    let mem = train(&model, &objective, &data, &model.init_params(), &cfg);
    assert_eq!(
        out.w.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        mem.w.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
