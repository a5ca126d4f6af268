//! The two single-process workloads: `paper-inmem` (the paper's
//! configuration on an in-memory MIMIC-sized set) and `ooc-window` (full
//! Infl + Retrain over a memory-mapped store three times the size of its
//! residency window).

use crate::bench::{repeat, Outcome, Rep, Tally, Workload};
use crate::check;
use crate::procfs;
use crate::runloop::{Calls, Driven, Phase, Run};
use crate::trace::{Request, SpanId, Tracer};
use chef_core::{
    AnnotationConfig, ConstructorKind, InflSelector, LabelStrategy, Pipeline, PipelineConfig,
};
use chef_data::store::write_store;
use chef_data::{by_name, generate, DatasetSpec, MmapStore, Split, StoreOptions};
use chef_model::{Dataset, DatasetStore, LogisticRegression, WeightedObjective};
use chef_train::{DeltaGradConfig, SgdConfig};
use chef_weak::{weaken_split, WeakenConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a repetition's training data comes from.
enum Source {
    /// A pristine in-memory set, cloned before each timed repetition.
    Memory(Dataset),
    /// A store directory, opened inside each timed repetition.
    Store(PathBuf, StoreOptions),
}

/// An in-process workload.
pub struct Inproc {
    spec: DatasetSpec,
    cfg: PipelineConfig,
    incremental: bool,
    /// `(chunk rows, residency chunks)` when the training set is a store.
    store: Option<(usize, usize)>,
}

/// The paper's configuration objective: γ = 0.8 on uncleaned samples,
/// λ = 0.2.
fn objective() -> WeightedObjective {
    WeightedObjective::new(0.8, 0.2)
}

/// `paper-inmem`: Increm-Infl + DeltaGrad-L + Infl (three) on MIMIC at
/// Table-3 size, b = 10, 25 epochs, batch 512, 40 rounds.
pub fn paper_inmem(quick: bool) -> Inproc {
    let scale = if quick { 40 } else { 1 };
    Inproc {
        spec: by_name("MIMIC", scale).expect("MIMIC is in the paper suite"),
        cfg: PipelineConfig {
            budget: if quick { 30 } else { 400 },
            round_size: 10,
            objective: objective(),
            sgd: SgdConfig {
                epochs: if quick { 5 } else { 25 },
                batch_size: 512,
                ..SgdConfig::default()
            },
            constructor: ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
            annotation: AnnotationConfig {
                strategy: LabelStrategy::SuggestionPlusHumans(2),
                ..AnnotationConfig::default()
            },
            ..PipelineConfig::default()
        },
        incremental: true,
        store: None,
    }
}

/// `ooc-window`: full Infl + Retrain (2 epochs, b = 16, 2 rounds) over a
/// 50k-row store of 25 chunks of 2,048 rows, opened with an 8-chunk
/// residency window, so the data is about 3× the window. The same 25
/// chunks of 8,192 rows (200k rows) take ~18 s a repetition: one
/// turnaround per run, too few samples for a steady median.
pub fn ooc_window(quick: bool) -> Inproc {
    let mimic = by_name("MIMIC", 1).expect("MIMIC is in the paper suite");
    Inproc {
        spec: DatasetSpec {
            train: if quick { 20_000 } else { 50_000 },
            ..mimic
        },
        cfg: PipelineConfig {
            budget: 32,
            round_size: 16,
            objective: objective(),
            sgd: SgdConfig {
                epochs: 2,
                batch_size: 512,
                ..SgdConfig::default()
            },
            ..PipelineConfig::default()
        },
        incremental: false,
        store: Some(if quick { (2048, 3) } else { (2048, 8) }),
    }
}

impl Workload for Inproc {
    /// Bytes the workload writes to scratch.
    fn scratch_bytes(&self) -> u64 {
        let row = self.spec.dim * 8 + self.spec.num_classes * 8 + 1 + 8;
        self.store.map_or(0, |_| (self.spec.train * row) as u64)
    }

    /// Generate the inputs from `seed`, then time whole cleaning runs for
    /// `seconds`.
    fn run(&self, seed: u64, seconds: f64, tr: &mut Tracer, scratch: &Path) -> Outcome {
        let mut split = generate(&self.spec, seed);
        weaken_split(
            &mut split,
            &self.spec,
            &WeakenConfig {
                seed,
                ..WeakenConfig::default()
            },
        );
        let Split { train, val, test } = split;
        let model = LogisticRegression::new(self.spec.dim, self.spec.num_classes);
        let pipeline = Pipeline::new(self.cfg.clone());
        let run = Run {
            pipeline: &pipeline,
            annotation: self.cfg.annotation,
            model: &model,
            val: &val,
            test: &test,
        };
        let mut outcome = Outcome::default();
        let source = match self.store {
            None => Source::Memory(train),
            Some((chunk_rows, residency_chunks)) => {
                let dir = scratch.join("train-store");
                let manifest = match write_store(&train, &dir, chunk_rows) {
                    Ok(m) => m,
                    Err(e) => {
                        outcome
                            .tally
                            .fail(self.rounds(), format!("write store: {e}"));
                        return outcome;
                    }
                };
                outcome.info.push((
                    "store",
                    format!(
                        "store.v{}: {} rows in {} chunks of {chunk_rows}, residency window {residency_chunks}",
                        manifest.version,
                        manifest.n,
                        manifest.chunks.len()
                    ),
                ));
                drop(train);
                let opts = StoreOptions {
                    residency_chunks,
                    ..StoreOptions::default()
                };
                Source::Store(dir, opts)
            }
        };

        let mut tally = Tally::default();
        let mut fingerprints = Vec::new();
        let reps = repeat(seconds, |i| {
            let res = catch_unwind(AssertUnwindSafe(|| self.rep(i, &run, &source, tr)));
            tally.attempted += self.rounds();
            match res {
                Ok(Ok((rep, fp))) => {
                    fingerprints.push(fp);
                    Some(rep)
                }
                Ok(Err(e)) => {
                    tally.fail(self.rounds(), format!("rep {i}: {e}"));
                    None
                }
                Err(_) => {
                    tally.fail(self.rounds(), format!("rep {i} panicked"));
                    None
                }
            }
        });
        outcome.reps = reps.into_iter().flatten().collect();

        let Some(&first) = fingerprints.first() else {
            outcome.tally = tally;
            return outcome;
        };
        for (i, fp) in fingerprints.iter().enumerate() {
            if *fp != first {
                tally.fail(
                    self.rounds(),
                    format!("rep {i} fingerprint {fp:016x} != {first:016x}"),
                );
            }
        }
        outcome.info.push(("fingerprint", format!("{first:016x}")));

        // ooc-window ≡ the same inputs in memory, once per invocation.
        if let Source::Store(dir, opts) = &source {
            match self.in_memory_reference(&run, dir, *opts) {
                Ok(fp) if fp == first => outcome
                    .info
                    .push(("in_memory_reference", "fingerprint matches".into())),
                Ok(fp) => tally.fail(
                    self.rounds() * fingerprints.len() as u64,
                    format!("in-memory reference fingerprint {fp:016x} != mmap {first:016x}"),
                ),
                Err(e) => tally.fail(self.rounds(), format!("in-memory reference: {e}")),
            }
        }
        outcome.tally = tally;
        outcome
    }
}

impl Inproc {
    fn rounds(&self) -> u64 {
        self.cfg.budget.div_ceil(self.cfg.round_size) as u64
    }

    fn selector(&self) -> InflSelector {
        if self.incremental {
            InflSelector::incremental()
        } else {
            InflSelector::full()
        }
    }

    /// One timed cleaning run. Returns its measurements and fingerprint.
    fn rep(
        &self,
        i: usize,
        run: &Run<'_>,
        source: &Source,
        tr: &mut Tracer,
    ) -> Result<(Rep, u64), String> {
        procfs::reset_peak_rss();
        let traced = tr.enabled();
        let mut selector = self.selector();
        let mut owned = match source {
            Source::Memory(d) => Some(d.clone()),
            Source::Store(..) => None,
        };
        let cpu0 = procfs::sample();
        let t0 = Instant::now();
        let req = Request::new(i as u64, None);
        let root = tr.open("clean", t0, SpanId::NONE, req);
        let mut calls = Calls::new(traced, root, i as u64);
        let mut store;
        let data: &mut dyn DatasetStore = match source {
            Source::Memory(_) => owned.as_mut().expect("cloned before timing"),
            Source::Store(dir, opts) => {
                let before = calls.before();
                let a = Instant::now();
                store = MmapStore::open_with(dir, *opts).map_err(|e| format!("open store: {e}"))?;
                let b = Instant::now();
                calls.after(Phase::Open, before);
                calls.opened(b - a);
                tr.push("store.open", a, b, root, req);
                &mut store
            }
        };
        let driven = run.drive(data, &mut selector, t0, &mut calls, tr);
        let end = Instant::now();
        tr.close(root, end);
        let cpu = procfs::sample().since(&cpu0);

        let Driven {
            report,
            setup,
            turnarounds_ms,
        } = driven;
        check::budget(&report.rounds, report.cleaned_total, self.cfg.budget)?;
        let clean_s = (end - t0).as_secs_f64();
        let mut rep = Rep {
            setup_s: setup.as_secs_f64(),
            clean_s,
            rounds: report.rounds.len(),
            turnarounds_ms,
            test_f1: report.final_test_f1(),
            peak_rss_mb: procfs::peak_rss_mb(),
            ..Rep::default()
        };
        if traced {
            let l = &mut rep.layers;
            *l = calls.layers(&report);
            if let Some(io) = data.io_stats() {
                l.insert("store.verify_ms", io.verify_ms as f64);
                l.insert("store.blocks_verified", io.blocks_verified as f64);
                l.insert("store.lazy_verify_hits", io.lazy_verify_hits as f64);
            }
            l.insert("proc.cpu_s", cpu.cpu_s);
            l.insert("proc.cpu_util", cpu.cpu_s / clean_s);
            l.insert("proc.ctxsw_nonvol", cpu.ctxsw_nonvol as f64);
            l.insert("unattributed_ms", tr.self_ns(root) as f64 / 1e6);
            l.insert("traced.clean_s", clean_s);
        }
        Ok((rep, check::fingerprint(&report.rounds, &report.final_w)))
    }

    /// Fingerprint of the same run with the store materialized in memory.
    fn in_memory_reference(
        &self,
        run: &Run<'_>,
        dir: &Path,
        opts: StoreOptions,
    ) -> Result<u64, String> {
        let mut data = MmapStore::open_with(dir, opts)
            .map_err(|e| format!("open store: {e}"))?
            .to_dataset();
        let mut selector = self.selector();
        let driven = run.drive(
            &mut data,
            &mut selector,
            Instant::now(),
            &mut Calls::default(),
            &mut Tracer::new(false),
        );
        let r = &driven.report;
        check::budget(&r.rounds, r.cleaned_total, self.cfg.budget)?;
        Ok(check::fingerprint(&r.rounds, &r.final_w))
    }
}
