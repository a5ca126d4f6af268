//! `serve-durable`: 16 tenants on a `JobManager` with a 2-worker pool,
//! each running the paper configuration with a checkpoint every round,
//! answered by a benchmark-owned annotator host that wraps `SimAnnotator`
//! and timestamps every request and return. Load is a closed loop: a
//! tenant's next round starts only after its replies arrive.

use crate::bench::{repeat, Outcome, Rep, Tally, Workload};
use crate::check;
use crate::procfs;
use crate::runloop::{ms, round_layers, Calls, Run};
use crate::stats::{mean, median};
use crate::trace::{Request, SpanId, Tracer};
use chef_core::{
    AnnotationConfig, Checkpoint, CheckpointConfig, ConstructorKind, InflSelector, LabelStrategy,
    Pipeline, PipelineConfig, PipelineReport, Telemetry,
};
use chef_data::{by_name, generate, Split};
use chef_model::{Dataset, LogisticRegression, WeightedObjective};
use chef_serve::{
    AnnotationRequest, AnnotatorHost, HostDelivery, JobId, JobManager, JobRequest, JobResult,
    SchedConfig, SimAnnotator, SimAnnotatorConfig, DEFAULT_DEADLINE_MS,
};
use chef_train::{DeltaGradConfig, SgdConfig};
use chef_weak::{weaken_split, WeakenConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The four paper datasets the tenants cycle through.
const DATASETS: [&str; 4] = ["MIMIC", "Retina", "Chexpert", "Fashion"];

/// One host call, as the wrapping host saw it.
#[derive(Debug, Clone)]
struct HostCall {
    tenant: usize,
    round: usize,
    requested: Instant,
    returned: Instant,
    /// Size of the tenant's newest checkpoint generation when the
    /// request arrived (traced runs only).
    ckpt_bytes: Option<u64>,
}

/// Annotator host that times every request it serves for the simulated
/// panel it wraps.
struct TimedHost {
    inner: SimAnnotator,
    log: Arc<Mutex<Vec<HostCall>>>,
    /// Tenant index by job name.
    tenants: HashMap<String, usize>,
    /// Checkpoint directory by tenant, when checkpoint sizes are sampled.
    ckpt_dirs: Option<Vec<PathBuf>>,
}

impl AnnotatorHost for TimedHost {
    fn name(&self) -> &'static str {
        "timed-sim-annotator"
    }

    fn annotate(&mut self, req: &AnnotationRequest) -> Vec<HostDelivery> {
        let requested = Instant::now();
        let out = self.inner.annotate(req);
        let returned = Instant::now();
        let tenant = self.tenants.get(&req.name).copied().unwrap_or(usize::MAX);
        let round = req.batch.round;
        // After round r - 1 the newest generation is named for r
        // completed rounds.
        let ckpt_bytes = match (&self.ckpt_dirs, round) {
            (Some(dirs), r) if r > 0 => dirs
                .get(tenant)
                .and_then(|d| std::fs::metadata(d.join(Checkpoint::generation_file_name(r))).ok())
                .map(|m| m.len()),
            _ => None,
        };
        self.log.lock().expect("host log lock").push(HostCall {
            tenant,
            round,
            requested,
            returned,
            ckpt_bytes,
        });
        out
    }
}

/// One tenant's generated inputs.
struct Tenant {
    name: String,
    train: Dataset,
    val: Dataset,
    test: Dataset,
}

/// The served workload.
pub struct Serve {
    tenants: usize,
    scale: usize,
    budget: usize,
}

/// `serve-durable` at full size (16 tenants at 1/10 scale, 10 rounds each)
/// or quick size.
pub fn serve_durable(quick: bool) -> Serve {
    if quick {
        Serve {
            tenants: 4,
            scale: 100,
            budget: 10,
        }
    } else {
        Serve {
            tenants: 16,
            scale: 10,
            budget: 50,
        }
    }
}

const ROUND_SIZE: usize = 5;
/// Pool workers: one tenant's checkpoint write runs beside another's
/// compute. On a 2-vCPU host, six interleaved seed pairs gave `clean_s`
/// quartile spreads of 4% with two workers and 10% with one.
const WORKERS: usize = 2;

impl Workload for Serve {
    /// Bytes the workload writes to scratch: per tenant two kept
    /// checkpoint generations plus one being written, each ~1.6 KB a row.
    fn scratch_bytes(&self) -> u64 {
        let rows: usize = (0..self.tenants).map(|k| self.spec(k).train).sum();
        (rows * 1_700 * 3) as u64
    }

    /// Generate the tenants from `seed`, then time served batches of all
    /// tenants for `seconds`.
    fn run(&self, seed: u64, seconds: f64, tr: &mut Tracer, scratch: &Path) -> Outcome {
        let tenants = self.inputs(seed);
        let mut outcome = Outcome::default();
        let mut tally = Tally::default();
        let mut fingerprints: Vec<Vec<Option<u64>>> = Vec::new();
        let reps = repeat(seconds, |i| {
            let dir = scratch.join(format!("rep-{i}"));
            let res = catch_unwind(AssertUnwindSafe(|| {
                self.rep(i, &tenants, &dir, tr, &mut tally)
            }));
            let _ = std::fs::remove_dir_all(&dir);
            match res {
                Ok((rep, fps)) => {
                    fingerprints.push(fps);
                    rep
                }
                Err(_) => {
                    let ops = self.tenants as u64 * (1 + self.rounds());
                    tally.attempted += ops;
                    tally.fail(ops, format!("rep {i} panicked"));
                    None
                }
            }
        });
        outcome.reps = reps.into_iter().flatten().collect();

        // async ≡ sync: each tenant against the synchronous pipeline.
        let reference: Vec<u64> = tenants.iter().map(|t| self.sync_fingerprint(t)).collect();
        for (i, fps) in fingerprints.iter().enumerate() {
            for (k, fp) in fps.iter().enumerate() {
                let Some(fp) = fp else { continue };
                if *fp != reference[k] {
                    tally.fail(
                        self.rounds(),
                        format!(
                            "rep {i} {}: served fingerprint {fp:016x} != sync {:016x}",
                            tenants[k].name, reference[k]
                        ),
                    );
                }
            }
        }
        let digest = reference.iter().fold(0u64, |h, fp| h.rotate_left(5) ^ fp);
        outcome.info.push(("fingerprint", format!("{digest:016x}")));
        outcome.info.push((
            "sync_reference",
            format!("{} tenants compared", reference.len()),
        ));
        outcome.tally = tally;
        outcome
    }
}

impl Serve {
    fn spec(&self, k: usize) -> chef_data::DatasetSpec {
        by_name(DATASETS[k % DATASETS.len()], self.scale).expect("paper dataset")
    }

    fn rounds(&self) -> u64 {
        self.budget.div_ceil(ROUND_SIZE) as u64
    }

    /// The paper configuration at 10 epochs, b = 5, checkpointing every
    /// round into `ckpt` when given.
    fn config(&self, ckpt: Option<&Path>, telemetry: Telemetry) -> PipelineConfig {
        PipelineConfig {
            budget: self.budget,
            round_size: ROUND_SIZE,
            objective: WeightedObjective::new(0.8, 0.2),
            sgd: SgdConfig {
                epochs: 10,
                batch_size: 512,
                ..SgdConfig::default()
            },
            constructor: ConstructorKind::DeltaGradL(DeltaGradConfig::default()),
            annotation: AnnotationConfig {
                strategy: LabelStrategy::SuggestionPlusHumans(2),
                ..AnnotationConfig::default()
            },
            telemetry,
            checkpoint: ckpt.map(CheckpointConfig::every_round),
            ..PipelineConfig::default()
        }
    }

    fn inputs(&self, seed: u64) -> Vec<Tenant> {
        (0..self.tenants)
            .map(|k| {
                let spec = self.spec(k);
                let s = seed.wrapping_mul(0x9e37_79b9).wrapping_add(k as u64);
                let mut split = generate(&spec, s);
                weaken_split(
                    &mut split,
                    &spec,
                    &WeakenConfig {
                        seed: s,
                        ..WeakenConfig::default()
                    },
                );
                let Split { train, val, test } = split;
                Tenant {
                    name: format!("tenant-{k:02}-{}", spec.name),
                    train,
                    val,
                    test,
                }
            })
            .collect()
    }

    /// One served batch of every tenant. Returns the measurements (None
    /// when no tenant completed) and each tenant's fingerprint (None when
    /// it produced no checked result).
    fn rep(
        &self,
        i: usize,
        tenants: &[Tenant],
        dir: &Path,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> (Option<Rep>, Vec<Option<u64>>) {
        procfs::reset_peak_rss();
        let ckpt_dirs: Vec<PathBuf> = tenants.iter().map(|t| dir.join(&t.name)).collect();
        let served = self.serve_once(i, tenants, &ckpt_dirs, tr, tally);
        tally.attempted += self.tenants as u64 * (1 + self.rounds());

        // Output checks: budget accounting, and the newest checkpoint of
        // every tenant loads.
        let mut fps = vec![None; tenants.len()];
        for (k, res) in served.results.iter().enumerate() {
            let Some(res) = res else { continue };
            let (name, report) = (&tenants[k].name, &res.report);
            let checked = check::budget(&report.rounds, report.cleaned_total, self.budget)
                .and_then(|()| {
                    Checkpoint::latest_in_dir(&ckpt_dirs[k])
                        .map(|_| ())
                        .map_err(|e| format!("latest checkpoint does not load: {e}"))
                });
            match checked {
                Ok(()) => fps[k] = Some(check::fingerprint(&report.rounds, &report.final_w)),
                Err(e) => tally.fail(self.rounds(), format!("rep {i} {name}: {e}")),
            }
        }
        let rep = served.measure(tr);
        (rep, fps)
    }

    /// Submit every tenant, wait for every result: the timed part of a
    /// repetition.
    fn serve_once(
        &self,
        i: usize,
        tenants: &[Tenant],
        ckpt_dirs: &[PathBuf],
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Served {
        let traced = tr.enabled();
        let log = Arc::new(Mutex::new(Vec::new()));
        let host = TimedHost {
            inner: SimAnnotator::new(SimAnnotatorConfig::default()),
            log: Arc::clone(&log),
            tenants: tenants
                .iter()
                .enumerate()
                .map(|(k, t)| (t.name.clone(), k))
                .collect(),
            ckpt_dirs: traced.then(|| ckpt_dirs.to_vec()),
        };
        let mgr = JobManager::with_config(
            Box::new(host),
            Telemetry::disabled(),
            SchedConfig {
                workers: WORKERS,
                queue_bound: self.tenants,
            },
        );
        // Requests are built before timing: the program receives only
        // the generated data.
        let requests: Vec<JobRequest> = tenants
            .iter()
            .zip(ckpt_dirs)
            .map(|(t, ckpt)| {
                let telemetry = if traced {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                JobRequest {
                    name: t.name.clone(),
                    cfg: self.config(Some(ckpt), telemetry),
                    model: Box::new(LogisticRegression::new(
                        t.train.dim(),
                        t.train.num_classes(),
                    )),
                    train: t.train.clone(),
                    val: t.val.clone(),
                    test: t.test.clone(),
                    selector: Box::new(InflSelector::incremental()),
                    deadline_ms: DEFAULT_DEADLINE_MS,
                    resume_from: None,
                }
            })
            .collect();

        let cpu0 = procfs::sample();
        let t0 = Instant::now();
        let root = tr.open("serve", t0, SpanId::NONE, Request::new(i as u64, None));
        let mut submitted = Vec::new();
        let mut refused = 0;
        for (k, req) in requests.into_iter().enumerate() {
            let a = Instant::now();
            let res = mgr.try_submit(req);
            let b = Instant::now();
            match res {
                Ok(id) => {
                    tr.push("submit", a, b, root, Request::new(id.0, None));
                    submitted.push((k, id.0, a));
                }
                Err(e) => {
                    refused += 1;
                    let why = format!("rep {i} {}: submit refused: {e}", tenants[k].name);
                    tally.fail(1 + self.rounds(), why);
                }
            }
        }
        let mut results = vec![None; tenants.len()];
        for &(k, id, _) in &submitted {
            let a = Instant::now();
            let res = mgr.wait(JobId(id));
            tr.push("wait", a, Instant::now(), root, Request::new(id, None));
            match res {
                Ok(r) => results[k] = Some(r),
                Err(e) => {
                    let why = format!("rep {i} {}: {e}", tenants[k].name);
                    tally.fail(1 + self.rounds(), why);
                }
            }
        }
        let end = Instant::now();
        tr.close(root, end);
        let cpu = procfs::sample().since(&cpu0);
        let slices = mgr.sched_stats().slices.iter().map(|(_, n)| n).sum();
        drop(mgr); // joins the pool and the annotator thread
        let calls = log.lock().expect("host log lock").clone();
        Served {
            t0,
            end,
            root,
            submitted,
            results,
            refused,
            slices,
            cpu,
            calls,
        }
    }

    /// Fingerprint of the tenant's run through the synchronous pipeline
    /// (no checkpoints), answered in process.
    fn sync_fingerprint(&self, t: &Tenant) -> u64 {
        let cfg = self.config(None, Telemetry::disabled());
        let annotation = cfg.annotation;
        let pipeline = Pipeline::new(cfg);
        let model = LogisticRegression::new(t.train.dim(), t.train.num_classes());
        let run = Run {
            pipeline: &pipeline,
            annotation,
            model: &model,
            val: &t.val,
            test: &t.test,
        };
        let mut train = t.train.clone();
        let mut selector = InflSelector::incremental();
        let d = run.drive(
            &mut train,
            &mut selector,
            Instant::now(),
            &mut Calls::default(),
            &mut Tracer::new(false),
        );
        check::fingerprint(&d.report.rounds, &d.report.final_w)
    }
}

/// What one served repetition produced, before it is measured.
struct Served {
    t0: Instant,
    end: Instant,
    root: SpanId,
    /// `(tenant, job id, submit time)` of each admitted tenant.
    submitted: Vec<(usize, u64, Instant)>,
    /// Each tenant's result, when its job completed.
    results: Vec<Option<JobResult>>,
    refused: usize,
    slices: u64,
    cpu: procfs::Sample,
    calls: Vec<HostCall>,
}

impl Served {
    /// Timings seen from outside, from the host log against submit
    /// times; per-layer values too when `tr` is recording.
    fn measure(&self, tr: &mut Tracer) -> Option<Rep> {
        let reports: Vec<&PipelineReport> =
            self.results.iter().flatten().map(|r| &r.report).collect();
        if reports.is_empty() {
            return None;
        }
        let root = self.root;
        let mut first_batch_ms = Vec::new();
        let mut turnarounds_ms = Vec::new();
        let mut rest_ms = Vec::new();
        for &(k, id, submitted_at) in &self.submitted {
            let mut mine: Vec<&HostCall> = self.calls.iter().filter(|c| c.tenant == k).collect();
            mine.sort_by_key(|c| c.round);
            if let Some(first) = mine.first() {
                first_batch_ms.push(ms(first.requested - submitted_at));
                let req = Request::new(id, Some(0));
                tr.push_on(
                    "worker",
                    "job.first_batch",
                    submitted_at,
                    first.requested,
                    root,
                    req,
                );
            }
            let rounds = self.results[k].as_ref().map(|r| &r.report.rounds);
            for pair in mine.windows(2) {
                let (prev, next) = (pair[0], pair[1]);
                let t = ms(next.requested - prev.returned);
                turnarounds_ms.push(t);
                let req = Request::new(id, Some(next.round));
                tr.push_on(
                    "worker",
                    "job.turnaround",
                    prev.returned,
                    next.requested,
                    root,
                    req,
                );
                // Queue wait + eval + checkpoint: the turnaround less this
                // round's update and the next round's select.
                if let Some((p, n)) =
                    rounds.and_then(|rs| Some((rs.get(prev.round)?, rs.get(next.round)?)))
                {
                    rest_ms.push(t - ms(n.select_time) - ms(p.update_time));
                }
            }
            for c in &mine {
                let req = Request::new(id, Some(c.round));
                tr.push_on(
                    "annotator",
                    "host.annotate",
                    c.requested,
                    c.returned,
                    root,
                    req,
                );
            }
        }
        let clean_s = (self.end - self.t0).as_secs_f64();
        let f1: Vec<f64> = reports.iter().map(|r| r.final_test_f1()).collect();
        let mut rep = Rep {
            setup_s: median(&first_batch_ms).unwrap_or(0.0) / 1e3,
            clean_s,
            rounds: reports.iter().map(|r| r.rounds.len()).sum(),
            turnarounds_ms,
            test_f1: mean(&f1),
            peak_rss_mb: procfs::peak_rss_mb(),
            ..Rep::default()
        };
        if !tr.enabled() {
            return Some(rep);
        }
        let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let host_ms: Vec<f64> = self
            .calls
            .iter()
            .map(|c| ms(c.returned - c.requested))
            .collect();
        let init_ms: Vec<f64> = reports.iter().map(|r| ms(r.init_time)).collect();
        let select_ms: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.rounds.iter().map(|x| ms(x.select_time)))
            .collect();
        let first_select: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.rounds.first())
            .map(|x| ms(x.select_time))
            .collect();
        let ckpt_bytes: Vec<f64> = self
            .calls
            .iter()
            .filter_map(|c| c.ckpt_bytes)
            .map(|b| b as f64)
            .collect();
        let write_ms: Vec<f64> = self
            .results
            .iter()
            .flatten()
            .filter_map(|r| checkpoint_write_ms(r.telemetry_json.as_deref()?))
            .collect();
        let l = &mut rep.layers;
        *l = round_layers(reports.iter().flat_map(|r| r.rounds.iter()));
        l.insert("init.ms", med(&init_ms));
        l.insert("select.ms", med(&select_ms));
        l.insert("select.first_ms", med(&first_select));
        l.insert("annotate.ms", med(&host_ms));
        l.insert("host.busy_ms", host_ms.iter().sum());
        l.insert("host.requests", host_ms.len() as f64);
        l.insert("ckpt.bytes", med(&ckpt_bytes));
        l.insert("ckpt.write_ms", mean(&write_ms));
        l.insert("serve.first_batch_ms", med(&first_batch_ms));
        l.insert("serve.round_rest_ms", med(&rest_ms));
        l.insert("sched.slices", self.slices as f64);
        l.insert("serve.refused", self.refused as f64);
        l.insert("proc.cpu_s", self.cpu.cpu_s);
        l.insert("proc.cpu_util", self.cpu.cpu_s / clean_s);
        l.insert("proc.ctxsw_nonvol", self.cpu.ctxsw_nonvol as f64);
        l.insert("unattributed_ms", tr.self_ns(root) as f64 / 1e6);
        l.insert("traced.clean_s", clean_s);
        Some(rep)
    }
}

/// Mean `checkpoint.write_ms` of one job's `telemetry.v1` export.
fn checkpoint_write_ms(doc: &str) -> Option<f64> {
    let v = chef_obs::parse_json(doc).ok()?;
    let h = v.get("histograms")?.get("checkpoint.write_ms")?;
    let count = h.get("count")?.as_f64()?;
    (count > 0.0)
        .then(|| h.get("sum_ms")?.as_f64().map(|s| s / count))
        .flatten()
}
