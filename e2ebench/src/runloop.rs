//! Drives one cleaning run through the public `RoundLoop` API, timing
//! every call into a layer from outside: `Pipeline::round_loop` (init),
//! `RoundLoop::next_batch` (select), `AnnotationPhase::decide_batch`
//! (annotate), `RoundLoop::provide` (update + eval + checkpoint) and
//! `RoundLoop::finish`.

use crate::procfs::{self, Sample};
use crate::stats::{mean, median};
use crate::trace::{Request, SpanId, Tracer};
use chef_core::{
    AnnotationConfig, AnnotationPhase, Pipeline, RoundReport, RoundStep, SampleSelector,
    StorePipelineReport,
};
use chef_model::{DatasetStore, Model};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Phases whose page faults are counted separately.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// `MmapStore::open_with`.
    Open = 0,
    /// `Pipeline::round_loop`.
    Init = 1,
    /// `RoundLoop::next_batch`.
    Select = 2,
    /// `RoundLoop::provide`.
    Provide = 3,
}

/// Durations and fault counts of the calls one run made, and where its
/// spans go.
#[derive(Debug, Default)]
pub struct Calls {
    traced: bool,
    root: SpanId,
    job: u64,
    open_ms: f64,
    init_ms: f64,
    select_ms: Vec<f64>,
    annotate_ms: Vec<f64>,
    provide_rest_ms: Vec<f64>,
    minflt: [u64; 4],
    majflt: [u64; 4],
}

impl Calls {
    /// Spans go under `root`, tagged with `job`; fault counters are read
    /// around each call only when `traced`.
    pub fn new(traced: bool, root: SpanId, job: u64) -> Self {
        Calls {
            traced,
            root,
            job,
            ..Calls::default()
        }
    }

    /// Counter sample before a call (`None` when untraced).
    pub fn before(&self) -> Option<Sample> {
        self.traced.then(procfs::sample)
    }

    /// Charge the faults since `before` to `phase`.
    pub fn after(&mut self, phase: Phase, before: Option<Sample>) {
        if let Some(b) = before {
            let d = procfs::sample().since(&b);
            self.minflt[phase as usize] += d.minflt;
            self.majflt[phase as usize] += d.majflt;
        }
    }

    /// Record the store-open duration.
    pub fn opened(&mut self, took: Duration) {
        self.open_ms = ms(took);
    }

    /// Per-layer values of the run: call timings plus the counters its
    /// round reports carry.
    pub fn layers(&self, report: &StorePipelineReport) -> BTreeMap<&'static str, f64> {
        let mut l = round_layers(report.rounds.iter());
        for i in 0..4 {
            l.insert(MINFLT[i], self.minflt[i] as f64);
            l.insert(MAJFLT[i], self.majflt[i] as f64);
        }
        l.insert("store.open_ms", self.open_ms);
        l.insert("init.ms", self.init_ms);
        l.insert("select.ms", median(&self.select_ms).unwrap_or(0.0));
        l.insert(
            "select.first_ms",
            self.select_ms.first().copied().unwrap_or(0.0),
        );
        l.insert("annotate.ms", median(&self.annotate_ms).unwrap_or(0.0));
        l.insert("host.busy_ms", self.annotate_ms.iter().sum());
        l.insert("host.requests", self.annotate_ms.len() as f64);
        l.insert(
            "provide.rest_ms",
            median(&self.provide_rest_ms).unwrap_or(0.0),
        );
        l
    }
}

/// Fault metric names, indexed by [`Phase`].
const MINFLT: [&str; 4] = [
    "store.minflt.open",
    "store.minflt.init",
    "store.minflt.select",
    "store.minflt.provide",
];
const MAJFLT: [&str; 4] = [
    "store.majflt.open",
    "store.majflt.init",
    "store.majflt.select",
    "store.majflt.provide",
];

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Layer values carried by round reports, whoever drove the rounds:
/// selector and constructor counters, update time and abstains.
pub fn round_layers<'a>(
    rounds: impl Iterator<Item = &'a RoundReport>,
) -> BTreeMap<&'static str, f64> {
    let rounds: Vec<&RoundReport> = rounds.collect();
    let sum = |f: &dyn Fn(&RoundReport) -> usize| rounds.iter().map(|r| f(r) as f64).sum::<f64>();
    let exact = sum(&|r| r.telemetry.constructor.exact_steps);
    let replay = sum(&|r| r.telemetry.constructor.replay_steps);
    let update_ms: Vec<f64> = rounds.iter().map(|r| ms(r.update_time)).collect();
    let hit_rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.telemetry.selector.bound_hit_rate)
        .collect();
    BTreeMap::from([
        ("select.scored", sum(&|r| r.telemetry.selector.scored)),
        ("select.pruned", sum(&|r| r.telemetry.selector.pruned)),
        (
            "select.grad_evals",
            sum(&|r| r.telemetry.selector.grad_evals),
        ),
        ("select.hvp_evals", sum(&|r| r.telemetry.selector.hvp_evals)),
        ("select.bound_hit_rate", mean(&hit_rates)),
        (
            "annotate.abstains",
            sum(&|r| r.telemetry.annotation.abstains),
        ),
        ("update.ms", median(&update_ms).unwrap_or(0.0)),
        ("update.exact_steps", exact),
        ("update.replay_steps", replay),
        (
            "update.replay_frac",
            if exact + replay > 0.0 {
                replay / (exact + replay)
            } else {
                0.0
            },
        ),
        (
            "update.correction_grads",
            sum(&|r| r.telemetry.constructor.correction_grads),
        ),
    ])
}

/// What one driven run produced.
pub struct Driven {
    /// The loop's final report.
    pub report: StorePipelineReport,
    /// `t0` → first batch ready.
    pub setup: Duration,
    /// `provide` start → next batch ready, per round after the first.
    pub turnarounds_ms: Vec<f64>,
}

/// The inputs and configuration of one in-process run.
pub struct Run<'a> {
    /// Pipeline to drive.
    pub pipeline: &'a Pipeline,
    /// Annotation setup, answered in process by `AnnotationPhase`.
    pub annotation: AnnotationConfig,
    /// Model architecture.
    pub model: &'a dyn Model,
    /// Validation set.
    pub val: &'a dyn DatasetStore,
    /// Test set.
    pub test: &'a dyn DatasetStore,
}

impl Run<'_> {
    /// Run init, every round and finish on `data`, recording a span per
    /// call in `tr`. `t0` is when the inputs were handed over.
    pub fn drive(
        &self,
        data: &mut dyn DatasetStore,
        selector: &mut dyn SampleSelector,
        t0: Instant,
        calls: &mut Calls,
        tr: &mut Tracer,
    ) -> Driven {
        let (root, job) = (calls.root, calls.job);
        let req = |round| Request { job, round };

        let before = calls.before();
        let a = Instant::now();
        let mut rl = self
            .pipeline
            .round_loop(self.model, data, self.val, self.test, selector);
        let b = Instant::now();
        calls.after(Phase::Init, before);
        calls.init_ms = ms(b - a);
        tr.push("init", a, b, root, req(None));

        let phase = AnnotationPhase::new(self.annotation);
        let mut setup = None;
        let mut turnarounds_ms = Vec::new();
        let mut provided_at: Option<Instant> = None;
        loop {
            let round = rl.round();
            let before = calls.before();
            let a = Instant::now();
            let step = rl.next_batch();
            let b = Instant::now();
            calls.after(Phase::Select, before);
            tr.push("select", a, b, root, req(Some(round)));
            let RoundStep::Awaiting(batch) = step else {
                break;
            };
            calls.select_ms.push(ms(b - a));
            setup.get_or_insert(b - t0);
            if let Some(p) = provided_at {
                turnarounds_ms.push(ms(b - p));
            }

            let a = Instant::now();
            let (outcomes, stats) = phase.decide_batch(&batch);
            let b = Instant::now();
            tr.push("annotate", a, b, root, req(Some(round)));
            calls.annotate_ms.push(ms(b - a));
            let annotate_time = b - a;

            let before = calls.before();
            let a = Instant::now();
            let update = rl.provide(&outcomes, stats, annotate_time).update_time;
            let b = Instant::now();
            calls.after(Phase::Provide, before);
            tr.push("provide", a, b, root, req(Some(round)));
            calls
                .provide_rest_ms
                .push(ms((b - a).saturating_sub(update)));
            provided_at = Some(a);
        }

        let a = Instant::now();
        let report = rl.finish();
        tr.push("finish", a, Instant::now(), root, req(None));
        Driven {
            report,
            setup: setup.unwrap_or_else(|| t0.elapsed()),
            turnarounds_ms,
        }
    }
}
