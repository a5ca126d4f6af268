//! What every workload shares: the metric catalogue, one repetition's
//! measurements, the timed repeat loop, and the result lines.

use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use chef_obs::JsonWriter;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("clean_s", "s"),
    ("round_ms_p50", "ms"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.open_ms", "ms"),
    ("store.verify_ms", "ms"),
    ("store.blocks_verified", "count"),
    ("store.lazy_verify_hits", "count"),
    ("store.minflt.open", "count"),
    ("store.minflt.init", "count"),
    ("store.minflt.select", "count"),
    ("store.minflt.provide", "count"),
    ("store.majflt.open", "count"),
    ("store.majflt.init", "count"),
    ("store.majflt.select", "count"),
    ("store.majflt.provide", "count"),
    ("init.ms", "ms"),
    ("select.ms", "ms"),
    ("select.first_ms", "ms"),
    ("select.scored", "count"),
    ("select.pruned", "count"),
    ("select.grad_evals", "count"),
    ("select.hvp_evals", "count"),
    ("select.bound_hit_rate", "ratio"),
    ("annotate.ms", "ms"),
    ("annotate.abstains", "count"),
    ("host.busy_ms", "ms"),
    ("host.requests", "count"),
    ("update.ms", "ms"),
    ("update.exact_steps", "count"),
    ("update.replay_steps", "count"),
    ("update.replay_frac", "ratio"),
    ("update.correction_grads", "count"),
    ("provide.rest_ms", "ms"),
    ("ckpt.bytes", "B"),
    ("ckpt.write_ms", "ms"),
    ("serve.first_batch_ms", "ms"),
    ("serve.round_rest_ms", "ms"),
    ("sched.slices", "count"),
    ("serve.refused", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.ctxsw_nonvol", "count"),
    ("unattributed_ms", "ms"),
    ("traced.clean_s", "s"),
];

/// One repetition of a workload: one whole cleaning run, or one served
/// batch of tenants.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Inputs handed over → first annotation batch ready.
    pub setup_s: f64,
    /// Inputs handed over → last result back.
    pub clean_s: f64,
    /// Completed rounds, summed over tenants.
    pub rounds: usize,
    /// Batch turnarounds: replies handed back → next batch ready.
    pub turnarounds_ms: Vec<f64>,
    /// Final test F1 (mean over tenants when served).
    pub test_f1: f64,
    /// Peak resident set (`VmHWM`) during the repetition.
    pub peak_rss_mb: f64,
    /// Per-layer values of this repetition, filled by traced runs.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (rounds, plus jobs when served).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why, one line per failure.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count `ops` operations that failed for `why`.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

/// A workload: generates its inputs, then times repetitions.
pub trait Workload {
    /// Bytes the workload writes to scratch.
    fn scratch_bytes(&self) -> u64;

    /// Generate the inputs from `seed`, then time repetitions for
    /// `seconds`, recording spans in `tr` and files under `scratch`.
    fn run(&self, seed: u64, seconds: f64, tr: &mut Tracer, scratch: &Path) -> Outcome;
}

/// Most timed repetitions one run makes, however fast they are.
const MAX_REPS: usize = 50;

/// Run `rep(0)` once as a warm-up, then `rep(1..)` until `seconds` have
/// passed: at least once, and another repetition only while it is expected
/// to finish in time. Returns the timed repetitions' results. The warm-up's
/// result is dropped, so `rep` records anything it checks itself: a first
/// run pays for cold caches and freshly faulted heap, and is checked but
/// not measured.
pub fn repeat<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    rep(0);
    let start = Instant::now();
    let mut out = Vec::new();
    let mut durations = Vec::new();
    loop {
        let t = Instant::now();
        out.push(rep(out.len() + 1));
        durations.push(t.elapsed().as_secs_f64());
        let expected_end = start.elapsed().as_secs_f64() + median(&durations).unwrap_or(0.0);
        if out.len() >= MAX_REPS || expected_end > seconds {
            return out;
        }
    }
}

/// Everything a workload hands back to be printed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Successful repetitions.
    pub reps: Vec<Rep>,
    /// Extra key/values for the info line (fingerprints, sizes).
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    fn all_turnarounds(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.turnarounds_ms.iter().copied())
            .collect()
    }

    /// End-to-end metric values, by name.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let med = |f: &dyn Fn(&Rep) -> f64| {
            median(&self.reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        BTreeMap::from([
            ("setup_s", med(&|r| r.setup_s)),
            ("clean_s", med(&|r| r.clean_s)),
            (
                "round_ms_p50",
                median(&self.all_turnarounds()).unwrap_or(0.0),
            ),
            ("rounds_per_s", med(&|r| r.rounds as f64 / r.clean_s)),
            ("peak_rss_mb", med(&|r| r.peak_rss_mb)),
        ])
    }

    /// Per-layer metric values, by name: each the median over repetitions,
    /// 0 for a layer the workload bypasses.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let xs: Vec<f64> = self
                    .reps
                    .iter()
                    .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name, median(&xs).unwrap_or(0.0))
            })
            .collect()
    }

    /// Print the info line, then the result line, to standard output.
    /// `env` describes the run environment.
    pub fn print(mut self, traced: bool, env: &[(&'static str, String)]) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let values = if traced {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        for &(name, _) in catalogue {
            match values.get(name) {
                Some(v) if v.is_finite() => {}
                _ => self
                    .tally
                    .problems
                    .push(format!("metric {name} missing or not finite")),
            }
        }
        if self.reps.is_empty() {
            self.tally.problems.push("no repetition completed".into());
        }

        let turnarounds = self.all_turnarounds();
        let mut info = JsonWriter::new();
        info.begin_object();
        info.key("e2ebench");
        info.begin_object();
        for (k, v) in env.iter().chain(&self.info) {
            info.field_str(k, v);
        }
        info.field_u64("reps", self.reps.len() as u64);
        let per_rep =
            |f: fn(&Rep) -> f64| format!("{:?}", self.reps.iter().map(f).collect::<Vec<_>>());
        info.field_str("clean_s_per_rep", &per_rep(|r| r.clean_s));
        info.field_str("setup_s_per_rep", &per_rep(|r| r.setup_s));
        info.field_str("test_f1_per_rep", &per_rep(|r| r.test_f1));
        info.field_str("peak_rss_mb_per_rep", &per_rep(|r| r.peak_rss_mb));
        info.field_u64("turnaround_samples", turnarounds.len() as u64);
        // The tail is reported only where ≥10 samples lie beyond it.
        match tail_percentile(&turnarounds, 90.0) {
            Some(p90) => info.field_f64("round_ms_p90", p90),
            None => info.field_str("round_ms_p90", "not reported: fewer than 100 turnarounds"),
        }
        info.key("problems");
        info.begin_array();
        for p in &self.tally.problems {
            info.string(p);
        }
        info.end_array();
        info.end_object();
        info.end_object();
        println!("{}", info.finish());

        let mut out = JsonWriter::new();
        out.begin_object();
        out.field_bool(
            "correct",
            self.tally.problems.is_empty() && self.tally.failed == 0,
        );
        out.field_u64("attempted", self.tally.attempted.max(1));
        out.field_u64("failed", self.tally.failed);
        out.key("metrics");
        out.begin_object();
        for &(name, unit) in catalogue {
            out.key(name);
            out.begin_object();
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            out.field_f64("value", v);
            out.field_str("unit", unit);
            out.end_object();
        }
        out.end_object();
        out.end_object();
        println!("{}", out.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_metric_name, valid_unit};

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn repeat_warms_up_then_runs_at_least_once_and_at_most_max_reps() {
        let mut calls = Vec::new();
        assert_eq!(
            repeat(0.0, |i| {
                calls.push(i);
                i
            }),
            vec![1]
        );
        assert_eq!(calls, vec![0, 1]);
        assert_eq!(repeat(1e9, |i| i).len(), MAX_REPS);
    }
}
