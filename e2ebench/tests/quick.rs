//! Quick mode of every workload: each emits every metric `BENCHMARK.json`
//! names, with its unit, and passes its output check.

use chef_e2ebench::bench::{END_TO_END, PER_LAYER};
use chef_obs::{parse_json, JsonValue};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn catalogue(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let owned = |c: &[(&str, &str)]| {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(catalogue(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(catalogue(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, ["paper-inmem", "ooc-window", "serve-durable"]);
}

/// Run one quick workload and return its result line's metrics.
fn quick(workload: &str, trace: u8) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_chef-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
            "--quick",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run chef-e2ebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("result line");
    let res = parse_json(last).expect("result line is JSON");
    assert_eq!(
        res.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{workload}: {stdout}"
    );
    assert_eq!(res.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(res
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .is_some_and(|n| n >= 1));
    res.get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect()
}

fn assert_emits(workload: &str, nonzero: &[&str]) {
    let doc = benchmark_json();
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let got = quick(workload, trace);
        let named: Vec<(String, String)> =
            got.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
        assert_eq!(named, catalogue(&doc, list), "{workload} --trace {trace}");
        if trace == 0 {
            for (name, value, _) in &got {
                assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
            }
        }
        for (name, value, _) in got.iter().filter(|(n, ..)| nonzero.contains(&n.as_str())) {
            assert!(*value > 0.0, "{workload}: {name} is {value}");
        }
    }
}

#[test]
fn paper_inmem_quick() {
    assert_emits(
        "paper-inmem",
        &[
            "init.ms",
            "select.first_ms",
            "select.pruned",
            "update.replay_steps",
            "proc.cpu_s",
        ],
    );
}

#[test]
fn ooc_window_quick() {
    assert_emits(
        "ooc-window",
        &[
            "store.open_ms",
            "store.blocks_verified",
            "store.minflt.init",
            "select.scored",
            "update.exact_steps",
        ],
    );
}

#[test]
fn serve_durable_quick() {
    assert_emits(
        "serve-durable",
        &[
            "ckpt.bytes",
            "ckpt.write_ms",
            "serve.first_batch_ms",
            "sched.slices",
            "host.requests",
        ],
    );
}
