//! Golden-file round-trip tests for the three versioned on-disk formats:
//! `telemetry.v1` (exported JSON), `checkpoint.v1` (header + JSON +
//! binary payload) and `store.v1` (the out-of-core dataset manifest,
//! DESIGN.md §15).
//!
//! Two guarantees are pinned here:
//!
//! 1. **Byte fidelity** — serialize → parse → re-serialize is
//!    byte-identical, both for the committed golden files (guarding
//!    against silent format drift across releases) and for freshly
//!    produced documents;
//! 2. **Version rejection** — a document declaring an unknown schema
//!    version is refused with an error naming both versions, never a
//!    panic.
//!
//! Regenerate the golden files after an *intentional* format change with
//! `CHEF_REGEN_GOLDEN=1 cargo test --test schema_roundtrip`.

use chef_core::{Checkpoint, CheckpointError, LabelPatch, RoundReport, Selection};
use chef_obs::{expect_schema, parse_json, JsonWriter, RoundTelemetry, SelectorTelemetry};
use chef_train::{BatchPlan, TraceStore, TrainTrace};
use std::path::PathBuf;
use std::time::Duration;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .join("tests/golden")
}

fn regen() -> bool {
    std::env::var_os("CHEF_REGEN_GOLDEN").is_some()
}

/// A small but fully populated checkpoint — every section of the format
/// (label patches, round reports with telemetry, DeltaGrad-L trace,
/// Increm-Infl provenance) is exercised.
fn golden_checkpoint() -> Checkpoint {
    use chef_core::{IncremSnapshot, IncremStats, SelectorCheckpoint};
    let m = 3;
    Checkpoint {
        round: 2,
        spent: 10,
        cleaned_total: 8,
        early_terminated: false,
        initial_val_f1: 0.625,
        initial_test_f1: 0.5987654321,
        init_ns: 1_234_567,
        annotation_seed: 11,
        sgd_seed: 3,
        attempted: vec![1, 4, 9],
        labels: vec![
            LabelPatch {
                index: 4,
                clean: true,
                probs: vec![0.0, 1.0],
            },
            LabelPatch {
                index: 9,
                clean: false,
                probs: vec![0.25, 0.75],
            },
        ],
        rounds: vec![RoundReport {
            round: 0,
            selected: vec![
                Selection {
                    index: 4,
                    suggested: Some(1),
                },
                Selection {
                    index: 9,
                    suggested: None,
                },
            ],
            cleaned: 1,
            ambiguous: 1,
            val_f1: 0.7,
            test_f1: 0.68,
            select_time: Duration::from_nanos(1_500_000),
            update_time: Duration::from_nanos(2_500_000),
            selector_stats: Some(IncremStats {
                pool: 50,
                candidates: 7,
            }),
            telemetry: RoundTelemetry {
                round: 0,
                selector: SelectorTelemetry {
                    selector: "Infl+Increm".into(),
                    pool: 50,
                    pruned: 43,
                    scored: 7,
                    grad_evals: 21,
                    hvp_evals: 12,
                    bound_hit_rate: 0.86,
                    kernel_path: "gemm".into(),
                    select_ms: 1.5,
                },
                ..RoundTelemetry::default()
            },
        }],
        w_raw: vec![0.1, -0.2, 0.3],
        w_eval: vec![0.05, -0.15, 0.25],
        trace: TrainTrace {
            plan: BatchPlan::new(12, 4, 2, 3),
            params: TraceStore::from_flat(
                m,
                (0..6).flat_map(|t| vec![t as f64 * 0.5; m]).collect(),
            ),
            grads: TraceStore::from_flat(
                m,
                (0..6).flat_map(|t| vec![-(t as f64) * 0.25; m]).collect(),
            ),
            epoch_checkpoints: vec![vec![1.0; m], vec![2.0; m]],
            lr: 0.1,
        },
        selector: SelectorCheckpoint::Infl {
            increm: Some(IncremSnapshot {
                w0: vec![0.0; m],
                grads0: vec![0.5; 2 * m],
                class_grads0: vec![0.25; 2 * 2 * m],
                hessian_norms0: vec![1.0, 2.0],
                class_hessian_norms0: vec![0.1, 0.2, 0.3, 0.4],
                num_params: m,
                num_classes: 2,
                slack: 1.0,
            }),
        },
    }
}

/// A hand-assembled telemetry.v1 export document with deterministic
/// content (real exports carry machine-dependent context and wall-clock
/// histograms; the golden file pins the *format*, not one machine's run).
fn golden_telemetry_doc() -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", chef_obs::SCHEMA_VERSION);
    w.field_str("kind", "pipeline");
    w.key("context");
    w.begin_object();
    w.field_u64("available_cores", 8);
    w.field_bool("telemetry_feature", true);
    w.end_object();
    w.key("counters");
    w.begin_object();
    w.field_u64("annotation.cleaned", 8);
    w.field_u64("pipeline.rounds", 2);
    w.field_u64("selector.scored", 14);
    w.end_object();
    w.key("gauges");
    w.begin_object();
    w.field_f64("pipeline.val_f1", 0.8125);
    w.end_object();
    w.key("histograms");
    w.begin_object();
    w.end_object();
    w.key("spans");
    w.begin_object();
    w.end_object();
    w.key("rounds");
    w.begin_array();
    for r in &golden_checkpoint().rounds {
        r.telemetry.write_json(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[test]
fn telemetry_golden_file_reserializes_byte_identical() {
    let path = golden_dir().join("telemetry_v1_golden.json");
    if regen() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, golden_telemetry_doc()).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run CHEF_REGEN_GOLDEN=1 cargo test --test schema_roundtrip");
    let doc = parse_json(&golden).expect("golden telemetry parses");
    expect_schema(&doc, "telemetry.v1").expect("golden declares telemetry.v1");
    // Parse → re-serialize is byte-identical.
    assert_eq!(doc.to_json(), golden);

    // Every per-round entry also round-trips through the typed structs.
    let rounds = doc.get("rounds").unwrap().as_array().unwrap();
    assert!(!rounds.is_empty());
    for r in rounds {
        let rt = RoundTelemetry::from_json(r).expect("round entry parses");
        let mut w = JsonWriter::new();
        rt.write_json(&mut w);
        assert_eq!(w.finish(), r.to_json());
    }
}

#[test]
fn freshly_written_telemetry_round_trips() {
    let doc = golden_telemetry_doc();
    let parsed = parse_json(&doc).unwrap();
    assert_eq!(parsed.to_json(), doc);
}

#[test]
fn unknown_telemetry_version_is_rejected_with_both_versions_named() {
    let doc = parse_json(r#"{"schema":"telemetry.v9","rounds":[]}"#).unwrap();
    let err = expect_schema(&doc, "telemetry.v1").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("telemetry.v9"),
        "error names found version: {msg}"
    );
    assert!(
        msg.contains("telemetry.v1"),
        "error names expected version: {msg}"
    );
}

#[test]
fn malformed_round_telemetry_errors_instead_of_panicking() {
    let doc = parse_json(r#"{"round":0,"selector":{}}"#).unwrap();
    let err = RoundTelemetry::from_json(&doc).unwrap_err();
    assert!(!err.to_string().is_empty());
    // A structurally wrong value (array instead of object) also errors.
    let doc = parse_json("[1,2,3]").unwrap();
    assert!(RoundTelemetry::from_json(&doc).is_err());
}

#[test]
fn checkpoint_golden_file_reserializes_byte_identical() {
    let path = golden_dir().join("checkpoint_v1_golden.bin");
    if regen() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, golden_checkpoint().to_bytes()).unwrap();
    }
    let golden = std::fs::read(&path)
        .expect("golden file missing — run CHEF_REGEN_GOLDEN=1 cargo test --test schema_roundtrip");
    // The committed bytes still decode (format drift guard)…
    let decoded = Checkpoint::from_bytes(&golden).expect("golden checkpoint decodes");
    // …re-serialize byte-identically…
    assert_eq!(decoded.to_bytes(), golden);
    // …and match today's serializer output for the same logical content.
    assert_eq!(golden_checkpoint().to_bytes(), golden);
}

/// The committed golden checkpoint was written before `TrainTrace` moved
/// its provenance into flat `TraceStore` arenas. Because `checkpoint.v1`
/// always stored the rows concatenated, a pre-TraceStore file must load
/// into the arena with every row bit-identical — the arena is an
/// in-memory layout change only, invisible on disk.
#[test]
fn pre_tracestore_golden_checkpoint_loads_with_exact_rows() {
    let golden = std::fs::read(golden_dir().join("checkpoint_v1_golden.bin"))
        .expect("golden file missing — run CHEF_REGEN_GOLDEN=1 cargo test --test schema_roundtrip");
    let decoded = Checkpoint::from_bytes(&golden).expect("golden checkpoint decodes");
    let m = decoded.w_raw.len();
    assert_eq!(decoded.trace.params.row_len(), m);
    assert_eq!(decoded.trace.params.len(), 6);
    assert_eq!(decoded.trace.grads.len(), 6);
    for t in 0..6 {
        assert_eq!(decoded.trace.params.row(t), vec![t as f64 * 0.5; m]);
        assert_eq!(decoded.trace.grads.row(t), vec![-(t as f64) * 0.25; m]);
    }
    assert_eq!(decoded.trace.epoch_checkpoints.len(), 2);
    // And the arena re-serializes to the very bytes it was read from.
    assert_eq!(decoded.to_bytes(), golden);
}

/// A hand-assembled `store.v1` manifest with every field populated and
/// the invariants the parser enforces (per-chunk `bytes = rows·dim·8`,
/// full chunks of `chunk_rows` rows except a short tail, rows summing
/// to `n`) satisfied.
fn golden_store_manifest() -> chef_data::Manifest {
    use chef_data::store::ChunkMeta;
    let dim = 3;
    chef_data::Manifest {
        version: 1,
        n: 10,
        dim,
        num_classes: 2,
        chunk_rows: 4,
        block_bytes: 0,
        labels_bytes: 250,
        labels_fnv: 0xdead_beef_0bad_f00d,
        labels_fnv_words: 0,
        chunks: vec![
            ChunkMeta {
                rows: 4,
                bytes: (4 * dim * 8) as u64,
                fnv: 0x0123_4567_89ab_cdef,
                blocks: vec![],
            },
            ChunkMeta {
                rows: 4,
                bytes: (4 * dim * 8) as u64,
                fnv: 0xfedc_ba98_7654_3210,
                blocks: vec![],
            },
            ChunkMeta {
                rows: 2,
                bytes: (2 * dim * 8) as u64,
                fnv: 0x0f1e_2d3c_4b5a_6978,
                blocks: vec![],
            },
        ],
    }
}

/// The v2 twin: same logical content plus the per-block checksum table
/// (one 32-byte block per 96-byte shard would be silly, so the golden
/// uses a 64-byte block size giving two blocks per full shard and one
/// for the short tail).
fn golden_store_manifest_v2() -> chef_data::Manifest {
    use chef_data::store::ChunkMeta;
    let dim = 3;
    chef_data::Manifest {
        version: 2,
        n: 10,
        dim,
        num_classes: 2,
        chunk_rows: 4,
        block_bytes: 64,
        labels_bytes: 250,
        labels_fnv: 0xdead_beef_0bad_f00d,
        labels_fnv_words: 0xc0ff_ee00_dead_1234,
        chunks: vec![
            ChunkMeta {
                rows: 4,
                bytes: (4 * dim * 8) as u64,
                fnv: 0x0123_4567_89ab_cdef,
                blocks: vec![0x1111_2222_3333_4444, 0x5555_6666_7777_8888],
            },
            ChunkMeta {
                rows: 4,
                bytes: (4 * dim * 8) as u64,
                fnv: 0xfedc_ba98_7654_3210,
                blocks: vec![0x9999_aaaa_bbbb_cccc, 0xdddd_eeee_ffff_0000],
            },
            ChunkMeta {
                rows: 2,
                bytes: (2 * dim * 8) as u64,
                fnv: 0x0f1e_2d3c_4b5a_6978,
                blocks: vec![0x1357_9bdf_0246_8ace],
            },
        ],
    }
}

#[test]
fn store_manifest_golden_file_reserializes_byte_identical() {
    let path = golden_dir().join("store_v1_golden.manifest");
    if regen() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, golden_store_manifest().render()).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run CHEF_REGEN_GOLDEN=1 cargo test --test schema_roundtrip");
    // The committed text still parses (format drift guard)…
    let decoded = chef_data::Manifest::parse(&golden).expect("golden manifest parses");
    // …re-renders byte-identically…
    assert_eq!(decoded.render(), golden);
    // …and matches today's renderer for the same logical content.
    assert_eq!(golden_store_manifest().render(), golden);
}

#[test]
fn store_manifest_v2_golden_file_reserializes_byte_identical() {
    let path = golden_dir().join("store_v2_golden.manifest");
    if regen() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, golden_store_manifest_v2().render()).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run CHEF_REGEN_GOLDEN=1 cargo test --test schema_roundtrip");
    let decoded = chef_data::Manifest::parse(&golden).expect("golden v2 manifest parses");
    assert_eq!(decoded.render(), golden);
    assert_eq!(golden_store_manifest_v2().render(), golden);
    // Block-table accessors agree with the hand-assembled layout.
    assert_eq!(decoded.num_blocks(0), 2);
    assert_eq!(decoded.num_blocks(2), 1);
    assert_eq!(decoded.block_fnv(1, 1), 0xdddd_eeee_ffff_0000);
    assert_eq!(decoded.effective_block_bytes(0), 64);
}

#[test]
fn unknown_store_version_is_rejected_with_clear_error() {
    let text = golden_store_manifest().render().replacen("v1", "v6", 1);
    match chef_data::Manifest::parse(&text) {
        Err(err @ chef_data::StoreError::Version(_)) => {
            let msg = err.to_string();
            assert!(msg.contains("chef-store.v6"), "names found version: {msg}");
            assert!(
                msg.contains("chef-store.v1"),
                "names supported version: {msg}"
            );
            assert!(
                msg.contains("chef-store.v2"),
                "names both supported versions: {msg}"
            );
        }
        other => panic!("expected Version error, got {other:?}"),
    }
}

#[test]
fn unknown_store_v2_bump_is_rejected_with_clear_error() {
    let text = golden_store_manifest_v2().render().replacen("v2", "v9", 1);
    match chef_data::Manifest::parse(&text) {
        Err(err @ chef_data::StoreError::Version(_)) => {
            let msg = err.to_string();
            assert!(msg.contains("chef-store.v9"), "names found version: {msg}");
        }
        other => panic!("expected Version error, got {other:?}"),
    }
}

#[test]
fn unknown_checkpoint_version_is_rejected_with_clear_error() {
    let mut bytes = golden_checkpoint().to_bytes();
    bytes[12] = b'7'; // checkpoint.v1 → checkpoint.v7 in the header
    match Checkpoint::from_bytes(&bytes) {
        Err(CheckpointError::UnsupportedVersion(v)) => {
            assert_eq!(v, "checkpoint.v7");
            let msg = CheckpointError::UnsupportedVersion(v).to_string();
            assert!(
                msg.contains("checkpoint.v1"),
                "error names the supported version: {msg}"
            );
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
