//! The benchmark's inputs are a function of the seed alone, its count
//! metrics repeat exactly when one session removes interleaving, and
//! `BENCHMARK.json` names exactly the metrics the runs report.

use perfbench::{run, Corpus, OpStream, Report, Settings, Window, Workload, GATED_E2E};
use std::path::PathBuf;
use std::sync::Arc;

fn stream_bytes(workload: Workload, seed: u64) -> Vec<u8> {
    let corpus = Arc::new(Corpus::new(workload, seed));
    let mut out = Vec::new();
    for session in 0..2 {
        let mut stream = OpStream::new(Arc::clone(&corpus), seed, session, 2);
        for _ in 0..2_000 {
            out.extend(format!("{:?}\n", stream.next_op()).bytes());
        }
    }
    out
}

#[test]
fn same_seed_gives_a_byte_identical_op_stream() {
    for w in Workload::ALL {
        assert_eq!(stream_bytes(w, 7), stream_bytes(w, 7), "{}", w.name());
        assert_ne!(stream_bytes(w, 7), stream_bytes(w, 8), "{}", w.name());
    }
}

/// A traced single-session run of the full-size workload, with a fixed op
/// count instead of a time window.
fn small_run(workload: Workload, seed: u64, tag: &str) -> Report {
    let run_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}-{seed}", workload.name()));
    let settings = Settings {
        sessions: 1,
        run_dir: run_dir.clone(),
        ..Settings::new(workload, seed, Window::Ops(60), true)
    };
    let report = run(&settings).expect("benchmark run");
    std::fs::remove_dir_all(&run_dir).expect("remove run directory");
    report
}

#[test]
fn count_metrics_repeat_exactly_with_one_session() {
    for w in Workload::ALL {
        let a = small_run(w, 3, "a");
        let b = small_run(w, 3, "b");
        assert_eq!(a.failed, 0, "{}", w.name());
        for name in [
            "access.index_entries_per_hit",
            "access.docs_evaluated_per_hit",
            "wal.bytes_per_user_byte",
            "space_amp",
        ] {
            assert!(a.get(name).is_some(), "{} {name}", w.name());
            assert_eq!(a.get(name), b.get(name), "{} {name}", w.name());
        }
    }
}

#[test]
fn another_seed_passes_every_answer_check() {
    for w in Workload::ALL {
        let r = small_run(w, 11, "other-seed");
        assert!(r.attempted > 0, "{}", w.name());
        assert_eq!(r.failed, 0, "{}", w.name());
    }
}

/// The values of every `"key": "value"` pair of `key` in `json`, in order.
fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    json.split(&format!("\"{key}\": \""))
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_runs_report() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let report = small_run(Workload::IngestMixed, 5, "json");
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(GATED_E2E);
    names.extend(report.per_layer.iter().map(|m| m.name));
    assert_eq!(string_fields(&json, "name"), names);
    let e2e_units = GATED_E2E.iter().map(|name| {
        let m = report.e2e.iter().find(|m| m.name == *name);
        m.expect("gated metric is computed").unit
    });
    let units: Vec<&str> = e2e_units
        .chain(report.per_layer.iter().map(|m| m.unit))
        .collect();
    assert_eq!(string_fields(&json, "unit"), units);
}
