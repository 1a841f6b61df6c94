//! Smoke tests: every workload at a few microseconds of simulated time.
//! Both measurements must emit exactly the metrics `BENCHMARK.json` names,
//! pass their own output checks, and report sane self times.

use std::path::{Path, PathBuf};

use simbench::traced::run_traced;
use simbench::workload::{Size, Workload};
use simbench::{measure, measure_traced, Report};

/// A seed without pins, so the checks compare the outside-in rebuild and
/// the replays against the untraced run.
const SEED: u64 = 1;

fn listed(kind: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = experiments::cache::parse_json(&text).expect("BENCHMARK.json parses");
    json.get(kind)
        .and_then(|v| v.arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.str())
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn untraced_emits_every_end_to_end_metric() {
    let want = listed("end_to_end");
    for w in Workload::ALL {
        let r = measure(w, SEED, 1e-9, Size::Tiny, &scratch("e2e")).expect("measures");
        assert_eq!(emitted(&r), want, "{}", w.name());
        assert_eq!(
            (r.failed, r.errors.len()),
            (0, 0),
            "{}: {:?}",
            w.name(),
            r.errors
        );
        assert!(r.attempted > 0);
        assert!(
            r.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {:?}",
            w.name(),
            r.metrics
        );
    }
}

#[test]
fn traced_emits_every_per_layer_metric() {
    let want = listed("per_layer");
    for w in Workload::ALL {
        let r =
            measure_traced(w, SEED, 1e-9, Size::Tiny, &scratch("layers"), None).expect("measures");
        assert_eq!(emitted(&r), want, "{}", w.name());
        assert_eq!(
            (r.failed, r.errors.len()),
            (0, 0),
            "{}: {:?}",
            w.name(),
            r.errors
        );
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn self_times_fit_in_the_loop() {
    for w in Workload::ALL {
        for spec in w.specs(SEED, Size::Tiny) {
            let (_, layers, spans) = run_traced(&spec, !spec.transport().is_pfc());
            let self_s: f64 = layers.kind_self_s.iter().sum();
            assert!(layers.kind_self_s.iter().all(|s| *s >= 0.0));
            assert!(
                self_s <= layers.loop_s,
                "{}: self times {self_s} > loop {}",
                spec.label(),
                layers.loop_s
            );
            assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        }
    }
}
