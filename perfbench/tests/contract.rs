//! The benchmark's own checks, at reduced input sizes: modeled and counted
//! metrics repeat bit for bit, the definitions agree with each other and
//! with `BENCHMARK.json`, and a wrong output is counted as a failure.

use msbench::serve::{run_serve, ServeConfig};
use msbench::with_run_schedule;
use perfbench::metrics::{Metrics, Source};
use perfbench::trace::{Clock, Tracer};
use perfbench::workload::{Input, Kind, Scale};
use perfbench::{run, Config, Outcome};
use simt::{Json, Schedule, GTX750TI};

fn run_small(kind: Kind, seed: u64, trace: bool) -> Outcome {
    run(&Config {
        kind,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::SMALL,
    })
}

/// The exactly repeatable metrics of a table, as bit patterns.
fn exact(m: &Metrics) -> Vec<(&'static str, u64)> {
    m.0.iter()
        .filter(|x| matches!(x.source, Source::Modeled | Source::Counted))
        .map(|x| (x.name, x.value.to_bits()))
        .collect()
}

#[test]
fn modeled_and_counted_metrics_repeat_bit_for_bit() {
    for kind in Kind::ALL {
        let a = run_small(kind, 11, true);
        let b = run_small(kind, 11, true);
        assert!(a.correct() && b.correct(), "{}", kind.name());
        assert_eq!(
            exact(&a.end_to_end),
            exact(&b.end_to_end),
            "{}",
            kind.name()
        );
        let (la, lb) = (a.per_layer.unwrap(), b.per_layer.unwrap());
        assert_eq!(exact(&la), exact(&lb), "{}", kind.name());
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for kind in Kind::ALL {
        let a = run_small(kind, 1, false).end_to_end;
        let b = run_small(kind, 2, false).end_to_end;
        assert_ne!(
            a.get("modeled_items_per_s"),
            b.get("modeled_items_per_s"),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn tracing_leaves_the_modeled_values_unchanged() {
    for kind in Kind::ALL {
        let plain = run_small(kind, 5, false);
        let traced = run_small(kind, 5, true);
        assert_eq!(
            exact(&plain.end_to_end),
            exact(&traced.end_to_end),
            "{}",
            kind.name()
        );
        assert!(plain.tracer.spans().is_empty());
        assert!(plain.per_layer.is_none());
    }
}

#[test]
fn percentiles_are_ordered_and_throughput_inverts_to_the_modeled_time() {
    for kind in Kind::ALL {
        let out = run_small(kind, 3, false);
        let m = &out.end_to_end;
        let get = |name: &str| m.get(name).unwrap();
        assert!(
            get("modeled_p50_us") <= get("modeled_p99_us"),
            "{}",
            kind.name()
        );
        let mut scale = Scale::SMALL;
        scale.serve.seed = 3;
        let input = Input::setup(kind, 3, &scale, &mut Tracer::new(false), 0);
        let items = input.items() as f64;
        let (modeled_s, gtx_s) = match kind {
            Kind::Serve => {
                let makespan = |cfg: &ServeConfig| {
                    with_run_schedule(Schedule::Sequential, || run_serve(cfg))
                        .overlapped
                        .wall_s
                };
                let gtx = ServeConfig {
                    profile: GTX750TI,
                    ..scale.serve
                };
                (makespan(&scale.serve), makespan(&gtx))
            }
            _ => {
                let recs = &out.op.records;
                assert!(!recs.is_empty());
                let sum = |f: &dyn Fn(&simt::LaunchRecord) -> f64| recs.iter().map(f).sum::<f64>();
                (sum(&|r| r.seconds), sum(&|r| GTX750TI.estimate(&r.stats)))
            }
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b;
        assert!(
            close(items / get("modeled_items_per_s"), modeled_s),
            "{}",
            kind.name()
        );
        let gtx = get("modeled_items_per_s.gtx750ti");
        assert!(close(items / gtx, gtx_s), "{}", kind.name());
        if kind != Kind::Serve {
            assert!(
                close(get("modeled_p99_us"), modeled_s * 1e6),
                "{}",
                kind.name()
            );
        }
    }
}

#[test]
fn a_wrong_output_is_counted_as_failed() {
    for kind in [Kind::Split, Kind::Sort, Kind::Sssp] {
        let mut tr = Tracer::new(false);
        let mut input = Input::setup(kind, 4, &Scale::SMALL, &mut tr, 0);
        assert!(input.run(&mut tr, 0).correct, "{}", kind.name());
        match &mut input {
            Input::Split { want_keys: w, .. }
            | Input::Sort { want_values: w, .. }
            | Input::Sssp { want: w, .. } => {
                let last = w.len() - 1;
                w[last] = w[last].wrapping_add(1);
            }
            Input::Serve { .. } => unreachable!(),
        }
        assert!(!input.run(&mut tr, 1).correct, "{}", kind.name());
    }
}

#[test]
fn serve_replay_runs_the_coalesced_executors_launches() {
    let out = run_small(Kind::Serve, 8, true);
    let layers = out.per_layer.unwrap();
    let cfg = ServeConfig {
        seed: 8,
        ..Scale::SMALL.serve
    };
    let report = with_run_schedule(Schedule::Sequential, || run_serve(&cfg));
    let sectors =
        layers.get("core.prescan_sectors").unwrap() + layers.get("core.sweep_sectors").unwrap();
    assert_eq!(sectors, report.coalesced.total_sectors as f64);
    assert_eq!(
        layers.get("simt.launches").unwrap(),
        report.coalesced.launches as f64
    );
    assert_eq!(layers.get("serve.verified").unwrap(), cfg.requests as f64);
}

#[test]
fn traced_spans_nest_and_carry_both_clocks() {
    let out = run_small(Kind::Split, 2, true);
    let spans = out.tracer.spans();
    let ids: std::collections::HashSet<u32> = spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids are unique");
    for s in spans {
        assert!(s.end_s >= s.start_s, "{}", s.name);
        if let Some(p) = s.parent {
            assert!(ids.contains(&p), "{} names a missing parent", s.name);
        }
    }
    let named = |n: &str| spans.iter().filter(|s| s.name == n).count();
    // Three set-ups (each with a warm-up) and one timed operation.
    assert_eq!(named("setup"), 3);
    assert_eq!(named("operation"), 4);
    for n in ["gen", "reference", "upload", "download", "verify", "probes"] {
        assert!(named(n) > 0, "no {n} span");
    }
    let modeled = spans.iter().filter(|s| s.clock == Clock::Modeled).count();
    assert_eq!(modeled, 4 * out.op.records.len());
    assert!(Json::parse(&out.tracer.to_json().render()).is_ok());
}

/// The metric tables match `BENCHMARK.json` name for name and unit for
/// unit, in both modes and on every workload.
#[test]
fn metric_tables_match_the_benchmark_definition() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let def = Json::parse(&text).expect("valid JSON");
    let declared = |key: &str| -> Vec<(String, String)> {
        def.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |m: &Metrics| -> Vec<(String, String)> {
        m.0.iter()
            .map(|x| (x.name.to_string(), x.unit.to_string()))
            .collect()
    };
    let workloads: Vec<String> = def
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, names);
    for kind in Kind::ALL {
        let out = run_small(kind, 6, true);
        assert_eq!(
            table(&out.end_to_end),
            declared("end_to_end"),
            "{}",
            kind.name()
        );
        assert_eq!(
            table(out.per_layer.as_ref().unwrap()),
            declared("per_layer")
        );
        for m in &out.end_to_end.0 {
            assert!(
                m.value > 0.0,
                "{} on {} is {}",
                m.name,
                kind.name(),
                m.value
            );
        }
    }
}
