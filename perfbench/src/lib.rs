//! # perfbench — the repository's benchmark, driven from outside
//!
//! One run builds one workload's inputs from a seed, sets up several
//! times (inputs, reference answers, upload, one untimed warm-up
//! operation), then times operations through the library's public API
//! for a fixed number of seconds, checking every output. It reports a
//! fixed set of end-to-end metrics, or with tracing on, the per-layer
//! metrics and an in-memory span trace. See `README.md` for every
//! metric's clock, the layer-to-end-to-end map and known answers.

pub mod metrics;
pub mod probes;
pub mod trace;
pub mod workload;

use std::time::{Duration, Instant};

use msbench::serve::{run_serve, ServeConfig};
use msbench::with_run_schedule;
use simt::{Schedule, GTX750TI};

use metrics::{end_to_end, median, per_layer, repriced, Metrics};
use trace::Tracer;
use workload::{Input, Kind, Op, Scale};

/// Set-up repetitions behind the `setup_s` median.
pub const SETUP_REPS: usize = 3;

pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct Outcome {
    /// Operations run and checked: the warm-ups and the timed ones.
    pub attempted: u64,
    /// Operations with a wrong output, or whose modeled or counted
    /// values differ from the first warm-up's.
    pub failed: u64,
    /// Host seconds of each timed operation, in run order.
    pub host_op_s: Vec<f64>,
    /// Median over the timed operations of items per host second.
    pub host_items_per_s: f64,
    /// The first warm-up operation: every later operation's modeled and
    /// counted values are checked against it.
    pub op: Op,
    pub end_to_end: Metrics,
    /// Present when tracing was on.
    pub per_layer: Option<Metrics>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut tr = Tracer::new(cfg.trace);
    let mut op_id = 0u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |o: &Op, reference: Option<&Op>| {
        attempted += 1;
        let repeats = reference.is_none_or(|r| r.fingerprint() == o.fingerprint());
        failed += u64::from(!o.correct || !repeats);
    };

    // Set up several times; keep the last set-up's inputs, and hold every
    // operation to the first warm-up's modeled and counted values.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<Op> = None;
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let span = tr.open();
        let fresh = Input::setup(cfg.kind, cfg.seed, &cfg.scale, &mut tr, op_id);
        let warm = fresh.run(&mut tr, op_id);
        setup_s.push(tr.close(span, op_id, "setup"));
        op_id += 1;
        check(&warm, first.as_ref());
        first.get_or_insert(warm);
        input = Some(fresh);
    }
    let input = input.expect("at least one set-up");
    let first = first.expect("at least one warm-up");

    // Timed operations, each checked. A traced run alternates traced and
    // untraced operations, so both halves see the same machine conditions.
    let mut host_op_s = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    loop {
        let traced = cfg.trace && host_op_s.len() % 2 == 0;
        tr.set_enabled(traced);
        let o = input.run(&mut tr, op_id);
        op_id += 1;
        check(&o, Some(&first));
        host_op_s.push(o.host_s);
        let enough = !cfg.trace || host_op_s.len() >= 2;
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    tr.set_enabled(cfg.trace);

    let gtx_s = match &input {
        // `run_serve` keeps its devices, so the GTX 750 Ti figure is a
        // second, untimed run on that profile rather than a repricing.
        Input::Serve { cfg: serve } => tr.host(op_id, "gtx750ti", || {
            let cfg = ServeConfig {
                profile: GTX750TI,
                ..*serve
            };
            with_run_schedule(Schedule::Sequential, || run_serve(&cfg))
                .overlapped
                .wall_s
        }),
        _ => repriced(&first.records, &GTX750TI),
    };
    let items = input.items() as f64;
    let rates: Vec<f64> = host_op_s.iter().map(|s| items / s).collect();
    let host_items_per_s = median(&rates);
    let end_to_end = end_to_end(&input, &first, gtx_s, median(&setup_s), peak_rss_mib());

    let per_layer = cfg.trace.then(|| {
        let probes = tr.host(op_id, "probes", || {
            probes::run(&input, &cfg.scale, cfg.seed)
        });
        // Relative drop in host items/s of the traced (even-numbered)
        // operations against the untraced ones.
        let half = |parity| -> Vec<f64> { rates.iter().skip(parity).step_by(2).copied().collect() };
        let overhead = 1.0 - median(&half(0)) / median(&half(1));
        per_layer(&input, &first, &probes, host_items_per_s, overhead)
    });

    Outcome {
        attempted,
        failed,
        host_op_s,
        host_items_per_s,
        op: first,
        end_to_end,
        per_layer,
        tracer: tr,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
