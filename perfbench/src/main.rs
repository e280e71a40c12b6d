//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics. A traced run also writes its
//! spans to `.bench_trace/<workload>-seed<n>.json` (Chrome trace format).
//! Exits 1 when any output is wrong, 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use perfbench::workload::{Kind, Scale};
use perfbench::{run, Config, SETUP_REPS};
use simt::Json;

const USAGE: &str =
    "usage: perfbench --workload <split-4m|sort-1m|serve-4k|sssp-rmat> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::FULL,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    println!(
        "{} seed {}: {} timed operations after {} set-ups, {} of {} checked operations failed",
        cfg.kind.name(),
        cfg.seed,
        out.host_op_s.len(),
        SETUP_REPS,
        out.failed,
        out.attempted
    );
    let op_s: Vec<String> = out.host_op_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "host seconds per operation, in run order: {}",
        op_s.join(" ")
    );
    println!(
        "host items/s, median over the operations: {} (per-layer metric host_items_per_s)",
        out.host_items_per_s
    );
    println!("end-to-end:\n{}", out.end_to_end.render());
    let metrics = match &out.per_layer {
        Some(layers) => {
            println!("per-layer:\n{}", layers.render());
            let dir = Path::new(".bench_trace");
            let path = dir.join(format!("{}-seed{}.json", cfg.kind.name(), cfg.seed));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, out.tracer.to_json().render()));
            if let Err(e) = written {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "{} spans written to {}",
                out.tracer.spans().len(),
                path.display()
            );
            layers.to_json()
        }
        None => out.end_to_end.to_json(),
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::int(out.attempted)),
        ("failed".into(), Json::int(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
