//! Metric tables: the end-to-end set every run prints, and the per-layer
//! set a traced run prints. Each metric names the clock it comes from.

use msbench::stage_of;
use simt::{BlockStats, DeviceProfile, Json, LaunchRecord, ObsStats, K40C};

use crate::probes::Probes;
use crate::workload::{Detail, Input, Op};

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Counted events priced by a `DeviceProfile`; exact per seed.
    Modeled,
    /// Counted events; exact per seed.
    Counted,
    /// Counted, but dependent on how host threads interleave.
    Schedule,
    /// The simulator's own wall time or memory.
    Host,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Modeled => "modeled",
            Source::Counted => "counted",
            Source::Schedule => "counted, schedule-dependent",
            Source::Host => "host",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub source: Source,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, source: Source) {
        debug_assert!(value.is_finite(), "{name} is not finite");
        self.0.push(Metric {
            name,
            value,
            unit,
            source,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in insertion order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let v = Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]);
                    (m.name.to_string(), v)
                })
                .collect(),
        )
    }

    /// One aligned line per metric, with its clock.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|m| {
                format!(
                    "  {:<34} {:>22} {:<6} [{}]\n",
                    m.name,
                    format!("{}", m.value),
                    m.unit,
                    m.source.name()
                )
            })
            .collect()
    }
}

/// The median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = s.len() / 2;
    if s.len() % 2 == 1 {
        s[h]
    } else {
        (s[h - 1] + s[h]) / 2.0
    }
}

/// The end-to-end metrics. `op` is any operation of the run (their
/// modeled and counted values are identical); `gtx_s` is the same
/// operation priced on the GTX 750 Ti.
pub fn end_to_end(input: &Input, op: &Op, gtx_s: f64, setup_s: f64, peak_rss_mib: f64) -> Metrics {
    let items = input.items() as f64;
    let mut m = Metrics::default();
    m.push(
        "modeled_items_per_s",
        items / op.modeled_s,
        "1/s",
        Source::Modeled,
    );
    m.push(
        "modeled_items_per_s.gtx750ti",
        items / gtx_s,
        "1/s",
        Source::Modeled,
    );
    m.push(
        "sectors_per_item",
        op.sectors as f64 / items,
        "count",
        Source::Counted,
    );
    m.push("modeled_p50_us", op.p50_s * 1e6, "us", Source::Modeled);
    m.push("modeled_p99_us", op.p99_s * 1e6, "us", Source::Modeled);
    m.push("setup_s", setup_s, "s", Source::Host);
    m.push("peak_rss_mib", peak_rss_mib, "MiB", Source::Host);
    m
}

/// Summed launch estimates of a launch log under another profile.
pub fn repriced(records: &[LaunchRecord], profile: &DeviceProfile) -> f64 {
    records.iter().map(|r| profile.estimate(&r.stats)).sum()
}

/// Modeled seconds and sectors of the launches whose stage is `stage`.
fn stage(records: &[LaunchRecord], stage: &str) -> (f64, u64) {
    records
        .iter()
        .filter(|r| stage_of(&r.label) == stage)
        .fold((0.0, 0), |(s, c), r| (s + r.seconds, c + r.stats.sectors))
}

/// Modeled seconds of the launches whose label satisfies `pred`.
pub fn seconds_where(records: &[LaunchRecord], pred: impl Fn(&str) -> bool) -> f64 {
    // A fold from +0.0: `Sum` of no floats is -0.0.
    records
        .iter()
        .filter(|r| pred(&r.label))
        .fold(0.0, |t, r| t + r.seconds)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. Layers a workload does not run
/// report 0 (a count of nothing); the README maps each metric to the
/// end-to-end metric and workload it should move.
pub fn per_layer(
    input: &Input,
    op: &Op,
    probes: &Probes,
    host_items_per_s: f64,
    overhead: f64,
) -> Metrics {
    // serve-4k's devices live inside `run_serve`; its launch log is the
    // benchmark's own replay of the same batches.
    let records: &[LaunchRecord] = match &op.detail {
        Detail::Serve(_) => &probes.serve_records,
        _ => &op.records,
    };
    let mut total = BlockStats::default();
    let mut obs = ObsStats::default();
    for r in records {
        total += r.stats;
        obs += r.obs;
    }
    let modeled_s = seconds_where(records, |_| true);
    let launches = records.iter().filter(|r| r.blocks > 0).count();
    let us = 1e6;
    let mut m = Metrics::default();
    use Source::*;

    m.push("host_items_per_s", host_items_per_s, "1/s", Host);

    let (prescan_s, prescan_sectors) = stage(records, "pre-scan");
    let (sweep_s, sweep_sectors) = stage(records, "sweep");
    m.push("core.prescan_modeled_us", prescan_s * us, "us", Modeled);
    m.push("core.sweep_modeled_us", sweep_s * us, "us", Modeled);
    m.push(
        "core.prescan_sectors",
        prescan_sectors as f64,
        "count",
        Counted,
    );
    m.push("core.sweep_sectors", sweep_sectors as f64, "count", Counted);
    let sector_bytes = (total.sectors * simt::SECTOR_BYTES) as f64;
    let efficiency = ratio(total.useful_bytes as f64, sector_bytes);
    m.push("simt.coalescing_efficiency", efficiency, "ratio", Counted);
    m.push("simt.replays", total.replays as f64, "count", Counted);
    m.push("simt.lane_ops", total.lane_ops as f64, "count", Counted);
    m.push("simt.smem_ops", total.smem_ops as f64, "count", Counted);
    let conflicts = total.smem_bank_conflicts as f64;
    m.push("simt.smem_bank_conflicts", conflicts, "count", Counted);
    m.push("simt.atomic_ops", total.atomic_ops as f64, "count", Counted);
    m.push(
        "simt.atomic_conflicts",
        total.atomic_conflicts as f64,
        "count",
        Counted,
    );
    m.push("simt.intrinsics", total.intrinsics as f64, "count", Counted);
    m.push("simt.barriers", total.barriers as f64, "count", Counted);
    m.push(
        "simt.divergent_iters",
        total.divergent_iters as f64,
        "count",
        Counted,
    );
    m.push("simt.launches", launches as f64, "count", Counted);
    let overhead_s = launches as f64 * K40C.launch_overhead_us * 1e-6;
    m.push(
        "simt.launch_overhead_share",
        ratio(overhead_s, modeled_s),
        "ratio",
        Modeled,
    );

    // Overlap and occupancy: from the serve report, or from the launch
    // log of a single-stream operation, where launches run back to back
    // (makespan = launch sum) and each occupies min(1, blocks / SMs).
    let (overlap, utilization) = match &op.detail {
        Detail::Serve(r) => (r.overlap_speedup, r.utilization),
        _ => {
            let busy: f64 = records
                .iter()
                .map(|r| r.seconds * (r.blocks as f64 / K40C.sm_count as f64).min(1.0))
                .sum();
            (1.0, ratio(busy, modeled_s))
        }
    };
    m.push("simt.overlap_speedup", overlap, "ratio", Modeled);
    m.push("simt.utilization", utilization, "ratio", Modeled);

    m.push(
        "primitives.lookback_resolves",
        obs.lookback_resolves as f64,
        "count",
        Counted,
    );
    m.push(
        "primitives.lookback_depth_mean",
        obs.mean_depth(),
        "tiles",
        Schedule,
    );
    m.push(
        "primitives.spin_polls",
        obs.spin_polls as f64,
        "count",
        Schedule,
    );

    // ms-sort.
    let is_sort = matches!(input, Input::Sort { .. });
    let mut passes: Vec<&str> = records
        .iter()
        .filter_map(|r| r.label.strip_prefix("ms_sort/pass"))
        .filter_map(|rest| rest.split('/').next())
        .collect();
    passes.dedup();
    let probe_s = seconds_where(records, |l| stage_of(l) == "probe");
    let largem_s = seconds_where(records, |l| l.contains("fused_large_m/"));
    m.push("sort.passes", passes.len() as f64, "count", Counted);
    m.push("sort.probe_modeled_us", probe_s * us, "us", Modeled);
    let largem_share = if is_sort {
        ratio(largem_s, modeled_s)
    } else {
        0.0
    };
    m.push("sort.largem_share", largem_share, "ratio", Modeled);
    m.push(
        "sort.vs_radix_modeled",
        ratio(op.modeled_s, probes.radix_s),
        "ratio",
        Modeled,
    );

    // sssp.
    let sssp_s = seconds_where(records, |l| l.starts_with("sssp/"));
    let bucket_s = seconds_where(records, |l| l.starts_with("sssp/bucket/"));
    let iterations = match op.detail {
        Detail::Sssp { iterations } => iterations as f64,
        _ => 0.0,
    };
    m.push("sssp.iterations", iterations, "count", Counted);
    let relax_s = seconds_where(records, |l| l == "sssp/relax");
    m.push("sssp.relax_modeled_us", relax_s * us, "us", Modeled);
    m.push("sssp.bucket_modeled_us", bucket_s * us, "us", Modeled);
    let merge_s = seconds_where(records, |l| l == "sssp/merge");
    m.push("sssp.merge_modeled_us", merge_s * us, "us", Modeled);
    m.push(
        "sssp.bucket_share",
        ratio(bucket_s, sssp_s),
        "ratio",
        Modeled,
    );

    // serve.
    let (naive_us, coalesce, sector_ratio, verified, reuse, samples) = match &op.detail {
        Detail::Serve(r) => (
            r.naive.wall_s * us,
            r.speedup,
            r.sector_ratio,
            r.verified as f64,
            ratio(r.pool_reuses as f64, (r.pool_allocs + r.pool_reuses) as f64),
            op.latency_samples as f64,
        ),
        _ => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    };
    m.push("serve.naive_modeled_us", naive_us, "us", Modeled);
    m.push("serve.coalesce_speedup", coalesce, "ratio", Modeled);
    m.push("serve.sector_ratio", sector_ratio, "ratio", Counted);
    m.push("serve.verified", verified, "count", Counted);
    m.push("serve.latency_samples", samples, "count", Counted);
    m.push("simt.pool_reuse_ratio", reuse, "ratio", Counted);

    // Host-clock probes, timed from outside.
    m.push("simt.host_us_per_launch", probes.launch_s * us, "us", Host);
    m.push(
        "simt.host_ns_per_warp_access",
        probes.warp_access_s * 1e9,
        "ns",
        Host,
    );
    m.push("simt.upload_ms", probes.upload_s * 1e3, "ms", Host);
    m.push("simt.download_ms", probes.download_s * 1e3, "ms", Host);
    m.push(
        "core.segmented_host_ms_per_batch",
        probes.batch_s * 1e3,
        "ms",
        Host,
    );
    m.push(
        "core.single_host_ms_per_request",
        probes.request_s * 1e3,
        "ms",
        Host,
    );
    m.push("trace.host_overhead_share", overhead, "ratio", Host);
    m
}
