//! Host-clock probes of single layers, each timed from outside, and the
//! modeled side runs a traced run needs (the radix baseline and serve-4k's
//! replayed launch log).

use std::hint::black_box;
use std::time::Instant;

use msbench::serve::{gen_requests, ServeConfig};
use multisplit::{
    multisplit_device, multisplit_segmented_into, no_values, Method, RangeBuckets, SegmentSpec,
    DEFAULT_WARPS_PER_BLOCK as WPB,
};
use simt::{lanes_from_fn, BufferPool, Device, GlobalBuffer, LaunchRecord, FULL_MASK, K40C};

use crate::metrics::median;
use crate::workload::{Input, Scale};

/// Repetitions behind each probe median.
const REPS: usize = 5;
/// Launches per repetition of the launch-cost probe.
const LAUNCHES: usize = 200;
/// Words gathered and scattered by the warp-access probe.
const ACCESS_WORDS: usize = 1 << 20;

/// Probe results; times are host seconds unless named otherwise.
#[derive(Default)]
pub struct Probes {
    /// One empty 64-block launch on the parallel executor.
    pub launch_s: f64,
    /// One warp-wide global gather or scatter.
    pub warp_access_s: f64,
    /// Upload and download of the workload's main input array.
    pub upload_s: f64,
    pub download_s: f64,
    /// serve-4k's requests replayed through the segmented entry point
    /// (per batch) and through `multisplit_device` (per request).
    pub batch_s: f64,
    pub request_s: f64,
    /// Launch log of the segmented replay: the coalesced executor's
    /// launches, which the overlapped executor also runs.
    pub serve_records: Vec<LaunchRecord>,
    /// Modeled seconds of `baselines::radix_sort_by_bits` on sort-1m's
    /// input (0 on other workloads).
    pub radix_s: f64,
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

pub fn run(input: &Input, scale: &Scale, seed: u64) -> Probes {
    let dev = Device::new(K40C);
    let launch_s = median_of(|| {
        dev.reset();
        time(|| {
            for _ in 0..LAUNCHES {
                dev.launch("probe/empty", 64, WPB, |_| {});
            }
        }) / LAUNCHES as f64
    });

    let src = GlobalBuffer::from_slice(&(0..ACCESS_WORDS as u32).collect::<Vec<_>>());
    let dst = GlobalBuffer::<u32>::zeroed(ACCESS_WORDS);
    let warps = ACCESS_WORDS / simt::WARP_SIZE;
    let warp_access_s = median_of(|| {
        dev.reset();
        time(|| {
            dev.launch("probe/copy", warps / WPB, WPB, |blk| {
                for w in blk.warps() {
                    let base = w.global_warp_id * simt::WARP_SIZE;
                    let idx = lanes_from_fn(|l| base + l);
                    let v = w.gather(&src, idx, FULL_MASK);
                    w.scatter(&dst, idx, v, FULL_MASK);
                }
            });
        }) / (2 * warps) as f64
    });
    dev.reset();

    let words = input.host_words();
    let upload_s = median_of(|| time(|| drop(black_box(GlobalBuffer::from_slice(&words)))));
    let buf = GlobalBuffer::from_slice(&words);
    let download_s = median_of(|| time(|| drop(black_box(buf.to_vec()))));
    drop((words, buf));

    let cfg = ServeConfig {
        seed,
        ..scale.serve
    };
    let (batch_s, request_s, serve_records) = serve_replay(&cfg);

    let radix_s = match input {
        Input::Sort {
            keys,
            dev_keys,
            dev_values,
            ..
        } => {
            let dev = Device::new(K40C);
            let (k, v) = baselines::radix_sort_by_bits(
                &dev,
                "radix",
                dev_keys,
                Some(dev_values),
                keys.len(),
                32,
                WPB,
            );
            drop(black_box((k, v)));
            dev.total_seconds()
        }
        _ => 0.0,
    };

    Probes {
        launch_s,
        warp_access_s,
        upload_s,
        download_s,
        batch_s,
        request_s,
        serve_records,
        radix_s,
    }
}

/// Replay serve-4k's requests the way `run_serve` shards and batches
/// them (request `i` on device `i % devices`, batches of `cfg.batch`
/// packed at sector-aligned offsets into a pooled arena), timing each
/// `multisplit_segmented_into` call; then run every request alone
/// through `multisplit_device`. Returns the median host seconds per
/// batch and per request, and the segmented launch log.
fn serve_replay(cfg: &ServeConfig) -> (f64, f64, Vec<LaunchRecord>) {
    let reqs = gen_requests(cfg);
    let mut batch_s = Vec::new();
    let mut records = Vec::new();
    for d in 0..cfg.devices {
        let dev = Device::sequential(cfg.profile);
        let pool = BufferPool::new();
        let shard: Vec<usize> = (d..reqs.len()).step_by(cfg.devices).collect();
        for batch in shard.chunks(cfg.batch) {
            let mut offsets = Vec::with_capacity(batch.len());
            let mut len = 0;
            for &i in batch {
                offsets.push(len);
                len = (len + reqs[i].keys.len() + 7) & !7;
            }
            let arena_len = (cfg.batch * ((cfg.n + 7) & !7)).max(len);
            let arena_in = pool.acquire(arena_len);
            let arena_out = pool.acquire(arena_len);
            for (&i, &off) in batch.iter().zip(&offsets) {
                for (j, &k) in reqs[i].keys.iter().enumerate() {
                    arena_in.set(off + j, k);
                }
            }
            let buckets: Vec<RangeBuckets> = batch
                .iter()
                .map(|&i| RangeBuckets::new(reqs[i].m))
                .collect();
            let specs: Vec<SegmentSpec> = batch
                .iter()
                .zip(&offsets)
                .zip(&buckets)
                .map(|((&i, &offset), bucket)| SegmentSpec {
                    offset,
                    n: reqs[i].keys.len(),
                    bucket,
                })
                .collect();
            batch_s.push(time(|| {
                black_box(multisplit_segmented_into(
                    &dev,
                    &arena_in,
                    no_values(),
                    &specs,
                    cfg.wpb,
                    &arena_out,
                    None,
                ));
            }));
        }
        records.extend(dev.records());
    }
    let dev = Device::sequential(cfg.profile);
    let request_s: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let keys = GlobalBuffer::from_slice(&r.keys);
            let bucket = RangeBuckets::new(r.m);
            let method = Method::auto_for(r.m, false, cfg.wpb);
            dev.reset();
            time(|| {
                black_box(multisplit_device(
                    &dev,
                    method,
                    &keys,
                    no_values(),
                    r.keys.len(),
                    &bucket,
                    cfg.wpb,
                ));
            })
        })
        .collect();
    (median(&batch_s), median(&request_s), records)
}
