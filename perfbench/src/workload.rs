//! The four workloads: how each builds its inputs from the seed, runs one
//! operation through the library's public API, and checks the output.

use std::panic::{catch_unwind, AssertUnwindSafe};

use msbench::serve::{run_serve, ServeConfig, ServeReport};
use msbench::{gen_keys, gen_values, with_run_schedule, Distribution};
use multisplit::{
    multisplit_device, multisplit_kv_ref, no_values, Method, RangeBuckets,
    DEFAULT_WARPS_PER_BLOCK as WPB,
};
use simt::{Device, GlobalBuffer, LaunchRecord, Schedule, K40C};
use sssp::{delta_stepping, dijkstra, rmat, Bucketing, CsrGraph};

use crate::trace::Tracer;

/// Bucket count of split-4m.
pub const SPLIT_BUCKETS: u32 = 32;
/// Delta-stepping bucket width and multisplit bucket count of sssp-rmat
/// (the paper's footnote-1 configuration).
pub const SSSP_DELTA: u32 = 32;
pub const SSSP_BUCKETS: u32 = 2;
/// Edges per node and maximum edge weight of the RMAT graph.
const RMAT_EDGE_FACTOR: usize = 16;
const RMAT_MAX_WEIGHT: u32 = 255;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Split,
    Sort,
    Serve,
    Sssp,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Split, Kind::Sort, Kind::Serve, Kind::Sssp];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Split => "split-4m",
            Kind::Sort => "sort-1m",
            Kind::Serve => "serve-4k",
            Kind::Sssp => "sssp-rmat",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the workload names promise; the
/// benchmark's own tests run [`Scale::SMALL`].
#[derive(Clone, Copy)]
pub struct Scale {
    pub split_keys: usize,
    pub sort_pairs: usize,
    pub serve: ServeConfig,
    pub rmat_scale: u32,
}

impl Scale {
    pub const FULL: Scale = Scale {
        split_keys: 1 << 22,
        sort_pairs: 1 << 20,
        serve: SERVE_FULL,
        rmat_scale: 16,
    };

    pub const SMALL: Scale = Scale {
        split_keys: 1 << 14,
        sort_pairs: 1 << 12,
        serve: ServeConfig {
            requests: 96,
            n: 256,
            batch: 16,
            ..SERVE_FULL
        },
        rmat_scale: 9,
    };
}

/// `ServeConfig::default()`, spelled out so it can sit in a `const`.
const SERVE_FULL: ServeConfig = ServeConfig {
    requests: 4096,
    n: 1 << 10,
    m_max: 32,
    devices: 4,
    batch: 256,
    streams: 2,
    seed: 9000,
    profile: K40C,
    wpb: 8,
    verify: true,
};

/// Generated inputs, uploaded where the operation takes device buffers,
/// together with the answers the operation must reproduce.
pub enum Input {
    Split {
        keys: Vec<u32>,
        dev_keys: GlobalBuffer<u32>,
        want_keys: Vec<u32>,
        want_offsets: Vec<u32>,
    },
    Sort {
        keys: Vec<u32>,
        dev_keys: GlobalBuffer<u32>,
        dev_values: GlobalBuffer<u32>,
        want_keys: Vec<u32>,
        want_values: Vec<u32>,
    },
    Serve {
        cfg: ServeConfig,
    },
    Sssp {
        graph: CsrGraph,
        want: Vec<u32>,
    },
}

/// What one operation produced, on both clocks.
pub struct Op {
    /// Host seconds of the operation call alone (no download or check).
    pub host_s: f64,
    /// The operation's launch log (empty for serve-4k, whose devices live
    /// inside `run_serve`).
    pub records: Vec<LaunchRecord>,
    /// Modeled seconds: summed launch estimates, or the overlapped
    /// makespan for serve-4k.
    pub modeled_s: f64,
    /// Counted DRAM sectors.
    pub sectors: u64,
    /// Nearest-rank percentiles of modeled per-request completion time,
    /// over `latency_samples` requests. A single-operation workload is
    /// one request that completes when its last launch retires.
    pub p50_s: f64,
    pub p99_s: f64,
    pub latency_samples: usize,
    pub correct: bool,
    pub detail: Detail,
}

/// Workload-specific results the per-layer metrics read.
pub enum Detail {
    None,
    Serve(Box<ServeReport>),
    Sssp { iterations: usize },
}

impl Input {
    /// Generate the inputs and reference answers for `seed`, uploading
    /// device inputs. Host spans go to `tr` under operation id `op`.
    pub fn setup(kind: Kind, seed: u64, scale: &Scale, tr: &mut Tracer, op: u64) -> Input {
        match kind {
            Kind::Split => {
                let n = scale.split_keys;
                let keys = tr.host(op, "gen", || {
                    gen_keys(n, SPLIT_BUCKETS, Distribution::Uniform, seed)
                });
                let (want_keys, _, want_offsets) = tr.host(op, "reference", || {
                    multisplit_kv_ref(&keys, None, &RangeBuckets::new(SPLIT_BUCKETS))
                });
                let dev_keys = tr.host(op, "upload", || GlobalBuffer::from_slice(&keys));
                Input::Split {
                    keys,
                    dev_keys,
                    want_keys,
                    want_offsets,
                }
            }
            Kind::Sort => {
                let n = scale.sort_pairs;
                let keys = tr.host(op, "gen", || {
                    let mut rng = msrng::SmallRng::seed_from_u64(seed);
                    (0..n).map(|_| rng.next_u32()).collect::<Vec<u32>>()
                });
                // Values are input positions, so a stable host sort of the
                // positions by key is the expected key and payload order.
                let (want_keys, want_values) = tr.host(op, "reference", || {
                    let mut order = gen_values(n);
                    order.sort_by_key(|&i| keys[i as usize]);
                    let sorted = order.iter().map(|&i| keys[i as usize]).collect::<Vec<_>>();
                    (sorted, order)
                });
                let (dev_keys, dev_values) = tr.host(op, "upload", || {
                    (
                        GlobalBuffer::from_slice(&keys),
                        GlobalBuffer::from_slice(&gen_values(n)),
                    )
                });
                Input::Sort {
                    keys,
                    dev_keys,
                    dev_values,
                    want_keys,
                    want_values,
                }
            }
            // `run_serve` generates its requests and checks every answer
            // itself; its set-up is the warm-up call alone.
            Kind::Serve => Input::Serve {
                cfg: ServeConfig {
                    seed,
                    ..scale.serve
                },
            },
            Kind::Sssp => {
                let graph = tr.host(op, "gen", || {
                    rmat(scale.rmat_scale, RMAT_EDGE_FACTOR, RMAT_MAX_WEIGHT, seed)
                });
                let want = tr.host(op, "reference", || dijkstra(&graph, 0));
                Input::Sssp { graph, want }
            }
        }
    }

    /// Items one operation processes: keys, key-value pairs, keys over
    /// all requests, or graph edges.
    pub fn items(&self) -> u64 {
        (match self {
            Input::Split { keys, .. } | Input::Sort { keys, .. } => keys.len(),
            Input::Serve { cfg } => cfg.requests * cfg.n,
            Input::Sssp { graph, .. } => graph.num_edges(),
        }) as u64
    }

    /// Host-side copies of the device inputs, for the upload and
    /// download probes.
    pub fn host_words(&self) -> Vec<u32> {
        match self {
            Input::Split { keys, .. } | Input::Sort { keys, .. } => keys.clone(),
            Input::Serve { cfg } => msbench::serve::gen_requests(cfg)
                .into_iter()
                .flat_map(|r| r.keys)
                .collect(),
            Input::Sssp { graph, .. } => graph.col_indices.clone(),
        }
    }

    /// Run one operation and check its output. A panic inside the library
    /// counts as a wrong output, not as a crash of the benchmark.
    pub fn run(&self, tr: &mut Tracer, op: u64) -> Op {
        let root = tr.open();
        let result = catch_unwind(AssertUnwindSafe(|| self.run_checked(tr, op)));
        let secs = tr.close(root, op, "op");
        result.unwrap_or_else(|_| Op {
            host_s: secs,
            records: Vec::new(),
            modeled_s: 0.0,
            sectors: 0,
            p50_s: 0.0,
            p99_s: 0.0,
            latency_samples: 0,
            correct: false,
            detail: Detail::None,
        })
    }

    fn run_checked(&self, tr: &mut Tracer, op: u64) -> Op {
        match self {
            Input::Split {
                keys,
                dev_keys,
                want_keys,
                want_offsets,
            } => {
                let dev = Device::new(K40C);
                let bucket = RangeBuckets::new(SPLIT_BUCKETS);
                let (out, host_s) = timed(tr, op, &dev, || {
                    multisplit_device(
                        &dev,
                        Method::auto(SPLIT_BUCKETS, false),
                        dev_keys,
                        no_values(),
                        keys.len(),
                        &bucket,
                        WPB,
                    )
                });
                let got = tr.host(op, "download", || out.keys.to_vec());
                let correct = tr.host(op, "verify", || {
                    got == *want_keys && out.offsets == *want_offsets
                });
                Op::from_log(host_s, dev.records(), correct, Detail::None)
            }
            Input::Sort {
                keys,
                dev_keys,
                dev_values,
                want_keys,
                want_values,
            } => {
                let dev = Device::new(K40C);
                let ((k, v), host_s) = timed(tr, op, &dev, || {
                    ms_sort::sort_pairs(&dev, dev_keys, dev_values, keys.len(), WPB)
                });
                let (got_k, got_v) = tr.host(op, "download", || (k.to_vec(), v.to_vec()));
                let correct = tr.host(op, "verify", || {
                    got_k == *want_keys && got_v == *want_values
                });
                Op::from_log(host_s, dev.records(), correct, Detail::None)
            }
            Input::Serve { cfg } => {
                // Sequential blocks: the two stream threads alone already
                // fill two host cores.
                let span = tr.open();
                let report = with_run_schedule(Schedule::Sequential, || run_serve(cfg));
                let host_s = tr.close(span, op, "operation");
                let correct = tr.host(op, "verify", || report.verified == cfg.requests);
                let o = &report.overlapped;
                Op {
                    host_s,
                    records: Vec::new(),
                    modeled_s: o.wall_s,
                    sectors: o.total_sectors,
                    p50_s: o.p50_us * 1e-6,
                    p99_s: o.p99_us * 1e-6,
                    latency_samples: cfg.requests,
                    correct,
                    detail: Detail::Serve(Box::new(report)),
                }
            }
            Input::Sssp { graph, want } => {
                // Sequential blocks: relaxation's atomic-min races on the
                // parallel executor change the candidate set, and with it
                // the modeled clock.
                let dev = Device::sequential(K40C);
                let (r, host_s) = timed(tr, op, &dev, || {
                    delta_stepping(
                        &dev,
                        graph,
                        0,
                        SSSP_DELTA,
                        Bucketing::Multisplit { m: SSSP_BUCKETS },
                    )
                });
                let correct = tr.host(op, "verify", || r.dist == *want);
                let detail = Detail::Sssp {
                    iterations: r.iterations,
                };
                Op::from_log(host_s, dev.records(), correct, detail)
            }
        }
    }
}

/// Time the operation call as a host span and hang its launches under it
/// as modeled-clock spans. Returns the result and the host seconds.
fn timed<R>(tr: &mut Tracer, op: u64, dev: &Device, f: impl FnOnce() -> R) -> (R, f64) {
    let span = tr.open();
    let id = span.id();
    let out = f();
    let host_s = tr.close(span, op, "operation");
    tr.launches(op, id, &dev.records());
    (out, host_s)
}

impl Op {
    fn from_log(host_s: f64, records: Vec<LaunchRecord>, correct: bool, detail: Detail) -> Op {
        let modeled_s = crate::metrics::seconds_where(&records, |_| true);
        let sectors = records.iter().map(|r| r.stats.sectors).sum();
        Op {
            host_s,
            records,
            modeled_s,
            sectors,
            p50_s: modeled_s,
            p99_s: modeled_s,
            latency_samples: 1,
            correct,
            detail,
        }
    }

    /// The modeled and counted quantities that must repeat exactly from
    /// one operation to the next.
    pub fn fingerprint(&self) -> [u64; 4] {
        [
            self.modeled_s.to_bits(),
            self.sectors,
            self.p50_s.to_bits(),
            self.p99_s.to_bits(),
        ]
    }
}
