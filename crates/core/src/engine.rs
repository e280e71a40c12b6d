//! The sweep-tile engine: the tile bodies every fused multisplit runs.
//!
//! The fused paths are one skeleton over a coarsened tile of keys: claim
//! a ticket, build warp histograms and in-warp ranks, multi-scan across
//! the tile's chunks, resolve the tile's m-vector prefix by decoupled
//! look-back, stage the tile in shared memory and scatter it to final
//! positions. It comes in two row shapes — `m ≤ 32` (one bucket per lane,
//! Algorithm 2 + the §5.1 multi-scan) and row-vectorized `m > 32` (§6.4:
//! `⌈m/32⌉` row groups, one block-wide scan, padded staging) — and each
//! shape has two launches:
//!
//! 1. a **pre-scan** that reads the keys once and atomically adds each
//!    tile's bucket counts into `m` global totals, and
//! 2. a **sweep** that reads the keys once more and does everything else.
//!
//! Between them the host turns totals into bucket bases
//! ([`offsets_from_totals`]): `base[b]` depends on the whole input, so a
//! tile cannot wait for it without deadlocking on later tickets.
//!
//! Every body works on one [`Tile`]: a key sub-range `[off, off + n)` of
//! the flat buffers (the whole input for a standalone run, one segment
//! of a segmented batch), the tile's index within it, its coarsening, the
//! problem's base in the totals/bases arrays, and its look-back window in
//! a [`SegmentedTileStates`]. `fused.rs` and `fused_large_m.rs` run one
//! problem at offset 0 with window 0; `segmented.rs` decodes a descriptor
//! per tile and runs many problems in the same two launches. Tiles past
//! `n` are masked per chunk, so the counted work of a tile is the same
//! whichever caller runs it.

use simt::{
    lanes_from_fn, padded_index, padded_len, BlockCtx, Device, EventKind, GlobalBuffer, Lanes,
    Scalar, SharedBuf, WarpCtx, WARP_SIZE,
};

use primitives::{
    block_exclusive_scan_shared, low_lanes_mask, multi_exclusive_scan_across_cols,
    multi_reduce_across_warps, tail_mask, warp_scan, SegmentedTileStates,
};

use crate::bucket::BucketFn;
use crate::common::eval_buckets;
use crate::warp_ops::{
    warp_histogram, warp_histogram_and_offsets, warp_histogram_multi, warp_offsets,
};

/// One tile of one problem.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    /// First key of the problem in the flat buffers.
    pub off: usize,
    /// Keys in the problem.
    pub n: usize,
    /// This tile's index within the problem.
    pub local: usize,
    /// Chunks of 32 keys per warp.
    pub ipt: usize,
    /// First of the problem's `m` words in the totals and bases arrays.
    pub hist_base: usize,
    /// The problem's look-back window.
    pub window: usize,
}

impl Tile {
    /// Tile `local` of a standalone problem: keys `[0, n)`, totals and
    /// bases at word 0, look-back window 0.
    pub fn standalone(n: usize, local: usize, ipt: usize) -> Self {
        Tile {
            off: 0,
            n,
            local,
            ipt,
            hist_base: 0,
            window: 0,
        }
    }
}

/// The buffers a sweep reads and writes; outputs land at the same flat
/// positions as their problem's inputs.
pub(crate) struct SweepIo<'a, V: Scalar> {
    pub keys: &'a GlobalBuffer<u32>,
    pub values: Option<&'a GlobalBuffer<V>>,
    pub out_keys: &'a GlobalBuffer<u32>,
    pub out_values: Option<&'a GlobalBuffer<V>>,
}

/// Visit the tile's 32-key chunks warp by warp: `f(warp, chunk, mask,
/// idx)` with the chunk's flat-buffer gather indices (inactive lanes
/// clamped to the chunk head).
fn for_each_chunk(
    blk: &BlockCtx,
    tile: &Tile,
    mut f: impl FnMut(&WarpCtx, usize, u32, Lanes<usize>),
) {
    let start = tile.local * blk.warps_per_block * tile.ipt * WARP_SIZE;
    for w in blk.warps() {
        for c in 0..tile.ipt {
            let chunk = w.warp_id * tile.ipt + c;
            let lb = start + chunk * WARP_SIZE;
            let mask = tail_mask(lb, tile.n);
            let idx = lanes_from_fn(|j| tile.off + if lb + j < tile.n { lb + j } else { lb });
            f(&w, chunk, mask, idx);
        }
    }
}

/// Claim the next tile in task-start order — the look-back
/// deadlock-freedom invariant (a tile only ever waits on started tiles).
/// Returns the global ticket.
pub(crate) fn claim_ticket(blk: &BlockCtx, ticket: &GlobalBuffer<u32>) -> usize {
    let tile_id = blk.alloc_shared::<u32>(1);
    {
        let w = blk.warp(0);
        tile_id.set(0, w.device_fetch_add(ticket, 0, 1));
        w.obs()
            .flight_emit(EventKind::TicketClaim, tile_id.get(0), 0, 0);
    }
    blk.sync();
    tile_id.get(0) as usize
}

/// Host side of the two-launch pipeline: one problem's `m` bucket totals
/// scanned into its `m + 1` bucket offsets — the global bucket bases
/// (what the scanned matrix G's row heads were in the three-kernel
/// pipeline), then `n`.
pub(crate) fn offsets_from_totals(totals: &[u32], n: usize) -> Vec<u32> {
    assert_eq!(
        totals.iter().map(|&t| t as u64).sum::<u64>(),
        n as u64,
        "bucket totals must sum to n"
    );
    let mut offsets = Vec::with_capacity(totals.len() + 1);
    let mut run = 0u32;
    for &t in totals {
        offsets.push(run);
        run += t;
    }
    offsets.push(n as u32);
    offsets
}

/// The `m ≤ 32` pre-scan body: per-warp register-accumulated histograms
/// over the tile (one shared column per warp, not per chunk), reduced
/// across warps, then one warp-wide `atomicAdd` into the problem's `m`
/// totals. u32 adds commute, so totals and billing are
/// schedule-independent.
pub(crate) fn prescan_fused<B: BucketFn + ?Sized>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    bucket: &B,
    tile: &Tile,
    totals: &GlobalBuffer<u32>,
) {
    let m = bucket.num_buckets();
    let mu = m as usize;
    let pitch = mu | 1;
    let h2 = blk.alloc_shared::<u32>(blk.warps_per_block * pitch);
    let block_hist = blk.alloc_shared::<u32>(mu);
    let mut acc = vec![[0u32; WARP_SIZE]; blk.warps_per_block];
    for_each_chunk(blk, tile, |w, _, mask, idx| {
        if mask == 0 {
            return;
        }
        let k = w.gather(keys, idx, mask);
        let h = warp_histogram(w, eval_buckets(w, bucket, k, mask), m, mask);
        let a = &mut acc[w.warp_id];
        for lane in 0..WARP_SIZE {
            a[lane] = a[lane].wrapping_add(h[lane]);
        }
        w.charge(mu as u64); // the accumulate adds
    });
    for w in blk.warps() {
        let col = w.warp_id * pitch;
        h2.st(
            lanes_from_fn(|lane| col + lane.min(mu - 1)),
            acc[w.warp_id],
            low_lanes_mask(mu),
        );
    }
    blk.sync();
    multi_reduce_across_warps(blk, &h2, mu, pitch, &block_hist);
    let w = blk.warp(0);
    let mask = low_lanes_mask(mu);
    let v = block_hist.ld(lanes_from_fn(|lane| lane.min(mu - 1)), mask);
    w.atomic_add(
        totals,
        lanes_from_fn(|lane| tile.hist_base + lane.min(mu - 1)),
        v,
        mask,
    );
}

/// The row-vectorized `m > 32` pre-scan body: per-warp register
/// multi-histograms ([`warp_histogram_multi`]) in an odd-pitch
/// `m × warps` shared matrix, rows reduced across warps, one warp-wide
/// `atomicAdd` per 32-bucket row group into the problem's `m` totals.
pub(crate) fn prescan_large_m<B: BucketFn + ?Sized>(
    blk: &BlockCtx,
    keys: &GlobalBuffer<u32>,
    bucket: &B,
    tile: &Tile,
    totals: &GlobalBuffer<u32>,
) {
    let m = bucket.num_buckets();
    let mu = m as usize;
    let nw = blk.warps_per_block;
    let nwp = nw | 1; // [bucket * nwp + warp]
    let hrow = blk.alloc_shared::<u32>(mu * nwp);
    let mut acc = vec![vec![[0u32; WARP_SIZE]; mu.div_ceil(WARP_SIZE)]; nw];
    for_each_chunk(blk, tile, |w, _, mask, idx| {
        if mask == 0 {
            return;
        }
        let k = w.gather(keys, idx, mask);
        let h = warp_histogram_multi(w, eval_buckets(w, bucket, k, mask), m, mask);
        for (a, histo) in acc[w.warp_id].iter_mut().zip(&h) {
            for lane in 0..WARP_SIZE {
                a[lane] = a[lane].wrapping_add(histo[lane]);
            }
        }
        w.charge(mu as u64); // the accumulate adds
    });
    for w in blk.warps() {
        for (hc, histo) in acc[w.warp_id].iter().enumerate() {
            let cnt = (mu - hc * WARP_SIZE).min(WARP_SIZE);
            hrow.st(
                lanes_from_fn(|lane| (hc * WARP_SIZE + lane.min(cnt - 1)) * nwp + w.warp_id),
                *histo,
                low_lanes_mask(cnt),
            );
        }
    }
    blk.sync();
    for w in blk.warps() {
        for row in (w.warp_id * WARP_SIZE..mu).step_by(nw * WARP_SIZE) {
            let cnt = (mu - row).min(WARP_SIZE);
            let sm = low_lanes_mask(cnt);
            let mut sum = [0u32; WARP_SIZE];
            for wid in 0..nw {
                let v = hrow.ld(
                    lanes_from_fn(|lane| (row + lane.min(cnt - 1)) * nwp + wid),
                    sm,
                );
                sum = lanes_from_fn(|lane| sum[lane] + v[lane]);
            }
            w.charge(nw as u64 * cnt as u64);
            w.atomic_add(
                totals,
                lanes_from_fn(|lane| tile.hist_base + row + lane.min(cnt - 1)),
                sum,
                sm,
            );
        }
    }
}

/// One pre-scan launch over a single problem of `n` keys: the tile body
/// for the problem's row shape, `m` totals read back on the host.
pub(crate) fn prescan_launch<B: BucketFn + ?Sized>(
    dev: &Device,
    label: &str,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
    ipt: usize,
) -> Vec<u32> {
    let mu = bucket.num_buckets() as usize;
    let totals = GlobalBuffer::<u32>::zeroed(mu);
    dev.launch(label, n.div_ceil(wpb * WARP_SIZE * ipt), wpb, |blk| {
        let tile = Tile::standalone(n, blk.block_id, ipt);
        if mu <= WARP_SIZE {
            prescan_fused(blk, keys, bucket, &tile, &totals);
        } else {
            prescan_large_m(blk, keys, bucket, &tile, &totals);
        }
    });
    (0..mu).map(|b| totals.get(b)).collect()
}

/// A tile's keys, bucket ids, in-warp ranks and payloads, one register
/// lane-vector per chunk, persisting across barriers as in a real
/// kernel: the sweep reads its tile from DRAM exactly once.
struct Regs<V: Scalar> {
    key: Vec<Lanes<u32>>,
    bucket: Vec<Lanes<u32>>,
    offs: Vec<Lanes<u32>>,
    val: Option<Vec<Lanes<V>>>,
}

impl<V: Scalar> Regs<V> {
    fn new(nchunks: usize, with_values: bool) -> Self {
        Regs {
            key: vec![[0; WARP_SIZE]; nchunks],
            bucket: vec![[0; WARP_SIZE]; nchunks],
            offs: vec![[0; WARP_SIZE]; nchunks],
            val: with_values.then(|| vec![[V::default(); WARP_SIZE]; nchunks]),
        }
    }

    /// Gather one chunk's keys (and payloads) and classify them.
    fn load<B: BucketFn + ?Sized>(
        &mut self,
        w: &WarpCtx,
        io: &SweepIo<'_, V>,
        bucket: &B,
        chunk: usize,
        idx: Lanes<usize>,
        mask: u32,
    ) -> Lanes<u32> {
        let k = w.gather(io.keys, idx, mask);
        let b = eval_buckets(w, bucket, k, mask);
        self.key[chunk] = k;
        self.bucket[chunk] = b;
        if let (Some(vin), Some(vr)) = (io.values, &mut self.val) {
            vr[chunk] = w.gather(vin, idx, mask);
        }
        b
    }
}

/// Shared staging of the block-wide reorder: key, bucket id and payload
/// per tile position, optionally through [`padded_index`] so structured
/// rank strides land on distinct banks.
struct Staging<'b, V: Scalar> {
    keys: SharedBuf<'b, u32>,
    buckets: SharedBuf<'b, u32>,
    values: Option<SharedBuf<'b, V>>,
    padded: bool,
}

impl<'b, V: Scalar> Staging<'b, V> {
    fn new(blk: &'b BlockCtx, len: usize, with_values: bool, padded: bool) -> Self {
        let len = if padded { padded_len(len) } else { len };
        Staging {
            keys: blk.alloc_shared(len),
            buckets: blk.alloc_shared(len),
            values: with_values.then(|| blk.alloc_shared(len)),
            padded,
        }
    }

    fn index(&self, i: usize) -> usize {
        if self.padded {
            padded_index(i)
        } else {
            i
        }
    }

    /// Stage chunk `chunk`'s registers at their tile-local ranks.
    fn stage(&self, regs: &Regs<V>, chunk: usize, rank: Lanes<u32>, mask: u32) {
        let at = lanes_from_fn(|lane| self.index(rank[lane] as usize));
        self.keys.st(at, regs.key[chunk], mask);
        self.buckets.st(at, regs.bucket[chunk], mask);
        if let (Some(vr), Some(vs)) = (&regs.val, &self.values) {
            vs.st(at, vr[chunk], mask);
        }
    }

    /// Coalesced final store straight to global positions: rank within
    /// bucket = tile position − the bucket's tile-local start
    /// (`starts[b * stride]`), plus the bucket's global scatter base.
    /// Reading consecutive positions is conflict-free in either layout.
    fn scatter(
        &self,
        blk: &BlockCtx,
        io: &SweepIo<'_, V>,
        tile: &Tile,
        starts: (&SharedBuf<u32>, usize),
        scatter_base: &SharedBuf<u32>,
    ) {
        for_each_chunk(blk, tile, |w, chunk, mask, _| {
            if mask == 0 {
                return;
            }
            let tid = lanes_from_fn(|lane| chunk * WARP_SIZE + lane);
            let at = lanes_from_fn(|lane| self.index(tid[lane]));
            let k2 = self.keys.ld(at, mask);
            let b2 = self.buckets.ld(at, mask);
            let bb = starts
                .0
                .ld(lanes_from_fn(|lane| b2[lane] as usize * starts.1), mask);
            let sb = scatter_base.ld(lanes_from_fn(|lane| b2[lane] as usize), mask);
            let dest = lanes_from_fn(|lane| {
                tile.off
                    + (sb[lane]
                        .wrapping_add(tid[lane] as u32)
                        .wrapping_sub(bb[lane])) as usize
            });
            w.scatter(io.out_keys, dest, k2, mask);
            if let (Some(vs), Some(vout)) = (&self.values, io.out_values) {
                w.scatter(vout, dest, vs.ld(at, mask), mask);
            }
        });
    }
}

/// `scatter_base[b] = bases[hist_base + b] + prefix[b]`: one cached
/// warp-wide gather and one store per 32-bucket row group (replacing the
/// scanned-G gather of the three-kernel post-scan).
fn store_scatter_bases(
    w: &WarpCtx,
    bases: &GlobalBuffer<u32>,
    hist_base: usize,
    prefix: &[u32],
    scatter_base: &SharedBuf<u32>,
) {
    let mu = prefix.len();
    for g0 in (0..mu).step_by(WARP_SIZE) {
        let cnt = (mu - g0).min(WARP_SIZE);
        let sm = low_lanes_mask(cnt);
        let row = lanes_from_fn(|l| g0 + l.min(cnt - 1));
        let gb = w.gather_cached(bases, lanes_from_fn(|l| hist_base + row[l]), sm);
        scatter_base.st(
            row,
            lanes_from_fn(|l| gb[l].wrapping_add(prefix[row[l]])),
            sm,
        );
    }
}

/// The `m ≤ 32` sweep body (tile already claimed).
///
/// 1. Warp histograms + in-warp ranks per chunk into an odd-pitch
///    per-chunk column matrix; elements stay in registers.
/// 2. Per-row exclusive multi-scan across the chunk columns; the tile's
///    m-vector aggregate falls out of the same shuffles.
/// 3. Warp 0 resolves the tile's prefix by look-back and derives both
///    layouts: block-local bucket starts and global scatter bases.
/// 4. Block-wide reorder into shared staging.
/// 5. Coalesced scatter to final positions.
pub(crate) fn sweep_fused<B: BucketFn + ?Sized, V: Scalar>(
    blk: &BlockCtx,
    io: &SweepIo<'_, V>,
    bucket: &B,
    tile: &Tile,
    bases: &GlobalBuffer<u32>,
    states: &SegmentedTileStates,
) {
    let m = bucket.num_buckets();
    let mu = m as usize;
    let pitch = mu | 1;
    let nchunks = blk.warps_per_block * tile.ipt; // one column per chunk
    let h2 = blk.alloc_shared::<u32>(nchunks * pitch);
    let tile_hist = blk.alloc_shared::<u32>(mu);
    let bucket_base = blk.alloc_shared::<u32>(mu);
    let scatter_base = blk.alloc_shared::<u32>(mu);
    let staging = Staging::new(blk, nchunks * WARP_SIZE, io.values.is_some(), false);
    let mut regs = Regs::new(nchunks, io.values.is_some());

    for_each_chunk(blk, tile, |w, chunk, mask, idx| {
        let col = lanes_from_fn(|lane| chunk * pitch + lane.min(mu - 1));
        if mask == 0 {
            h2.st(col, [0; WARP_SIZE], low_lanes_mask(mu));
            return;
        }
        let b = regs.load(w, io, bucket, chunk, idx, mask);
        let (histo, offs) = warp_histogram_and_offsets(w, b, m, mask);
        h2.st(col, histo, low_lanes_mask(mu));
        regs.offs[chunk] = offs;
    });
    blk.sync();

    multi_exclusive_scan_across_cols(blk, &h2, mu, pitch, nchunks, Some(&tile_hist));

    {
        let w = blk.warp(0);
        let mask = low_lanes_mask(mu);
        let agg = tile_hist.ld(lanes_from_fn(|lane| lane.min(mu - 1)), mask);
        let prefix = states.resolve_rows(&w, tile.window, tile.local, &agg[..mu]);
        let padded = lanes_from_fn(|lane| if lane < mu { agg[lane] } else { 0 });
        let exc = warp_scan::exclusive_scan_add(&w, padded);
        bucket_base.st(lanes_from_fn(|lane| lane.min(mu - 1)), exc, mask);
        store_scatter_bases(&w, bases, tile.hist_base, &prefix, &scatter_base);
    }
    blk.sync();

    for_each_chunk(blk, tile, |_, chunk, mask, _| {
        if mask == 0 {
            return;
        }
        let b = regs.bucket[chunk];
        let prev_chunks = h2.ld(lanes_from_fn(|lane| chunk * pitch + b[lane] as usize), mask);
        let bb = bucket_base.ld(lanes_from_fn(|lane| b[lane] as usize), mask);
        let rank = lanes_from_fn(|lane| bb[lane] + prev_chunks[lane] + regs.offs[chunk][lane]);
        staging.stage(&regs, chunk, rank, mask);
    });
    blk.sync();

    staging.scatter(blk, io, tile, (&bucket_base, 1), &scatter_base);
    scatter_complete(blk, states, tile);
}

/// The row-vectorized `m > 32` sweep body (tile already claimed).
///
/// 1. Multi-histograms + in-warp ranks per chunk into the `m × ncols`
///    shared matrix (odd pitch); elements stay in registers.
/// 2. One block-wide exclusive scan of all `m · ncols` counters (§6.4,
///    "as CUB does"; the zero pad cells are scan-neutral). Afterwards
///    `hrow[b*ncolp + c]` is bucket `b`'s tile-local rank base in chunk
///    `c`, and `hrow[b*ncolp]` its tile-local start.
/// 3. Warp 0 recovers the tile's m-vector aggregate from the scanned row
///    heads, resolves its prefix by multi-row look-back, and stores the
///    global scatter bases.
/// 4. Block-wide reorder into *padded* staging.
/// 5. Coalesced scatter to final positions.
pub(crate) fn sweep_large_m<B: BucketFn + ?Sized, V: Scalar>(
    blk: &BlockCtx,
    io: &SweepIo<'_, V>,
    bucket: &B,
    tile: &Tile,
    bases: &GlobalBuffer<u32>,
    states: &SegmentedTileStates,
) {
    let m = bucket.num_buckets();
    let mu = m as usize;
    let nchunks = blk.warps_per_block * tile.ipt; // one column per chunk
    let ncolp = nchunks | 1;
    let hrow = blk.alloc_shared::<u32>(mu * ncolp);
    let scatter_base = blk.alloc_shared::<u32>(mu);
    let staging = Staging::new(blk, nchunks * WARP_SIZE, io.values.is_some(), true);
    let mut regs = Regs::new(nchunks, io.values.is_some());

    for_each_chunk(blk, tile, |w, chunk, mask, idx| {
        let h = if mask == 0 {
            vec![[0u32; WARP_SIZE]; mu.div_ceil(WARP_SIZE)]
        } else {
            let b = regs.load(w, io, bucket, chunk, idx, mask);
            regs.offs[chunk] = warp_offsets(w, b, m, mask);
            warp_histogram_multi(w, b, m, mask)
        };
        for (hc, histo) in h.iter().enumerate() {
            let cnt = (mu - hc * WARP_SIZE).min(WARP_SIZE);
            hrow.st(
                lanes_from_fn(|lane| (hc * WARP_SIZE + lane.min(cnt - 1)) * ncolp + chunk),
                *histo,
                low_lanes_mask(cnt),
            );
        }
    });
    blk.sync();

    let tile_total = block_exclusive_scan_shared(blk, &hrow, mu * ncolp);
    blk.sync();

    {
        // The aggregate is head[b+1] - head[b]; the last bucket closes
        // against the scan total.
        let w = blk.warp(0);
        let mut agg = vec![0u32; mu];
        for g0 in (0..mu).step_by(WARP_SIZE) {
            let cnt = (mu - g0).min(WARP_SIZE);
            let sm = low_lanes_mask(cnt);
            let heads = hrow.ld(lanes_from_fn(|l| (g0 + l.min(cnt - 1)) * ncolp), sm);
            // The final bucket has no successor row; mask it out of the
            // load.
            let has_next = if g0 + cnt == mu {
                low_lanes_mask(cnt - 1)
            } else {
                sm
            };
            let nexts = hrow.ld(
                lanes_from_fn(|l| {
                    let b = g0 + l.min(cnt - 1);
                    if b + 1 < mu {
                        (b + 1) * ncolp
                    } else {
                        0
                    }
                }),
                has_next,
            );
            for l in 0..cnt {
                let b = g0 + l;
                let next = if b + 1 < mu { nexts[l] } else { tile_total };
                agg[b] = next.wrapping_sub(heads[l]);
            }
            w.charge(cnt as u64); // the subtracts
        }
        let prefix = states.resolve_rows(&w, tile.window, tile.local, &agg);
        store_scatter_bases(&w, bases, tile.hist_base, &prefix, &scatter_base);
    }
    blk.sync();

    for_each_chunk(blk, tile, |_, chunk, mask, _| {
        if mask == 0 {
            return;
        }
        let b = regs.bucket[chunk];
        let col_base = hrow.ld(lanes_from_fn(|l| b[l] as usize * ncolp + chunk), mask);
        let rank = lanes_from_fn(|l| col_base[l] + regs.offs[chunk][l]);
        staging.stage(&regs, chunk, rank, mask);
    });
    blk.sync();

    staging.scatter(blk, io, tile, (&hrow, ncolp), &scatter_base);
    scatter_complete(blk, states, tile);
}

/// Flight event: the tile's scatter is done (keyed by global ticket).
fn scatter_complete(blk: &BlockCtx, states: &SegmentedTileStates, tile: &Tile) {
    let t = states.ticket(tile.window, tile.local) as u32;
    blk.stats()
        .obs
        .flight_emit(EventKind::ScatterComplete, t, 0, 0);
}

/// One sweep launch over a single problem of `n` keys with known bucket
/// `totals`: one window of look-back states, the tile body for the
/// problem's row shape. Returns the `m + 1` bucket offsets.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_launch<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    label: &str,
    io: &SweepIo<'_, V>,
    n: usize,
    bucket: &B,
    wpb: usize,
    ipt: usize,
    totals: &[u32],
) -> Vec<u32> {
    let offsets = offsets_from_totals(totals, n);
    let mu = totals.len();
    let bases = GlobalBuffer::from_slice(&offsets[..mu]);
    let tiles = n.div_ceil(wpb * WARP_SIZE * ipt);
    let ticket = GlobalBuffer::<u32>::zeroed(1);
    let states = SegmentedTileStates::new(&[(tiles, mu)]);
    dev.launch(label, tiles, wpb, |blk| {
        let tile = Tile::standalone(n, claim_ticket(blk, &ticket), ipt);
        if mu <= WARP_SIZE {
            sweep_fused(blk, io, bucket, &tile, &bases, &states);
        } else {
            sweep_large_m(blk, io, bucket, &tile, &bases, &states);
        }
    });
    offsets
}
