//! Fused single-pass multisplit (m ≤ 32) via per-bucket decoupled
//! look-back — the Onesweep structure applied to multisplit.
//!
//! The three-kernel skeleton (`pre-scan → scan → post-scan`) reads every
//! key from DRAM **twice** (once to histogram, once to scatter) and
//! round-trips the `m × L` histogram matrix through global memory. This
//! module collapses the per-tile portion of all three stages into one
//! *sweep* kernel: each block takes a tile ticket from a device atomic,
//! reads its tile of keys once into registers, computes warp→block
//! histograms (Algorithm 2 + the §5.1 multi-scan, unchanged), resolves
//! its **m-vector** exclusive tile prefix with the decoupled look-back of
//! [`primitives::lookback`] (one `(aggregate | inclusive-prefix)` flag
//! word per bucket per tile, L2-modeled), block-reorders in shared
//! memory, and scatters directly to final positions.
//!
//! One thing cannot be fused away: the final position of a bucket-`b`
//! element also needs `base[b]` — the count of *all* keys in buckets
//! `< b`, a function of the entire input. A tile that waited on
//! later-ticketed tiles to learn it would deadlock (every worker would be
//! occupied by an earlier tile doing the same), which is exactly why
//! Onesweep radix sort keeps a separate lightweight histogram kernel. So
//! the fused path is **two** launches instead of five-plus
//! (pre-scan + the chained scan + post-scan):
//!
//! 1. `fused/pre-scan` — per-warp register-accumulated histograms over a
//!    coarsened tile, multi-reduced across warps, then one warp-wide
//!    `atomicAdd` into `m` global counters. Traffic: n key reads +
//!    O(m · blocks) atomics; the m × L matrix never exists.
//! 2. `fused/sweep` — everything else, with the per-bucket tile prefixes
//!    resolved through flag words instead of a scanned matrix. Traffic:
//!    n key reads + n coalesced writes + 3 record-sized flag accesses per
//!    tile.
//!
//! Net: keys cross DRAM twice-read + once-written becomes ~1.5×n total
//! sectors saved — measured ≈ one-third fewer counted sectors than the
//! three-kernel block-level MS (see `paper fused` / EXPERIMENTS.md).
//!
//! Tiles are coarsened ([`fused_items_per_thread`] chunks of 32 per warp,
//! as much as shared memory allows) so flag-word traffic amortizes and
//! same-bucket runs in the block reorder approach sector length even at
//! m = 32.
//!
//! Output buffers are always allocated with the simulator's write-race
//! detector enabled ([`simt::GlobalBuffer::tracked`]): a double-write to
//! one output slot — the classic symptom of a wrong scatter base — panics
//! instead of silently producing a permutation-shaped wrong answer.

use simt::{lanes_from_fn, Device, EventKind, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{
    lookback::TileStates, low_lanes_mask, multi_exclusive_scan_across_cols,
    multi_reduce_across_warps, tail_mask, warp_scan,
};

use crate::bucket::BucketFn;
use crate::common::{
    check_into_buffers, empty_result, eval_buckets, staging_words_per_element, DeviceMultisplit,
    SMEM_BUDGET_WORDS,
};
use crate::warp_ops::{warp_histogram, warp_histogram_and_offsets};

/// Most chunks of 32 elements a warp processes per tile.
pub const MAX_ITEMS_PER_THREAD: usize = 8;

/// Shared words the fused sweep kernel allocates at a given coarsening:
/// the per-chunk histogram columns (odd pitch), three m-word tables
/// (tile_hist / bucket_base / scatter_base), the staged tile (key +
/// bucket id + optional payload per element), and the tile-id word. This
/// mirrors the `alloc_shared` calls in the sweep launch exactly, so the
/// budget check and the allocation can only drift together.
pub fn fused_footprint_words(wpb: usize, m: usize, ipt: usize, value_words: usize) -> usize {
    let pitch = m | 1;
    let nchunks = wpb * ipt;
    let tile = wpb * WARP_SIZE * ipt;
    nchunks * pitch + 3 * m + tile * staging_words_per_element(value_words) + 1
}

/// Thread-coarsening factor for the fused kernels: the largest
/// `items_per_thread ≤ 8` whose sweep-kernel shared footprint
/// ([`fused_footprint_words`]) fits [`SMEM_BUDGET_WORDS`]. Bigger tiles
/// amortize the per-tile flag records and lengthen same-bucket runs in
/// the reordered scatter.
pub fn fused_items_per_thread(wpb: usize, m: usize, value_bytes: u64) -> usize {
    let value_words = value_bytes as usize / 4;
    let mut ipt = MAX_ITEMS_PER_THREAD;
    while ipt > 1 && fused_footprint_words(wpb, m, ipt, value_words) > SMEM_BUDGET_WORDS {
        ipt -= 1;
    }
    ipt
}

/// Pass 1: global per-bucket totals, one coalesced read of the keys.
fn fused_histogram<B: BucketFn + ?Sized>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bucket: &B,
    wpb: usize,
    ipt: usize,
    totals: &GlobalBuffer<u32>,
) {
    let m = bucket.num_buckets();
    let tile = wpb * WARP_SIZE * ipt;
    let blocks = n.div_ceil(tile);
    dev.launch("fused/pre-scan", blocks, wpb, |blk| {
        let nw = blk.warps_per_block;
        let mu = m as usize;
        let pitch = mu | 1;
        let h2 = blk.alloc_shared::<u32>(nw * pitch);
        let block_hist = blk.alloc_shared::<u32>(mu);
        let tile_start = blk.block_id * tile;
        for w in blk.warps() {
            // Histogram all of this warp's chunks into registers before
            // touching shared memory: one column per warp, not per chunk.
            let mut acc = [0u32; WARP_SIZE];
            for c in 0..ipt {
                let base = tile_start + (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                let b = eval_buckets(&w, bucket, k, mask);
                let h = warp_histogram(&w, b, m, mask);
                for lane in 0..WARP_SIZE {
                    acc[lane] = acc[lane].wrapping_add(h[lane]);
                }
                w.charge(mu as u64); // the accumulate adds
            }
            let col = w.warp_id * pitch;
            h2.st(
                lanes_from_fn(|lane| col + lane.min(mu - 1)),
                acc,
                low_lanes_mask(mu),
            );
        }
        blk.sync();
        multi_reduce_across_warps(blk, &h2, mu, pitch, &block_hist);
        // One warp adds the block's histogram into the m global counters.
        // u32 adds commute, so the totals (and the billing: m distinct
        // consecutive words) are schedule-independent.
        {
            let w = blk.warp(0);
            let mask = low_lanes_mask(mu);
            let v = block_hist.ld(lanes_from_fn(|lane| lane.min(mu - 1)), mask);
            w.atomic_add(totals, lanes_from_fn(|lane| lane.min(mu - 1)), v, mask);
        }
    });
}

/// Fused single-kernel-sweep multisplit over `m <= 32` buckets.
///
/// Same contract as the other `multisplit_*` entry points (stable, keys
/// permuted into `m` contiguous buckets, `m + 1` offsets returned);
/// dispatched from [`crate::api::Method::Fused`].
pub fn multisplit_fused<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
) -> DeviceMultisplit<V> {
    let m = bucket.num_buckets();
    if n == 0 {
        return empty_result(m as usize, values.is_some());
    }
    let out_keys = GlobalBuffer::<u32>::zeroed(n).tracked();
    let out_values = values.map(|_| GlobalBuffer::<V>::zeroed(n).tracked());
    let offsets = multisplit_fused_into(
        dev,
        keys,
        values,
        n,
        bucket,
        wpb,
        &out_keys,
        out_values.as_ref(),
    );
    DeviceMultisplit {
        keys: out_keys,
        values: out_values,
        offsets,
    }
}

/// [`multisplit_fused`] writing into **caller-provided** output buffers:
/// the `fused/pre-scan` histogram launch followed by
/// [`multisplit_fused_sweep_into`]. Returns the `m + 1` bucket offsets.
///
/// The output buffers may be `tracked()`; each launch opens a fresh
/// race-detector epoch, so reusing them across calls is safe. Contents
/// beyond `n` are left untouched.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_fused_into<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<u32> {
    let m = bucket.num_buckets();
    assert!(
        m <= 32,
        "fused multisplit requires m <= 32 (use the large-m path)"
    );
    check_into_buffers(keys, values, n, out_keys, out_values);
    if n == 0 {
        return vec![0; m as usize + 1];
    }
    let mu = m as usize;
    let ipt = fused_items_per_thread(wpb, mu, if values.is_some() { V::BYTES } else { 0 });
    let totals = GlobalBuffer::<u32>::zeroed(mu);
    fused_histogram(dev, keys, n, bucket, wpb, ipt, &totals);
    let totals: Vec<u32> = (0..mu).map(|b| totals.get(b)).collect();
    multisplit_fused_sweep_into(
        dev, keys, values, n, bucket, wpb, &totals, out_keys, out_values,
    )
}

/// The `fused/sweep` launch alone, given the `m` global bucket totals
/// (`totals[b]` = number of the `n` keys in bucket `b`). A caller that
/// already knows the totals skips the pre-scan: ms-sort computes every
/// digit's totals in one up-front histogram and runs only sweeps. Returns
/// the `m + 1` bucket offsets; buffer contract as
/// [`multisplit_fused_into`].
#[allow(clippy::too_many_arguments)]
pub fn multisplit_fused_sweep_into<B: BucketFn + ?Sized, V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    bucket: &B,
    wpb: usize,
    totals: &[u32],
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<u32> {
    let m = bucket.num_buckets();
    assert!(
        m <= 32,
        "fused multisplit requires m <= 32 (use the large-m path)"
    );
    check_into_buffers(keys, values, n, out_keys, out_values);
    assert_eq!(totals.len(), m as usize, "one bucket total per bucket");
    assert_eq!(
        totals.iter().map(|&t| t as u64).sum::<u64>(),
        n as u64,
        "bucket totals must sum to n"
    );
    if n == 0 {
        return vec![0; m as usize + 1];
    }
    let mu = m as usize;
    let ipt = fused_items_per_thread(wpb, mu, if values.is_some() { V::BYTES } else { 0 });
    let tile = wpb * WARP_SIZE * ipt;
    let l = n.div_ceil(tile); // tiles

    // Host-side exclusive scan of m ≤ 32 counters into the global bucket
    // bases (what `G`'s row heads were in the three-kernel pipeline).
    let mut bases_host = Vec::with_capacity(mu);
    let mut run = 0u32;
    for &t in totals {
        bases_host.push(run);
        run += t;
    }
    let bases = GlobalBuffer::from_slice(&bases_host);
    let mut offsets = bases_host;
    offsets.push(n as u32);

    let ticket = GlobalBuffer::<u32>::zeroed(1);
    let states = TileStates::new(l, mu);
    dev.launch("fused/sweep", l, wpb, |blk| {
        let nw = blk.warps_per_block;
        let pitch = mu | 1;
        let nchunks = nw * ipt; // one histogram column per 32-element chunk
        let h2 = blk.alloc_shared::<u32>(nchunks * pitch);
        let tile_hist = blk.alloc_shared::<u32>(mu);
        let bucket_base = blk.alloc_shared::<u32>(mu);
        let scatter_base = blk.alloc_shared::<u32>(mu);
        let keys2_s = blk.alloc_shared::<u32>(tile);
        let buckets2_s = blk.alloc_shared::<u32>(tile);
        let values2_s = values.map(|_| blk.alloc_shared::<V>(tile));
        let tile_id = blk.alloc_shared::<u32>(1);
        // Per-chunk registers persisting across barriers, as in a real
        // kernel: the tile's keys are read from DRAM exactly once.
        let mut key_reg = vec![[0u32; WARP_SIZE]; nchunks];
        let mut bucket_reg = vec![[0u32; WARP_SIZE]; nchunks];
        let mut offs_reg = vec![[0u32; WARP_SIZE]; nchunks];
        let mut val_reg = values.map(|_| vec![[V::default(); WARP_SIZE]; nchunks]);

        // Phase 0: claim the next tile in task-start order — the look-back
        // deadlock-freedom invariant (we only ever wait on started tiles).
        {
            let w = blk.warp(0);
            tile_id.set(0, w.device_fetch_add(&ticket, 0, 1));
            w.obs()
                .flight_emit(EventKind::TicketClaim, tile_id.get(0), 0, 0);
        }
        blk.sync();
        let t = tile_id.get(0) as usize;
        let tile_start = t * tile;

        // Phase 1: warp histograms + in-warp ranks per chunk; elements stay
        // in registers.
        for w in blk.warps() {
            for c in 0..ipt {
                let chunk = w.warp_id * ipt + c;
                let base = tile_start + chunk * WARP_SIZE;
                let mask = tail_mask(base, n);
                let col = chunk * pitch;
                if mask == 0 {
                    h2.st(
                        lanes_from_fn(|lane| col + lane.min(mu - 1)),
                        [0; WARP_SIZE],
                        low_lanes_mask(mu),
                    );
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                let b = eval_buckets(&w, bucket, k, mask);
                let (histo, offs) = warp_histogram_and_offsets(&w, b, m, mask);
                h2.st(
                    lanes_from_fn(|lane| col + lane.min(mu - 1)),
                    histo,
                    low_lanes_mask(mu),
                );
                key_reg[chunk] = k;
                bucket_reg[chunk] = b;
                offs_reg[chunk] = offs;
                if let (Some(vin), Some(vr)) = (values, &mut val_reg) {
                    vr[chunk] = w.gather(vin, idx, mask);
                }
            }
        }
        blk.sync();

        // Phase 2: per-row exclusive multi-scan across the tile's chunk
        // columns; the tile histogram (this tile's m-vector aggregate)
        // falls out of the same shuffles.
        multi_exclusive_scan_across_cols(blk, &h2, mu, pitch, nchunks, Some(&tile_hist));

        // Phase 3 (warp 0): publish the aggregate, resolve the m-vector
        // tile prefix by decoupled look-back, and derive both layouts —
        // block-local (bucket-wise exclusive scan of the tile histogram)
        // and global (bases[b] + prefix[b], replacing the scanned-G
        // gather of the three-kernel post-scan).
        {
            let w = blk.warp(0);
            let mask = low_lanes_mask(mu);
            let agg = tile_hist.ld(lanes_from_fn(|lane| lane.min(mu - 1)), mask);
            let prefix = states.resolve(&w, t, agg);
            let padded = lanes_from_fn(|lane| if lane < mu { agg[lane] } else { 0 });
            let exc = warp_scan::exclusive_scan_add(&w, padded);
            bucket_base.st(lanes_from_fn(|lane| lane.min(mu - 1)), exc, mask);
            let gb = w.gather_cached(&bases, lanes_from_fn(|lane| lane.min(mu - 1)), mask);
            scatter_base.st(
                lanes_from_fn(|lane| lane.min(mu - 1)),
                lanes_from_fn(|lane| gb[lane].wrapping_add(prefix[lane])),
                mask,
            );
        }
        blk.sync();

        // Phase 4: block-wide reorder in shared memory.
        for w in blk.warps() {
            for c in 0..ipt {
                let chunk = w.warp_id * ipt + c;
                let base = tile_start + chunk * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let b = bucket_reg[chunk];
                let col = chunk * pitch;
                let prev_chunks = h2.ld(lanes_from_fn(|lane| col + b[lane] as usize), mask);
                let bb = bucket_base.ld(lanes_from_fn(|lane| b[lane] as usize), mask);
                let new_idx = lanes_from_fn(|lane| {
                    (bb[lane] + prev_chunks[lane] + offs_reg[chunk][lane]) as usize
                });
                keys2_s.st(new_idx, key_reg[chunk], mask);
                buckets2_s.st(new_idx, b, mask);
                if let (Some(vr), Some(vs2)) = (&val_reg, &values2_s) {
                    vs2.st(new_idx, vr[chunk], mask);
                }
            }
        }
        blk.sync();

        // Phase 5: coalesced final store straight to global positions;
        // rank within bucket = tile position - bucket_base.
        for w in blk.warps() {
            for c in 0..ipt {
                let chunk = w.warp_id * ipt + c;
                let base = tile_start + chunk * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let tid = lanes_from_fn(|lane| chunk * WARP_SIZE + lane);
                let k2 = keys2_s.ld(tid, mask);
                let b2 = buckets2_s.ld(tid, mask);
                let bb = bucket_base.ld(lanes_from_fn(|lane| b2[lane] as usize), mask);
                let sb = scatter_base.ld(lanes_from_fn(|lane| b2[lane] as usize), mask);
                let dest = lanes_from_fn(|lane| {
                    (sb[lane]
                        .wrapping_add(tid[lane] as u32)
                        .wrapping_sub(bb[lane])) as usize
                });
                w.scatter(out_keys, dest, k2, mask);
                if let (Some(vs2), Some(vout)) = (&values2_s, out_values) {
                    let v2 = vs2.ld(tid, mask);
                    w.scatter(vout, dest, v2, mask);
                }
            }
        }
        blk.stats()
            .obs
            .flight_emit(EventKind::ScatterComplete, t as u32, 0, 0);
    });

    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_level::multisplit_block_level;
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use simt::{BlockStats, Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn matches_reference_across_m_and_n() {
        let dev = Device::new(K40C);
        for m in [1u32, 2, 4, 9, 17, 32] {
            for n in [1usize, 32, 255, 2048, 2049, 10_000] {
                let bucket = RangeBuckets::new(m);
                let data = keys_for(n, m);
                let keys = GlobalBuffer::from_slice(&data);
                let r = multisplit_fused(&dev, &keys, no_values(), n, &bucket, 8);
                let (expect, expect_offs) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m} n={n}");
                assert_eq!(r.offsets, expect_offs, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn key_value_matches_reference() {
        let dev = Device::new(K40C);
        let n = 10_000;
        let bucket = RangeBuckets::new(13);
        let data = keys_for(n, 7);
        let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_fused(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, eo) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
        assert_eq!(r.offsets, eo);
    }

    #[test]
    #[should_panic(expected = "payload buffer shorter than n")]
    fn short_payload_fails_at_the_entry_point() {
        let dev = Device::new(K40C);
        let n = 5000;
        let keys = GlobalBuffer::from_slice(&keys_for(n, 1));
        let values = GlobalBuffer::<u32>::zeroed(100);
        let out_keys = GlobalBuffer::<u32>::zeroed(n);
        let out_values = GlobalBuffer::<u32>::zeroed(n);
        multisplit_fused_into(
            &dev,
            &keys,
            Some(&values),
            n,
            &RangeBuckets::new(32),
            8,
            &out_keys,
            Some(&out_values),
        );
    }

    #[test]
    fn sweep_with_known_totals_matches_the_two_launch_path() {
        // The sweep entry point is the second half of multisplit_fused_into:
        // same output, same sweep launch stats, one launch fewer.
        let n = 9000;
        let bucket = RangeBuckets::new(19);
        let data = keys_for(n, 4);
        let keys = GlobalBuffer::from_slice(&data);
        let dev_full = Device::new(K40C);
        let full = multisplit_fused(&dev_full, &keys, no_values(), n, &bucket, 8);
        let mut totals = vec![0u32; 19];
        for &k in &data {
            totals[bucket.bucket_of(k) as usize] += 1;
        }
        let dev_sweep = Device::new(K40C);
        let out = GlobalBuffer::<u32>::zeroed(n);
        let offsets = multisplit_fused_sweep_into(
            &dev_sweep,
            &keys,
            no_values(),
            n,
            &bucket,
            8,
            &totals,
            &out,
            None,
        );
        assert_eq!(out.to_vec(), full.keys.to_vec());
        assert_eq!(offsets, full.offsets);
        let full_recs = dev_full.records();
        let sweep_recs = dev_sweep.records();
        assert_eq!(sweep_recs.len(), 1);
        assert_eq!(full_recs.len(), 2);
        assert_eq!(sweep_recs[0].label, "fused/sweep");
        assert_eq!(sweep_recs[0].stats, full_recs[1].stats);
    }

    #[test]
    #[should_panic(expected = "bucket totals must sum to n")]
    fn sweep_rejects_totals_that_miss_keys() {
        let dev = Device::new(K40C);
        let n = 100;
        let keys = GlobalBuffer::from_slice(&keys_for(n, 2));
        let out = GlobalBuffer::<u32>::zeroed(n);
        let mut totals = vec![0u32; 4];
        totals[0] = 99;
        multisplit_fused_sweep_into(
            &dev,
            &keys,
            no_values(),
            n,
            &RangeBuckets::new(4),
            8,
            &totals,
            &out,
            None,
        );
    }

    #[test]
    fn empty_input_launches_nothing() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::<u32>::zeroed(0);
        let bucket = RangeBuckets::new(8);
        let r = multisplit_fused(&dev, &keys, no_values(), 0, &bucket, 8);
        assert_eq!(r.offsets, vec![0; 9]);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn single_bucket_identity() {
        let dev = Device::new(K40C);
        let n = 1000;
        let bucket = FnBuckets::new(8, |_| 3);
        let data = keys_for(n, 1);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_fused(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(r.keys.to_vec(), data, "stability: one bucket is identity");
        assert_eq!(r.offsets, vec![0, 0, 0, 0, 1000, 1000, 1000, 1000, 1000]);
    }

    #[test]
    fn works_with_various_warps_per_block() {
        let dev = Device::new(K40C);
        let n = 5000;
        let bucket = RangeBuckets::new(8);
        let data = keys_for(n, 3);
        let keys = GlobalBuffer::from_slice(&data);
        let (expect, _) = multisplit_ref(&data, &bucket);
        for wpb in [1, 2, 4, 8, 16] {
            let r = multisplit_fused(&dev, &keys, no_values(), n, &bucket, wpb);
            assert_eq!(r.keys.to_vec(), expect, "wpb={wpb}");
        }
    }

    #[test]
    fn coarsening_is_tight_against_the_shared_budget() {
        // The chosen coarsening fits the shared budget exactly, and one
        // more item per thread would not: the budget convention is the
        // workspace-wide SMEM_BUDGET_WORDS, with no private slack.
        for (wpb, m, vb) in [
            (8usize, 32usize, 0u64),
            (16, 32, 4),
            (16, 32, 16),
            (8, 1, 0),
        ] {
            let vw = vb as usize / 4;
            let ipt = fused_items_per_thread(wpb, m, vb);
            assert!(
                fused_footprint_words(wpb, m, ipt, vw) <= SMEM_BUDGET_WORDS,
                "wpb={wpb} m={m} vb={vb}: chosen ipt={ipt} overflows the budget"
            );
            if ipt < MAX_ITEMS_PER_THREAD {
                assert!(
                    fused_footprint_words(wpb, m, ipt + 1, vw) > SMEM_BUDGET_WORDS,
                    "wpb={wpb} m={m} vb={vb}: ipt={ipt} is not tight — {} more would fit",
                    ipt + 1
                );
            }
        }
    }

    #[test]
    fn coarsening_respects_shared_memory() {
        // Key-only m=32 at wpb=8 fits the full coarsening; key-value at
        // wpb=16 must shrink to fit 48 kB.
        assert_eq!(fused_items_per_thread(8, 32, 0), 8);
        let ipt_kv16 = fused_items_per_thread(16, 32, 4);
        assert!((1..8).contains(&ipt_kv16), "ipt_kv16={ipt_kv16}");
        // And the resulting footprints really fit (alloc panics if not) —
        // exercised by running a kv split at wpb=16.
        let dev = Device::new(K40C);
        let n = 3000;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 9);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_fused(&dev, &keys, Some(&values), n, &bucket, 16);
        let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
    }

    #[test]
    fn parallel_and_sequential_agree_bit_and_stats() {
        // The fused look-back may take different walk paths under the two
        // executors, but outputs and counted traffic must not differ.
        let n = 100_000;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 11);
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let keys = GlobalBuffer::from_slice(&data);
            let r = multisplit_fused(&dev, &keys, no_values(), n, &bucket, 8);
            outs.push((r.keys.to_vec(), r.offsets));
            stats.push(
                dev.records()
                    .iter()
                    .fold(BlockStats::default(), |mut a, rec| {
                        a += rec.stats;
                        a
                    }),
            );
        }
        assert_eq!(outs[0], outs[1], "bit-identical across schedulers");
        assert_eq!(stats[0], stats[1], "stats must be schedule-independent");
    }

    #[test]
    fn fused_moves_at_least_20_percent_fewer_sectors() {
        // The tentpole claim (ISSUE acceptance): at n = 2^20, m = 32 the
        // fused pipeline must report >= 20% fewer total counted DRAM
        // sectors than the three-kernel block-level MS.
        let n = 1 << 20;
        let bucket = RangeBuckets::new(32);
        let data = keys_for(n, 2);
        let total_sectors = |dev: &Device| {
            dev.records()
                .iter()
                .fold(BlockStats::default(), |mut a, r| {
                    a += r.stats;
                    a
                })
                .sectors
        };
        let dev_f = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let rf = multisplit_fused(&dev_f, &keys, no_values(), n, &bucket, 8);
        let fused = total_sectors(&dev_f);
        let dev_b = Device::sequential(K40C);
        let rb = multisplit_block_level(&dev_b, &keys, no_values(), n, &bucket, 8);
        let three = total_sectors(&dev_b);
        assert_eq!(rf.keys.to_vec(), rb.keys.to_vec(), "bit-identical paths");
        assert_eq!(rf.offsets, rb.offsets);
        assert!(
            (fused as f64) <= 0.80 * three as f64,
            "fused {fused} vs three-kernel {three} sectors: need >= 20% reduction"
        );
    }
}
