//! Fused single-pass multisplit (m ≤ 32) via per-bucket decoupled
//! look-back — the Onesweep radix-sort structure applied to multisplit.
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
//! Both launches run the `m ≤ 32` tile bodies of the sweep-tile engine
//! (`crate::engine`, shared with the large-m and segmented paths) over
//! one problem: keys `[0, n)`, one look-back window. This module owns the
//! entry points, their contracts, and the coarsening.
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

use simt::{Device, GlobalBuffer, Scalar, WARP_SIZE};

use crate::bucket::BucketFn;
use crate::common::{
    check_into_buffers, empty_result, staging_words_per_element, DeviceMultisplit,
    SMEM_BUDGET_WORDS,
};
use crate::engine::{prescan_launch, sweep_launch, SweepIo};

/// Most chunks of 32 elements a warp processes per tile.
pub const MAX_ITEMS_PER_THREAD: usize = 8;

/// Shared words the fused sweep kernel allocates at a given coarsening:
/// the per-chunk histogram columns (odd pitch), three m-word tables
/// (tile_hist / bucket_base / scatter_base), the staged tile (key +
/// bucket id + optional payload per element), and the tile-id word. This
/// mirrors the `alloc_shared` calls of the engine's `m ≤ 32` sweep body
/// exactly, so the budget check and the allocation can only drift
/// together.
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
    let ipt = fused_items_per_thread(wpb, m as usize, kv_bytes(values));
    let totals = prescan_launch(dev, "fused/pre-scan", keys, n, bucket, wpb, ipt);
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
    if n == 0 {
        return crate::engine::offsets_from_totals(totals, 0);
    }
    let ipt = fused_items_per_thread(wpb, m as usize, kv_bytes(values));
    let io = SweepIo {
        keys,
        values,
        out_keys,
        out_values,
    };
    sweep_launch(dev, "fused/sweep", &io, n, bucket, wpb, ipt, totals)
}

/// Payload bytes per element in flight: 0 key-only, `V::BYTES` otherwise.
pub(crate) fn kv_bytes<V: Scalar>(values: Option<&GlobalBuffer<V>>) -> u64 {
    if values.is_some() {
        V::BYTES
    } else {
        0
    }
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
