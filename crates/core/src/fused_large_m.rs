//! Fused single-pass multisplit for **more than 32 buckets** — the
//! `fused.rs` structure generalized to the `m > 32` regime of paper
//! §5.3/§6.4, with multi-row decoupled look-back and bank-conflict-free
//! staging.
//!
//! The three-kernel large-m pipeline (`large_m.rs`) reads every key from
//! DRAM twice and round-trips the `m × L` histogram matrix through global
//! memory; the matrix is `⌈m/32⌉`× bigger than in the `m ≤ 32` case, so
//! the fusion win *grows* with `m`. This module collapses it to two
//! launches, both running the row-vectorized tile bodies of the
//! sweep-tile engine (`crate::engine`) over one problem:
//!
//! 1. `fused_large_m/pre-scan` — per-warp register-accumulated
//!    multi-histograms ([`crate::warp_ops::warp_histogram_multi`]) over a
//!    coarsened tile, reduced across warps in shared memory, then one
//!    warp-wide `atomicAdd` per 32-bucket row group into `m` global
//!    counters (commutative, so totals and billing are
//!    schedule-independent). The `m × L` matrix never exists.
//! 2. `fused_large_m/sweep` — reads each tile's keys **once** into
//!    registers, builds the row-vectorized `m × ncols` shared histogram
//!    (one column per 32-element chunk), runs a single block-wide
//!    exclusive scan of all `m·ncols` counters (§6.4, "as CUB does"),
//!    resolves the **m-vector** tile prefix with the multi-row look-back
//!    of [`primitives::SegmentedTileStates::resolve_rows`] (records wider
//!    than a warp span `⌈m/32⌉` warp-sized row groups), block-reorders
//!    through **padded** staging, and scatters straight to final
//!    positions.
//!
//! ### Bank-conflict-free staging
//!
//! The block reorder scatters each element to its tile-local dense rank.
//! Structured bucket functions produce structured ranks — e.g. one
//! element per bucket per chunk yields a stride-`items_per_thread` store,
//! which serializes on the 32 shared-memory banks. Staging is therefore
//! addressed through [`simt::padded_index`] (CUB-style: one pad word per
//! 32 elements), which maps any power-of-two stride to distinct banks;
//! `BlockStats::smem_bank_conflicts` counts what this buys (see the
//! `padded_staging_*` test). The histogram itself keeps the odd-pitch
//! trick (`ncols | 1`) the three-kernel path already uses.
//!
//! Shared memory bounds the bucket count exactly as in `large_m`, with
//! every term derived from the actual allocations (the histogram, the
//! [`staging_words_per_element`] staging, the block-scan scratch — no
//! magic constants): [`max_buckets`] is tight at the minimum coarsening,
//! and [`fused_large_m_items_per_thread`] grows tiles as far as the
//! remaining budget allows.
//!
//! Output buffers are allocated with the write-race detector enabled
//! ([`simt::GlobalBuffer::tracked`]), as in `fused.rs`.

use simt::{padded_len, Device, GlobalBuffer, Scalar, WARP_SIZE};

use crate::bucket::BucketFn;
use crate::common::{
    check_into_buffers, empty_result, staging_words_per_element, DeviceMultisplit,
    SMEM_BUDGET_WORDS,
};
use crate::engine::{prescan_launch, sweep_launch, SweepIo};
use crate::fused::{kv_bytes, MAX_ITEMS_PER_THREAD};

/// Sweep-kernel shared footprint in words for a given coarsening: the
/// `m × (ncols | 1)` histogram, the `m`-word scatter-base row, padded
/// staging of [`staging_words_per_element`] words per tile element, the
/// tile-id word, and the `wpb + 1` warp-sums scratch of the block-wide
/// scan. This is *the* budget function — [`max_buckets`] and
/// [`fused_large_m_items_per_thread`] both derive from it, so they can
/// never disagree with the kernel's actual allocations.
pub(crate) fn sweep_footprint_words(wpb: usize, m: usize, ipt: usize, value_words: usize) -> usize {
    let ncolp = (wpb * ipt) | 1;
    let tile = wpb * WARP_SIZE * ipt;
    m * ncolp + m + padded_len(tile) * staging_words_per_element(value_words) + 1 + (wpb + 1)
}

/// Largest supported bucket count: the sweep at minimum coarsening
/// (`items_per_thread = 1`) must fit shared memory. Tight: `m ==
/// max_buckets` fits, `m + 1` would overflow `alloc_shared`.
pub fn max_buckets(wpb: usize, key_value: bool) -> u32 {
    max_buckets_bytes(wpb, if key_value { 4 } else { 0 })
}

/// [`max_buckets`] for an explicit payload width. The bool form assumes a
/// one-word payload, but staging grows with `V::BYTES`, and at wide
/// blocks the capacity difference is real for `u64` payloads (e.g.
/// `wpb = 32`: 267 buckets for `u32` payloads, 236 for `u64`).
pub fn max_buckets_bytes(wpb: usize, value_bytes: u64) -> u32 {
    let sw = staging_words_per_element(value_bytes as usize / 4);
    let fixed = padded_len(wpb * WARP_SIZE) * sw + 1 + (wpb + 1);
    // Each bucket costs one histogram row (pitch wpb | 1) + one base word.
    ((SMEM_BUDGET_WORDS - fixed) / ((wpb | 1) + 1)) as u32
}

/// Thread-coarsening factor for the sweep: the largest
/// `items_per_thread ≤ 8` whose [`sweep_footprint_words`] fits the 48 kB
/// budget. The `m × ncols` histogram grows with both `m` and the tile, so
/// large `m` forces smaller tiles — down to 1, which [`max_buckets`]
/// guarantees always fits.
pub fn fused_large_m_items_per_thread(wpb: usize, m: usize, value_bytes: u64) -> usize {
    let vw = value_bytes as usize / 4;
    let mut ipt = MAX_ITEMS_PER_THREAD;
    while ipt > 1 && sweep_footprint_words(wpb, m, ipt, vw) > SMEM_BUDGET_WORDS {
        ipt -= 1;
    }
    ipt
}

/// Fused two-launch multisplit for any `32 < m <= max_buckets(wpb, _)`.
///
/// Same contract as [`crate::large_m::multisplit_large_m`] (stable, keys
/// permuted into `m` contiguous buckets, `m + 1` offsets returned) with
/// roughly a third fewer DRAM sectors; dispatched from
/// [`crate::api::Method::FusedLargeM`].
pub fn multisplit_fused_large_m<B: BucketFn + ?Sized, V: Scalar>(
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
    let offsets = multisplit_fused_large_m_into(
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

/// [`multisplit_fused_large_m`] writing into **caller-provided** output
/// buffers (see [`crate::fused::multisplit_fused_into`]). Returns the
/// `m + 1` bucket offsets.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_fused_large_m_into<B: BucketFn + ?Sized, V: Scalar>(
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
        m > 32,
        "use the dedicated m <= 32 paths below the warp width"
    );
    let value_bytes = kv_bytes(values);
    let cap = max_buckets_bytes(wpb, value_bytes);
    assert!(
        m <= cap,
        "m = {m} exceeds shared-memory capacity for {wpb} warps/block (max {cap})"
    );
    check_into_buffers(keys, values, n, out_keys, out_values);
    if n == 0 {
        return vec![0; m as usize + 1];
    }
    let ipt = fused_large_m_items_per_thread(wpb, m as usize, value_bytes);
    let totals = prescan_launch(dev, "fused_large_m/pre-scan", keys, n, bucket, wpb, ipt);
    let io = SweepIo {
        keys,
        values,
        out_keys,
        out_values,
    };
    sweep_launch(
        dev,
        "fused_large_m/sweep",
        &io,
        n,
        bucket,
        wpb,
        ipt,
        &totals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{FnBuckets, RangeBuckets};
    use crate::common::no_values;
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use crate::large_m::multisplit_large_m;
    use simt::{lanes_from_fn, BlockStats, Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    fn total_sectors(dev: &Device) -> u64 {
        dev.records()
            .iter()
            .fold(BlockStats::default(), |mut a, r| {
                a += r.stats;
                a
            })
            .sectors
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
        multisplit_fused_large_m_into(
            &dev,
            &keys,
            Some(&values),
            n,
            &RangeBuckets::new(64),
            8,
            &out_keys,
            Some(&out_values),
        );
    }

    #[test]
    #[should_panic(expected = "exceeds shared-memory capacity")]
    fn wide_payload_capacity_is_checked_at_the_entry_point() {
        // u64 staging fits fewer buckets than the one-word payload the
        // bool form of max_buckets assumes; the entry point must check
        // the payload actually in flight.
        let m = max_buckets_bytes(32, 8) + 1;
        assert!(m <= max_buckets(32, true));
        let dev = Device::new(K40C);
        let n = 100;
        let keys = GlobalBuffer::from_slice(&keys_for(n, 1));
        let values = GlobalBuffer::<u64>::zeroed(n);
        multisplit_fused_large_m(&dev, &keys, Some(&values), n, &RangeBuckets::new(m), 32);
    }

    #[test]
    fn matches_reference_for_many_buckets() {
        let dev = Device::new(K40C);
        for m in [33u32, 64, 96, 100, 256, 777, 1024] {
            let n = 20_000;
            let bucket = RangeBuckets::new(m);
            let data = keys_for(n, m);
            let keys = GlobalBuffer::from_slice(&data);
            let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, 8);
            let (expect, expect_offs) = multisplit_ref(&data, &bucket);
            assert_eq!(r.keys.to_vec(), expect, "m={m}");
            assert_eq!(r.offsets, expect_offs, "m={m}");
        }
    }

    #[test]
    fn key_value_matches_reference() {
        let dev = Device::new(K40C);
        let n = 9000;
        let m = 128;
        let bucket = RangeBuckets::new(m);
        let data = keys_for(n, 2);
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_fused_large_m(&dev, &keys, Some(&values), n, &bucket, 8);
        let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
        assert_eq!(r.keys.to_vec(), ek);
        assert_eq!(r.values.unwrap().to_vec(), ev);
    }

    #[test]
    fn small_and_partial_tiles_are_handled() {
        let dev = Device::new(K40C);
        let m = 50;
        let bucket = RangeBuckets::new(m);
        // 1 element, sub-warp, partial final tile, exactly one tile, a
        // tile plus a sliver.
        for n in [1usize, 33, 257, 2048, 2049, 5000] {
            let data = keys_for(n, 9);
            let keys = GlobalBuffer::from_slice(&data);
            let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, 8);
            let (expect, _) = multisplit_ref(&data, &bucket);
            assert_eq!(r.keys.to_vec(), expect, "n={n}");
        }
    }

    #[test]
    fn budget_is_exact_at_the_capacity_boundary() {
        // The fused half of the shared-budget satellite: a run at m ==
        // max_buckets must fit (alloc_shared panics if the formula lied),
        // and the bound must be tight, not merely safe.
        let dev = Device::new(K40C);
        let wpb = 8;
        for kv in [false, true] {
            let m = max_buckets(wpb, kv);
            assert!(m >= 1024, "kv={kv}: m={m}");
            let bucket = RangeBuckets::new(m);
            let n = 600;
            let data = keys_for(n, 1);
            let keys = GlobalBuffer::from_slice(&data);
            if kv {
                let vals: Vec<u32> = (0..n as u32).collect();
                let values = GlobalBuffer::from_slice(&vals);
                let r = multisplit_fused_large_m(&dev, &keys, Some(&values), n, &bucket, wpb);
                let (ek, ev, _) = multisplit_kv_ref(&data, Some(&vals), &bucket);
                assert_eq!(r.keys.to_vec(), ek, "kv m={m}");
                assert_eq!(r.values.unwrap().to_vec(), ev);
            } else {
                let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, wpb);
                let (expect, _) = multisplit_ref(&data, &bucket);
                assert_eq!(r.keys.to_vec(), expect, "m={m}");
            }
            let vw = if kv { 1 } else { 0 };
            assert!(sweep_footprint_words(wpb, m as usize, 1, vw) <= SMEM_BUDGET_WORDS);
            assert!(
                sweep_footprint_words(wpb, m as usize + 1, 1, vw) > SMEM_BUDGET_WORDS,
                "kv={kv}: max_buckets must be tight"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds shared-memory capacity")]
    fn oversized_m_panics() {
        let dev = Device::new(K40C);
        let m = max_buckets(8, false) + 1;
        let bucket = FnBuckets::new(m, move |k| k % m);
        let keys = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        let _ = multisplit_fused_large_m(&dev, &keys, no_values(), 3, &bucket, 8);
    }

    #[test]
    fn coarsening_shrinks_with_m_and_always_fits() {
        assert_eq!(fused_large_m_items_per_thread(8, 64, 0), 8);
        let ipt_256 = fused_large_m_items_per_thread(8, 256, 0);
        assert!((1..8).contains(&ipt_256), "ipt_256={ipt_256}");
        assert_eq!(
            fused_large_m_items_per_thread(8, max_buckets(8, false) as usize, 0),
            1
        );
        for m in [33usize, 100, 500, 1100] {
            for vb in [0u64, 4] {
                let ipt = fused_large_m_items_per_thread(8, m, vb);
                assert!(
                    sweep_footprint_words(8, m, ipt, vb as usize / 4) <= SMEM_BUDGET_WORDS,
                    "m={m} vb={vb} ipt={ipt}"
                );
            }
        }
    }

    #[test]
    fn skewed_distribution_all_one_bucket() {
        let dev = Device::new(K40C);
        let n = 5000;
        let m = 64;
        let bucket = FnBuckets::new(m, |_| 40);
        let data = keys_for(n, 4);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, 8);
        assert_eq!(r.keys.to_vec(), data, "stability: one bucket is identity");
        assert_eq!(r.offsets[40], 0);
        assert_eq!(r.offsets[41], n as u32);
    }

    #[test]
    fn parallel_and_sequential_agree_bit_and_stats() {
        // Look-back walk paths differ across executors; outputs and
        // counted traffic must not.
        let n = 60_000;
        let bucket = RangeBuckets::new(100);
        let data = keys_for(n, 11);
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let keys = GlobalBuffer::from_slice(&data);
            let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, 8);
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
        // The tentpole claim (ISSUE acceptance) at one of the gated
        // configs: n = 2^20, m = 64, fused vs three-kernel large-m.
        let n = 1 << 20;
        let bucket = RangeBuckets::new(64);
        let data = keys_for(n, 2);
        let dev_f = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let rf = multisplit_fused_large_m(&dev_f, &keys, no_values(), n, &bucket, 8);
        let fused = total_sectors(&dev_f);
        let dev_t = Device::sequential(K40C);
        let rt = multisplit_large_m(&dev_t, &keys, no_values(), n, &bucket, 8);
        let three = total_sectors(&dev_t);
        assert_eq!(
            rf.keys.to_vec(),
            rt.keys.to_vec(),
            "bit-identical pipelines"
        );
        assert_eq!(rf.offsets, rt.offsets);
        assert!(
            (fused as f64) <= 0.80 * three as f64,
            "fused {fused} vs three-kernel {three} sectors: need >= 20% reduction"
        );
    }

    #[test]
    fn padded_staging_eliminates_reorder_conflicts() {
        // bucket = key % 64 on consecutive keys gives every bucket exactly
        // 32 elements per tile, so the reorder scatter is a pure stride-32
        // store — 32-way serialized on an unpadded layout, the worst case
        // padding exists for. With padding (and the odd histogram pitch),
        // every shared access in both kernels is structured: zero bank
        // conflicts end to end.
        let wpb = 8;
        let m = 64u32;
        let ipt = fused_large_m_items_per_thread(wpb, m as usize, 0);
        assert_eq!(ipt, 8);
        let tile = wpb * WARP_SIZE * ipt;
        let n = 2 * tile;
        let data: Vec<u32> = (0..n as u32).collect();
        let bucket = FnBuckets::new(m, move |k| k % m);
        let dev = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&data);
        let r = multisplit_fused_large_m(&dev, &keys, no_values(), n, &bucket, wpb);
        let (expect, _) = multisplit_ref(&data, &bucket);
        assert_eq!(r.keys.to_vec(), expect);
        for rec in dev.records() {
            assert_eq!(
                rec.stats.smem_bank_conflicts, 0,
                "{}: padded staging must leave no bank conflicts",
                rec.label
            );
        }
        // Counterfactual: the identical stride-32 rank store into
        // *unpadded* staging hits one bank from all 32 lanes.
        let dev2 = Device::sequential(K40C);
        dev2.launch("unpadded-staging", 1, 1, |blk| {
            let buf = blk.alloc_shared::<u32>(tile);
            for w in blk.warps() {
                let _ = w; // one warp; the store below is the whole point
                buf.st(
                    lanes_from_fn(|l| l * WARP_SIZE),
                    lanes_from_fn(|l| l as u32),
                    simt::FULL_MASK,
                );
            }
        });
        let unpadded = dev2.records()[0].stats.smem_bank_conflicts;
        assert_eq!(
            unpadded,
            31 * 32,
            "the unpadded layout must show the full serialization padding removes"
        );
    }
}
