//! Segmented multisplit: one launch for thousands of small problems.
//!
//! The paper benchmarks one large `(n, m)` problem, but serving-shaped
//! traffic is thousands of *independent small* segments — exactly where
//! the fixed per-launch overhead (9 µs on the K40C profile) drowns the
//! kernels: a standalone fused multisplit of n = 2¹⁰ pays two launches
//! (≈18 µs) to move ~4 KB of keys (≈0.1 µs of DRAM time). This module
//! amortizes that cost across a whole batch: **one grid** processes many
//! segments, each with its own `n`, `m`, and bucket function, in the same
//! two launches a single problem would take.
//!
//! ### Structure
//!
//! Every segment is classified by [`Method::auto_for`]'s segmented-aware
//! face ([`Method::auto_for_segmented`]): `m ≤ 32` segments run the
//! sweep-tile engine's `m ≤ 32` bodies, `32 < m ≤ capacity` its
//! row-vectorized bodies — the same code `fused.rs` and
//! `fused_large_m.rs` run for one problem — and anything else (past fused
//! capacity, or a pinned three-kernel pipeline) falls back to its own
//! standalone launches under a `segmented/fallback` scope. This module
//! owns the descriptor table and its decode, the classification and
//! coarsening, and the fallback; the tile bodies live in the engine. The
//! coalesced work then runs as:
//!
//! 1. `segmented/pre-scan[fused=K,largem=J]` — one block per tile of
//!    every segment. Each block reads its 8-word tile descriptor
//!    (segment id, offset, n, m, coarsening, local tile, histogram base,
//!    class) from a device table — one extra 32-byte sector per tile,
//!    the entire coalescing overhead — and accumulates its segment's
//!    bucket totals into a **flattened** `Σmᵢ` counter array.
//! 2. Host: per-segment exclusive scans of the flat totals into
//!    per-segment bucket bases (the engine's totals→offsets scan, once
//!    per segment).
//! 3. `segmented/sweep[fused=K,largem=J]` — blocks self-schedule across
//!    the **flattened segment×tile ticket space** (one global
//!    `device_fetch_add` counter). A ticket decodes through the
//!    descriptor table to a tile — `(offset, n, local tile)`, histogram
//!    base, look-back window — and the block runs the segment's class
//!    body on it. The look-back goes through [`SegmentedTileStates`]:
//!    per-segment state windows in one buffer, so tile `t` of a segment
//!    only ever waits on tile `t-1` **of the same segment**. No cross-segment dependency exists —
//!    and none is needed for deadlock freedom, because each segment's
//!    tiles occupy consecutive global tickets, so a tile's predecessor
//!    always holds a smaller ticket and is already running or done.
//!
//! Per-segment outputs are bit-identical to standalone
//! [`Method::auto`](crate::api::Method::auto) runs of each segment
//! (same bodies, same per-segment look-back protocol). A one-segment
//! batch at offset 0 bills exactly the standalone run plus one
//! descriptor decode per tile, and total counted DRAM sectors stay
//! within a few percent of the sum of standalone runs; what collapses is
//! the *launch count* — 2 instead of `2 × segments` — which is the whole
//! serving story (`paper serve`, DESIGN.md §14).
//!
//! Outputs land in a flat buffer at each segment's own offset, so a
//! batch executor can bind one pooled arena for the whole batch
//! ([`simt::BufferPool`]) instead of allocating per request.

use simt::{lanes_from_fn, BlockCtx, Device, GlobalBuffer, Scalar, WARP_SIZE};

use primitives::{low_lanes_mask, SegmentedTileStates};

use crate::api::{multisplit_device, Method};
use crate::bucket::BucketFn;
use crate::common::SMEM_BUDGET_WORDS;
use crate::engine::{self, SweepIo, Tile};
use crate::fused::{fused_footprint_words, fused_items_per_thread, kv_bytes};
use crate::fused_large_m::{fused_large_m_items_per_thread, sweep_footprint_words};

/// One independent multisplit problem inside a segmented batch: a
/// sub-range `[offset, offset + n)` of the flat key (and value) buffer,
/// split by its own bucket function. Segments must not overlap; outputs
/// are written to the same range of the output buffers.
pub struct SegmentSpec<'a> {
    pub offset: usize,
    pub n: usize,
    pub bucket: &'a dyn BucketFn,
}

/// Result of a segmented multisplit: the flat permuted key (and value)
/// buffers — segment `i`'s output occupies its input range, positions
/// outside every segment are untouched — plus each segment's own
/// `mᵢ + 1` bucket offsets (segment-local, i.e. relative to its
/// `offset`).
pub struct SegmentedMultisplit<V: Scalar = u32> {
    pub keys: GlobalBuffer<u32>,
    pub values: Option<GlobalBuffer<V>>,
    pub offsets: Vec<Vec<u32>>,
}

/// Words per tile descriptor: `[segment, offset, n, m, items_per_thread,
/// local_tile, hist_base, class]`. Exactly one 32-byte sector, so the
/// per-tile decode costs one aligned read.
const DESC_WORDS: usize = 8;
const CLASS_FUSED: u32 = 0;
const CLASS_LARGE_M: u32 = 1;

/// Tile decode: warp 0 reads tile `t`'s descriptor (the counted
/// coalescing overhead — one aligned sector per tile) into shared
/// memory, and after the block barrier every word is read back. Returns
/// the tile (its window is its segment's index among the coalesced
/// segments) and the class.
fn read_desc(desc: &GlobalBuffer<u32>, blk: &BlockCtx, t: usize) -> (Tile, u32) {
    let desc_s = blk.alloc_shared::<u32>(DESC_WORDS);
    {
        let w = blk.warp(0);
        let d = w.gather_cached(
            desc,
            lanes_from_fn(|l| t * DESC_WORDS + l.min(DESC_WORDS - 1)),
            low_lanes_mask(DESC_WORDS),
        );
        desc_s.st(
            lanes_from_fn(|l| l.min(DESC_WORDS - 1)),
            d,
            low_lanes_mask(DESC_WORDS),
        );
    }
    blk.sync();
    let d: [usize; DESC_WORDS] = std::array::from_fn(|i| desc_s.get(i) as usize);
    let tile = Tile {
        window: d[0],
        off: d[1],
        n: d[2],
        ipt: d[4],
        local: d[5],
        hist_base: d[6],
    };
    // Word 3 (m) is decoded with the rest; the bodies take m from the
    // segment's bucket function.
    (tile, d[7] as u32)
}

/// A classified segment of the coalesced launch (fallback segments are
/// not in this list).
struct LaunchSeg {
    /// Index into the caller's `segs`.
    seg: usize,
    class: u32,
    mu: usize,
    ipt: usize,
    tiles: usize,
    /// This segment's base into the flattened totals/bases arrays.
    hist_base: usize,
}

/// Coarsening for a fused-class segment inside the segmented sweep: the
/// standalone choice, shrunk if the extra descriptor words tip the
/// footprint over the budget (only possible exactly at the boundary).
fn seg_fused_ipt(wpb: usize, mu: usize, value_bytes: u64) -> usize {
    let vw = value_bytes as usize / 4;
    let mut ipt = fused_items_per_thread(wpb, mu, value_bytes);
    while ipt > 1 && fused_footprint_words(wpb, mu, ipt, vw) + DESC_WORDS > SMEM_BUDGET_WORDS {
        ipt -= 1;
    }
    ipt
}

/// Coarsening for a large-m-class segment, or `None` when even the
/// minimum coarsening plus the descriptor words overflows shared memory
/// (the segment then falls back to standalone launches).
fn seg_large_m_ipt(wpb: usize, mu: usize, value_bytes: u64) -> Option<usize> {
    let vw = value_bytes as usize / 4;
    let mut ipt = fused_large_m_items_per_thread(wpb, mu, value_bytes);
    while ipt > 1 && sweep_footprint_words(wpb, mu, ipt, vw) + DESC_WORDS > SMEM_BUDGET_WORDS {
        ipt -= 1;
    }
    (sweep_footprint_words(wpb, mu, ipt, vw) + DESC_WORDS <= SMEM_BUDGET_WORDS).then_some(ipt)
}

/// Whether an `m`-bucket segment can run inside the segmented sweep at
/// this block size (shared memory fits the class body plus the tile
/// descriptor). Used by [`Method::auto_for_segmented`]; assumes the
/// one-word payload convention of [`Method::auto_for`].
pub fn segment_fits_sweep(m: u32, key_value: bool, wpb: usize) -> bool {
    let vb = if key_value { 4 } else { 0 };
    if m <= 32 {
        true
    } else {
        seg_large_m_ipt(wpb, m as usize, vb).is_some()
    }
}

/// [`multisplit_segmented_into`] with freshly allocated (race-tracked)
/// flat output buffers, covering the input buffers' full length.
pub fn multisplit_segmented<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    segs: &[SegmentSpec<'_>],
    wpb: usize,
) -> SegmentedMultisplit<V> {
    let out_keys = GlobalBuffer::<u32>::zeroed(keys.len()).tracked();
    let out_values = values.map(|v| GlobalBuffer::<V>::zeroed(v.len()).tracked());
    let offsets =
        multisplit_segmented_into(dev, keys, values, segs, wpb, &out_keys, out_values.as_ref());
    SegmentedMultisplit {
        keys: out_keys,
        values: out_values,
        offsets,
    }
}

/// Segmented multisplit into **caller-provided** flat output buffers
/// (the batch-executor entry point: bind pooled arena buffers once per
/// batch). Returns each segment's `mᵢ + 1` segment-local bucket
/// offsets; empty segments get all-zero offsets and an empty batch
/// launches nothing.
#[allow(clippy::too_many_arguments)]
pub fn multisplit_segmented_into<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    segs: &[SegmentSpec<'_>],
    wpb: usize,
    out_keys: &GlobalBuffer<u32>,
    out_values: Option<&GlobalBuffer<V>>,
) -> Vec<Vec<u32>> {
    assert!(wpb >= 1, "need at least one warp per block");
    assert_eq!(
        values.is_some(),
        out_values.is_some(),
        "value output must be provided exactly when values are"
    );
    for (i, s) in segs.iter().enumerate() {
        let end = s.offset.checked_add(s.n).expect("segment range overflows");
        assert!(end <= keys.len(), "segment {i} exceeds the key buffer");
        assert!(
            end <= out_keys.len(),
            "segment {i} exceeds the output buffer"
        );
        if let Some(v) = values {
            assert!(end <= v.len(), "segment {i} exceeds the value buffer");
        }
        if let Some(ov) = out_values {
            assert!(end <= ov.len(), "segment {i} exceeds the value output");
        }
    }
    // Overlapping segments would double-write output slots (the race
    // detector on tracked outputs would catch it mid-kernel; fail fast
    // on the host instead, with the segment ids).
    let mut spans: Vec<(usize, usize, usize)> = segs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.n > 0)
        .map(|(i, s)| (s.offset, s.n, i))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(
            w[0].0 + w[0].1 <= w[1].0,
            "segments {} and {} overlap",
            w[0].2,
            w[1].2
        );
    }

    let kv_bytes = kv_bytes(values);
    let mut offsets: Vec<Vec<u32>> = segs
        .iter()
        .map(|s| vec![0u32; s.bucket.num_buckets() as usize + 1])
        .collect();

    // ====== Classify: coalesced (fused / large-m body) vs fallback.
    let mut lsegs: Vec<LaunchSeg> = Vec::new();
    let mut fallback: Vec<usize> = Vec::new();
    let mut hist_words = 0usize;
    for (i, s) in segs.iter().enumerate() {
        if s.n == 0 {
            continue; // all-zero offsets, no tiles
        }
        let m = s.bucket.num_buckets();
        let plan = match Method::auto_for(m, values.is_some(), wpb) {
            Method::Fused => Some((CLASS_FUSED, seg_fused_ipt(wpb, m as usize, kv_bytes))),
            Method::FusedLargeM => {
                seg_large_m_ipt(wpb, m as usize, kv_bytes).map(|ipt| (CLASS_LARGE_M, ipt))
            }
            _ => None,
        };
        match plan {
            Some((class, ipt)) => {
                let mu = m as usize;
                let tile = wpb * WARP_SIZE * ipt;
                lsegs.push(LaunchSeg {
                    seg: i,
                    class,
                    mu,
                    ipt,
                    tiles: s.n.div_ceil(tile),
                    hist_base: hist_words,
                });
                hist_words += mu;
            }
            None => fallback.push(i),
        }
    }

    // ====== The coalesced two-launch pipeline over all classified
    // segments at once.
    if !lsegs.is_empty() {
        let total_tiles: usize = lsegs.iter().map(|l| l.tiles).sum();
        let nf = lsegs.iter().filter(|l| l.class == CLASS_FUSED).count();
        let nl = lsegs.len() - nf;
        let pre_label = format!("segmented/pre-scan[fused={nf},largem={nl}]");
        let sweep_label = format!("segmented/sweep[fused={nf},largem={nl}]");

        // Host-built per-tile descriptor table, one sector per tile.
        let mut desc_host: Vec<u32> = Vec::with_capacity(total_tiles * DESC_WORDS);
        for (sseg, ls) in lsegs.iter().enumerate() {
            let s = &segs[ls.seg];
            for local_t in 0..ls.tiles {
                desc_host.extend_from_slice(&[
                    sseg as u32,
                    s.offset as u32,
                    s.n as u32,
                    ls.mu as u32,
                    ls.ipt as u32,
                    local_t as u32,
                    ls.hist_base as u32,
                    ls.class,
                ]);
            }
        }
        let desc = GlobalBuffer::from_slice(&desc_host);
        let totals = GlobalBuffer::<u32>::zeroed(hist_words);

        // ====== Launch 1: flattened per-segment bucket totals.
        dev.launch(&pre_label, total_tiles, wpb, |blk| {
            let (tile, class) = read_desc(&desc, blk, blk.block_id);
            let bucket = segs[lsegs[tile.window].seg].bucket;
            if class == CLASS_FUSED {
                engine::prescan_fused(blk, keys, bucket, &tile, &totals);
            } else {
                engine::prescan_large_m(blk, keys, bucket, &tile, &totals);
            }
        });

        // ====== Host: per-segment exclusive scans of the flat totals.
        let mut bases_host = vec![0u32; hist_words];
        for ls in &lsegs {
            let seg_totals: Vec<u32> = (0..ls.mu).map(|b| totals.get(ls.hist_base + b)).collect();
            let o = engine::offsets_from_totals(&seg_totals, segs[ls.seg].n);
            bases_host[ls.hist_base..ls.hist_base + ls.mu].copy_from_slice(&o[..ls.mu]);
            offsets[ls.seg] = o;
        }
        let bases = GlobalBuffer::from_slice(&bases_host);

        // ====== Launch 2: one sweep over the flattened segment×tile
        // ticket space, look-back partitioned per segment.
        let parts: Vec<(usize, usize)> = lsegs.iter().map(|l| (l.tiles, l.mu)).collect();
        let states = SegmentedTileStates::new(&parts);
        debug_assert_eq!(states.total_tiles(), total_tiles);
        let ticket = GlobalBuffer::<u32>::zeroed(1);
        let io = SweepIo {
            keys,
            values,
            out_keys,
            out_values,
        };
        dev.launch(&sweep_label, total_tiles, wpb, |blk| {
            let t = engine::claim_ticket(blk, &ticket); // global ticket
            let (tile, class) = read_desc(&desc, blk, t);
            let bucket = segs[lsegs[tile.window].seg].bucket;
            if class == CLASS_FUSED {
                engine::sweep_fused(blk, &io, bucket, &tile, &bases, &states);
            } else {
                engine::sweep_large_m(blk, &io, bucket, &tile, &bases, &states);
            }
        });
    }

    // ====== Fallback segments: standalone launches, scoped so the log
    // shows they were not coalesced.
    for &i in &fallback {
        let s = &segs[i];
        let m = s.bucket.num_buckets();
        offsets[i] = dev.with_scope("segmented/fallback", || {
            let seg_keys_host: Vec<u32> = (s.offset..s.offset + s.n).map(|j| keys.get(j)).collect();
            let seg_keys = GlobalBuffer::from_slice(&seg_keys_host);
            let seg_vals = values.map(|v| {
                let vh: Vec<V> = (s.offset..s.offset + s.n).map(|j| v.get(j)).collect();
                GlobalBuffer::from_slice(&vh)
            });
            let method = Method::auto_for(m, values.is_some(), wpb);
            let r = multisplit_device(
                dev,
                method,
                &seg_keys,
                seg_vals.as_ref(),
                s.n,
                s.bucket,
                wpb,
            );
            for j in 0..s.n {
                out_keys.set(s.offset + j, r.keys.get(j));
            }
            if let (Some(rv), Some(ov)) = (&r.values, out_values) {
                for j in 0..s.n {
                    ov.set(s.offset + j, rv.get(j));
                }
            }
            r.offsets
        });
    }

    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RangeBuckets;
    use crate::common::no_values;
    use crate::cpu_ref::{multisplit_kv_ref, multisplit_ref};
    use simt::{AdvSchedule, BlockStats, Device, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    /// Build a flat buffer + specs from (n, m) pairs, with a one-sector
    /// (8-word) gap between segments to check untouched regions stay
    /// untouched. Sector-sized gaps keep every segment's offset aligned,
    /// like a batch executor packing requests into an arena — a
    /// misaligned segment pays an extra straddled sector per warp-wide
    /// access, which is a property of the layout, not of coalescing.
    fn flat_case(parts: &[(usize, u32)]) -> (Vec<u32>, Vec<(usize, usize)>) {
        let mut flat = Vec::new();
        let mut ranges = Vec::new();
        for (i, &(n, _)) in parts.iter().enumerate() {
            flat.extend([0xdead_beef; 8]); // gap sector
            let off = flat.len();
            flat.extend(keys_for(n, i as u32 + 1));
            ranges.push((off, n));
            let pad = (8 - flat.len() % 8) % 8;
            flat.resize(flat.len() + pad, 0xdead_beef);
        }
        flat.extend([0xdead_beef; 8]);
        (flat, ranges)
    }

    fn check_against_reference(dev: &Device, parts: &[(usize, u32)]) {
        let (flat, ranges) = flat_case(parts);
        let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
        let specs: Vec<SegmentSpec> = ranges
            .iter()
            .zip(&buckets)
            .map(|(&(offset, n), b)| SegmentSpec {
                offset,
                n,
                bucket: b,
            })
            .collect();
        let keys = GlobalBuffer::from_slice(&flat);
        let r = multisplit_segmented(dev, &keys, no_values(), &specs, 8);
        let out = r.keys.to_vec();
        for (i, (&(off, n), b)) in ranges.iter().zip(&buckets).enumerate() {
            let (expect, expect_offs) = multisplit_ref(&flat[off..off + n], b);
            assert_eq!(&out[off..off + n], &expect[..], "segment {i}");
            assert_eq!(r.offsets[i], expect_offs, "segment {i} offsets");
            assert_eq!(
                out[off - 1],
                0,
                "gap before segment {i} must stay untouched"
            );
        }
    }

    #[test]
    fn matches_per_segment_reference_mixed_classes() {
        // Small/large m, tiny/partial/multi-tile n, in one batch.
        let parts = [
            (1usize, 1u32),
            (33, 32),
            (2048, 8),
            (2049, 17),
            (5000, 64),
            (257, 100),
            (4096, 2),
        ];
        check_against_reference(&Device::new(K40C), &parts);
        check_against_reference(&Device::sequential(K40C), &parts);
        check_against_reference(
            &Device::adversarial(K40C, AdvSchedule::from_seed(9)),
            &parts,
        );
    }

    #[test]
    fn key_value_segments_match_reference() {
        let parts = [(700usize, 5u32), (1500, 32), (900, 40)];
        let (flat, ranges) = flat_case(&parts);
        let vals: Vec<u32> = (0..flat.len() as u32).map(|i| !i).collect();
        let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
        let specs: Vec<SegmentSpec> = ranges
            .iter()
            .zip(&buckets)
            .map(|(&(offset, n), b)| SegmentSpec {
                offset,
                n,
                bucket: b,
            })
            .collect();
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&flat);
        let values = GlobalBuffer::from_slice(&vals);
        let r = multisplit_segmented(&dev, &keys, Some(&values), &specs, 8);
        let ov = r.values.unwrap().to_vec();
        let ok = r.keys.to_vec();
        for (i, (&(off, n), b)) in ranges.iter().zip(&buckets).enumerate() {
            let (ek, ev, eo) = multisplit_kv_ref(&flat[off..off + n], Some(&vals[off..off + n]), b);
            assert_eq!(&ok[off..off + n], &ek[..], "segment {i} keys");
            assert_eq!(&ov[off..off + n], &ev[..], "segment {i} values");
            assert_eq!(r.offsets[i], eo, "segment {i} offsets");
        }
    }

    #[test]
    fn label_encodes_per_segment_dispatch_at_the_boundary() {
        // Satellite: m = 32 and m = 33 in ONE segmented launch dispatch to
        // the fused and large-m bodies respectively, visible in the label.
        assert_eq!(
            Method::auto_for_segmented(32, false, 8),
            Some(Method::Fused)
        );
        assert_eq!(
            Method::auto_for_segmented(33, false, 8),
            Some(Method::FusedLargeM)
        );
        let parts = [(2048usize, 32u32), (2048, 33)];
        let (flat, ranges) = flat_case(&parts);
        let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
        let specs: Vec<SegmentSpec> = ranges
            .iter()
            .zip(&buckets)
            .map(|(&(offset, n), b)| SegmentSpec {
                offset,
                n,
                bucket: b,
            })
            .collect();
        let dev = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&flat);
        let r = multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
        for (i, (&(off, n), b)) in ranges.iter().zip(&buckets).enumerate() {
            let (expect, _) = multisplit_ref(&flat[off..off + n], b);
            assert_eq!(&r.keys.to_vec()[off..off + n], &expect[..], "segment {i}");
        }
        let labels: Vec<String> = dev.records().iter().map(|rec| rec.label.clone()).collect();
        assert_eq!(
            labels,
            vec![
                "segmented/pre-scan[fused=1,largem=1]".to_string(),
                "segmented/sweep[fused=1,largem=1]".to_string(),
            ],
            "exactly two coalesced launches, both classes inside"
        );
    }

    #[test]
    fn zero_segments_launch_nothing() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&[1u32, 2, 3]);
        let r = multisplit_segmented(&dev, &keys, no_values(), &[], 8);
        assert!(r.offsets.is_empty());
        assert!(dev.records().is_empty(), "an empty batch must not launch");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_segments_panic() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&keys_for(100, 0));
        let b = RangeBuckets::new(4);
        let specs = [
            SegmentSpec {
                offset: 0,
                n: 60,
                bucket: &b,
            },
            SegmentSpec {
                offset: 50,
                n: 50,
                bucket: &b,
            },
        ];
        let _ = multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
    }

    #[test]
    fn sectors_within_5_percent_of_standalone_runs() {
        // The acceptance shape at test scale: coalescing must not cost
        // more than 5% extra counted DRAM traffic over the sum of
        // standalone per-segment runs (the delta is the descriptor reads).
        let nseg = 64usize;
        let n = 1024usize;
        let m = 16u32;
        let parts: Vec<(usize, u32)> = (0..nseg).map(|_| (n, m)).collect();
        let (flat, ranges) = flat_case(&parts);
        let bucket = RangeBuckets::new(m);
        let specs: Vec<SegmentSpec> = ranges
            .iter()
            .map(|&(offset, n)| SegmentSpec {
                offset,
                n,
                bucket: &bucket,
            })
            .collect();
        let total_sectors = |dev: &Device| {
            dev.records()
                .iter()
                .fold(BlockStats::default(), |mut a, r| {
                    a += r.stats;
                    a
                })
                .sectors
        };
        let dev_s = Device::sequential(K40C);
        let keys = GlobalBuffer::from_slice(&flat);
        let r = multisplit_segmented(&dev_s, &keys, no_values(), &specs, 8);
        let seg_sectors = total_sectors(&dev_s);
        assert_eq!(dev_s.records().len(), 2, "one coalesced pipeline");

        let dev_p = Device::sequential(K40C);
        for &(off, n) in &ranges {
            let seg_keys = GlobalBuffer::from_slice(&flat[off..off + n]);
            let rr = crate::fused::multisplit_fused(&dev_p, &seg_keys, no_values(), n, &bucket, 8);
            let (expect, _) = multisplit_ref(&flat[off..off + n], &bucket);
            assert_eq!(rr.keys.to_vec(), expect);
        }
        let standalone_sectors = total_sectors(&dev_p);
        assert!(
            (seg_sectors as f64) <= 1.05 * standalone_sectors as f64,
            "segmented {seg_sectors} vs standalone sum {standalone_sectors} sectors"
        );
        // And launches collapse: 2 vs 2 per segment.
        assert_eq!(dev_p.records().len(), 2 * nseg);
        drop(r);
    }

    #[test]
    fn parallel_and_sequential_agree_bit_and_stats() {
        let parts = [(3000usize, 32u32), (2048, 7), (4000, 48), (100, 3)];
        let (flat, ranges) = flat_case(&parts);
        let buckets: Vec<RangeBuckets> = parts.iter().map(|&(_, m)| RangeBuckets::new(m)).collect();
        let specs: Vec<SegmentSpec> = ranges
            .iter()
            .zip(&buckets)
            .map(|(&(offset, n), b)| SegmentSpec {
                offset,
                n,
                bucket: b,
            })
            .collect();
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let keys = GlobalBuffer::from_slice(&flat);
            let r = multisplit_segmented(&dev, &keys, no_values(), &specs, 8);
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
}
