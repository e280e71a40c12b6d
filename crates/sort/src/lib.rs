//! # ms-sort — multisplit-iterated LSB radix sort (paper §3.3–3.4)
//!
//! The paper's headline application: radix sort **is** iterated
//! multisplit. Each pass is one `m ≤ 32` fused sweep
//! ([`multisplit::multisplit_fused_sweep_into`]) over a [`DigitBuckets`]
//! extraction of `b ≤ 5` key bits, LSB-first; stability of each pass
//! makes the whole sort correct.
//!
//! Four design points carry the modeled time and the sector budget:
//!
//! * **One up-front digit histogram** — a single `ms_sort/pre-scan`
//!   launch ([`digit_histograms`]) reads the keys once and counts every
//!   digit of the sorted field, as OneSweep does (the single-histogram
//!   multisplit-radix of the extended study, arXiv:1701.01189). Each pass
//!   takes its bucket totals from it, so no pass runs a pre-scan of its
//!   own: a sort of `d` live digits is `1 + d` launches.
//! * **Dead-digit skipping** — a digit whose histogram puts all `n` keys
//!   in one bucket cannot move anything and is skipped. This prunes the
//!   dead high digits of keys drawn from an 8- or 16-bit range (two or
//!   four sweeps instead of seven — the mechanism behind the paper's
//!   reduced-range wins) and any constant middle digit.
//! * **Ping-pong buffers** — the engine allocates two output buffers once
//!   and alternates, so every pass scatters *directly into the next
//!   pass's input*. No copy kernels, no re-tracking: each launch opens a
//!   fresh race-detector epoch, so reusing a tracked buffer across passes
//!   is safe by construction.
//! * **Digit width ≤ 5** — `m = 2^b ≤ 32` keeps every pass on the
//!   memory-bound fused sweep; wider digits would cross onto the
//!   compute-bound large-m path. [`DEFAULT_DIGIT_BITS`] is the modeled-time
//!   minimum of the `paper sorttune` sweep.
//!
//! On top of the engine sits the **reduced-bit key–value sort** (§3.4):
//! when keys are small labels, [`argsort_by_bits`] packs
//! `(label << index_bits) | original_index` into a *single* `u32`, sorts
//! only the label field (the index rides along untouched, so stability is
//! free and the sort moves one word per element regardless of payload
//! width), and then each payload is permuted **once** through the sorted
//! indices. [`sort_pairs_reduced_bit`] composes this, falling back to
//! payload-carrying passes when `label_bits + index_bits > 32`.
//!
//! ```
//! use simt::{Device, K40C};
//! let dev = Device::new(K40C);
//! let keys: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
//! let sorted = ms_sort::sort_keys_host(&dev, &keys);
//! let mut expect = keys.clone();
//! expect.sort_unstable();
//! assert_eq!(sorted, expect);
//! ```

use multisplit::{multisplit_fused_sweep_into, BucketFn, DigitBuckets};
use primitives::{low_lanes_mask, tail_mask, warp_scan};
use simt::{blocks_for, lanes_from_fn, Device, GlobalBuffer, Scalar, FULL_MASK, WARP_SIZE};

/// Widest digit a pass may use: `m = 2^5 = 32` buckets, the most the
/// `m ≤ 32` fused sweep handles.
pub const MAX_DIGIT_BITS: u32 = 5;

/// Digit width `b` (buckets per pass `m = 2^b`) used when the caller does
/// not choose one: the K40c modeled-time minimum of the `paper sorttune`
/// sweep at `n = 2^16` and `n = 2^20`. Five bits means seven sweeps over
/// full 32-bit keys (six of 32 buckets, one of 4), all on the
/// memory-bound `m ≤ 32` fused path. Narrower digits add passes; wider
/// ones would put passes on the compute-bound large-m path (its lane,
/// shared-memory and barrier work make a b = 7 sort of 2^20 pairs 2.4x
/// slower on the modeled K40c).
pub const DEFAULT_DIGIT_BITS: u32 = MAX_DIGIT_BITS;

/// Keys one `ms_sort/pre-scan` block counts.
pub const HISTOGRAM_TILE: usize = 16_384;

/// Thread-coarsening of the small ms-sort copy kernel: chunks of 32
/// elements per warp per tile.
const UTIL_ITEMS_PER_THREAD: usize = 8;

/// Bits needed to address `n` rows: `ceil(log2 n)` (0 for `n <= 1`).
pub fn index_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - ((n - 1) as u32).leading_zeros()
    }
}

/// The digits of the key field `[lo_bit, lo_bit + bits)` at width
/// `digit_bits`, LSB-first; the last one is narrower when `digit_bits`
/// does not divide `bits`.
fn digits(lo_bit: u32, bits: u32, digit_bits: u32) -> Vec<DigitBuckets> {
    let hi = lo_bit + bits;
    (lo_bit..hi)
        .step_by(digit_bits as usize)
        .map(|shift| DigitBuckets::new(shift, digit_bits.min(hi - shift)))
        .collect()
}

fn check_field(lo_bit: u32, bits: u32, digit_bits: u32) {
    assert!(
        lo_bit + bits <= 32,
        "bit field [{lo_bit}, {lo_bit}+{bits}) exceeds the key width"
    );
    assert!(
        (1..=MAX_DIGIT_BITS).contains(&digit_bits),
        "digit width {digit_bits} outside 1..={MAX_DIGIT_BITS} (a pass sweeps at most 32 buckets)"
    );
}

/// Bucket totals of every digit of the key field `[lo_bit, lo_bit +
/// bits)` at width `digit_bits`, from one counted read of the keys
/// (`ms_sort/pre-scan`). Returns one vector per digit, LSB-first, with
/// `2^width` counts each; no launch when `n == 0` or `bits == 0`.
///
/// Each block counts a [`HISTOGRAM_TILE`]-key tile into lane-private
/// shared counters: lane `l`'s count of histogram row `r` (digit `d`,
/// bucket `v` → `r = row0(d) + v`) sits at `r * 32 + l`, so every
/// warp-wide shared `atomicAdd` hits 32 distinct banks and no two lanes
/// ever share a word — no bank conflicts, no same-word serialization.
/// The block then reduces each row's 32 lane counters with a shuffle and
/// adds the row totals into the global histogram, one coalesced
/// warp-wide `atomicAdd` per 32 rows. u32 adds commute, so the totals and
/// their billing are schedule-independent.
pub fn digit_histograms(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    lo_bit: u32,
    bits: u32,
    digit_bits: u32,
    wpb: usize,
) -> Vec<Vec<u32>> {
    check_field(lo_bit, bits, digit_bits);
    assert!(keys.len() >= n, "key buffer shorter than n");
    let digits = digits(lo_bit, bits, digit_bits);
    // First histogram row of each digit, and the total row count.
    let mut row0 = Vec::with_capacity(digits.len());
    let mut nrows = 0usize;
    for d in &digits {
        row0.push(nrows);
        nrows += d.num_buckets() as usize;
    }
    let hist = GlobalBuffer::<u32>::zeroed(nrows);
    if n > 0 && nrows > 0 {
        dev.launch("ms_sort/pre-scan", n.div_ceil(HISTOGRAM_TILE), wpb, |blk| {
            let nw = blk.warps_per_block;
            let counters = blk.alloc_shared::<u32>(nrows * WARP_SIZE);
            let lane_slots = |r: usize| lanes_from_fn(|l| r * WARP_SIZE + l);
            for w in blk.warps() {
                for r in (w.warp_id..nrows).step_by(nw) {
                    counters.st(lane_slots(r), [0; WARP_SIZE], FULL_MASK);
                }
            }
            blk.sync();
            let tile_start = blk.block_id * HISTOGRAM_TILE;
            let tile_end = (tile_start + HISTOGRAM_TILE).min(n);
            for w in blk.warps() {
                for base in (tile_start + w.warp_id * WARP_SIZE..tile_end).step_by(nw * WARP_SIZE) {
                    let mask = tail_mask(base, tile_end);
                    let idx = lanes_from_fn(|j| if base + j < tile_end { base + j } else { base });
                    let k = w.gather(keys, idx, mask);
                    for (d, &r0) in digits.iter().zip(&row0) {
                        let slot =
                            lanes_from_fn(|l| (r0 + d.bucket_of(k[l]) as usize) * WARP_SIZE + l);
                        counters.atomic_add(slot, [1; WARP_SIZE], mask);
                    }
                    // Digit extraction: shift, mask, row offset per digit.
                    w.charge(digits.len() as u64 * mask.count_ones() as u64);
                }
            }
            blk.sync();
            for w in blk.warps() {
                for g in (w.warp_id..nrows.div_ceil(WARP_SIZE)).step_by(nw) {
                    let rows = (nrows - g * WARP_SIZE).min(WARP_SIZE);
                    let mut sums = [0u32; WARP_SIZE];
                    for (j, sum) in sums.iter_mut().enumerate().take(rows) {
                        let c = counters.ld(lane_slots(g * WARP_SIZE + j), FULL_MASK);
                        *sum = warp_scan::reduce_add(&w, c);
                    }
                    w.atomic_add(
                        &hist,
                        lanes_from_fn(|j| g * WARP_SIZE + j.min(rows - 1)),
                        sums,
                        low_lanes_mask(rows),
                    );
                }
            }
        });
    }
    digits
        .iter()
        .zip(&row0)
        .map(|(d, &r0)| {
            (r0..r0 + d.num_buckets() as usize)
                .map(|r| hist.get(r))
                .collect()
        })
        .collect()
}

/// Counted streaming copy into a fresh tracked buffer — the zero-pass
/// result path (no live digit), so callers always get buffers they own.
fn copy_out<T: Scalar>(
    dev: &Device,
    src: &GlobalBuffer<T>,
    n: usize,
    wpb: usize,
) -> GlobalBuffer<T> {
    let out = GlobalBuffer::<T>::zeroed(n).tracked();
    if n == 0 {
        return out;
    }
    let ipt = UTIL_ITEMS_PER_THREAD;
    let tile = wpb * WARP_SIZE * ipt;
    dev.launch("ms_sort/copy", n.div_ceil(tile), wpb, |blk| {
        let tile_start = blk.block_id * tile;
        for w in blk.warps() {
            for c in 0..ipt {
                let base = tile_start + (w.warp_id * ipt + c) * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    break;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let v = w.gather(src, idx, mask);
                w.scatter(&out, idx, v, mask);
            }
        }
    });
    out
}

/// The ms-sort engine: stable LSB radix sort of the key bit field
/// `[lo_bit, lo_bit + bits)` at `digit_bits` bits per digit. One
/// [`digit_histograms`] launch counts every digit; each live digit (one
/// whose keys span more than one bucket) then runs one fused sweep,
/// ping-ponging between two internally-allocated output buffers so each
/// pass scatters directly into the next pass's input. Bits outside the
/// field ride along untouched (the reduced-bit paths sort `[index_bits,
/// index_bits + label_bits)` and keep the packed index intact). Returns
/// the sorted keys and, when given, the payload values permuted
/// alongside.
#[allow(clippy::too_many_arguments)]
pub fn sort_by_bit_range_with<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: Option<&GlobalBuffer<V>>,
    n: usize,
    lo_bit: u32,
    bits: u32,
    digit_bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, Option<GlobalBuffer<V>>) {
    check_field(lo_bit, bits, digit_bits);
    assert!(keys.len() >= n, "key buffer shorter than n");
    if let Some(v) = values {
        assert!(
            v.len() >= n,
            "payload buffer shorter than n ({} < {n})",
            v.len()
        );
    }
    if n == 0 {
        return (
            GlobalBuffer::zeroed(0),
            values.map(|_| GlobalBuffer::zeroed(0)),
        );
    }
    let hists = digit_histograms(dev, keys, n, lo_bit, bits, digit_bits, wpb);
    let live: Vec<(DigitBuckets, Vec<u32>)> = digits(lo_bit, bits, digit_bits)
        .into_iter()
        .zip(hists)
        .filter(|(_, h)| !h.contains(&(n as u32)))
        .collect();
    if live.is_empty() {
        return (
            copy_out(dev, keys, n, wpb),
            values.map(|v| copy_out(dev, v, n, wpb)),
        );
    }
    let passes = live.len();
    // Two ping-pong buffers (one suffices for a single pass).
    let nbuf = passes.min(2);
    let mut kbufs: Vec<GlobalBuffer<u32>> = (0..nbuf)
        .map(|_| GlobalBuffer::zeroed(n).tracked())
        .collect();
    let mut vbufs: Option<Vec<GlobalBuffer<V>>> = values.map(|_| {
        (0..nbuf)
            .map(|_| GlobalBuffer::zeroed(n).tracked())
            .collect()
    });
    for (pass, (bucket, totals)) in live.iter().enumerate() {
        let dst = pass % nbuf;
        let src = (pass + 1) % nbuf;
        let (kin, vin): (&GlobalBuffer<u32>, Option<&GlobalBuffer<V>>) = if pass == 0 {
            (keys, values)
        } else {
            (&kbufs[src], vbufs.as_ref().map(|v| &v[src]))
        };
        // Scope each pass so launch logs (and the bench's per-pass sector
        // breakdown) read "ms_sort/pass2/fused/sweep".
        dev.with_scope(&format!("ms_sort/pass{pass}"), || {
            multisplit_fused_sweep_into(
                dev,
                kin,
                vin,
                n,
                bucket,
                wpb,
                totals,
                &kbufs[dst],
                vbufs.as_ref().map(|v| &v[dst]),
            )
        });
    }
    let last = (passes - 1) % nbuf;
    (
        kbufs.swap_remove(last),
        vbufs.as_mut().map(|v| v.swap_remove(last)),
    )
}

/// Stable sort of the low `bits` key bits at the default digit width.
pub fn sort_keys_by_bits(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    bits: u32,
    wpb: usize,
) -> GlobalBuffer<u32> {
    sort_by_bit_range_with::<u32>(dev, keys, None, n, 0, bits, DEFAULT_DIGIT_BITS, wpb).0
}

/// Stable key–value sort of the low `bits` key bits at the default digit
/// width; values travel with their keys.
pub fn sort_pairs_by_bits<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<V>,
    n: usize,
    bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<V>) {
    let (k, v) =
        sort_by_bit_range_with(dev, keys, Some(values), n, 0, bits, DEFAULT_DIGIT_BITS, wpb);
    (k, v.expect("payload present"))
}

/// Full 32-bit stable key sort; digits the data leaves constant (e.g. the
/// dead high bits of small keys) are skipped.
pub fn sort_keys(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    wpb: usize,
) -> GlobalBuffer<u32> {
    sort_keys_by_bits(dev, keys, n, 32, wpb)
}

/// Full 32-bit stable key–value sort; constant digits are skipped.
/// Stability: pairs with equal keys keep their input order.
pub fn sort_pairs<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<V>,
    n: usize,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<V>) {
    sort_pairs_by_bits(dev, keys, values, n, 32, wpb)
}

/// Host-convenience full key sort: upload, sort, download.
pub fn sort_keys_host(dev: &Device, keys: &[u32]) -> Vec<u32> {
    let buf = GlobalBuffer::from_slice(keys);
    sort_keys(dev, &buf, keys.len(), multisplit::DEFAULT_WARPS_PER_BLOCK).to_vec()
}

/// Host-convenience full key–value sort (stable).
pub fn sort_pairs_host(dev: &Device, keys: &[u32], values: &[u32]) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(keys.len(), values.len(), "key/value length mismatch");
    let kb = GlobalBuffer::from_slice(keys);
    let vb = GlobalBuffer::from_slice(values);
    let (k, v) = sort_pairs(
        dev,
        &kb,
        &vb,
        keys.len(),
        multisplit::DEFAULT_WARPS_PER_BLOCK,
    );
    (k.to_vec(), v.to_vec())
}

/// A stable argsort of small labels, produced by [`argsort_by_bits`]: the
/// packed `(label << index_bits) | original_index` words in sorted order.
/// The expensive part of applying it — one random-gather pass per payload
/// — is explicit as [`Argsort::permute`]; the sorted labels themselves
/// fall out of the high bits at streaming cost ([`Argsort::sorted_keys`]).
pub struct Argsort {
    packed: GlobalBuffer<u32>,
    idx_bits: u32,
    n: usize,
}

impl Argsort {
    /// `out[i] = src[perm[i]]`: apply the permutation to one payload in a
    /// single pass (coalesced read of the packed words + one gather).
    pub fn permute<T: Scalar>(
        &self,
        dev: &Device,
        src: &GlobalBuffer<T>,
        wpb: usize,
    ) -> GlobalBuffer<T> {
        let n = self.n;
        assert!(src.len() >= n, "payload buffer shorter than n");
        let out = GlobalBuffer::<T>::zeroed(n).tracked();
        if n == 0 {
            return out;
        }
        let idx_mask = ((1u64 << self.idx_bits) - 1) as u32;
        dev.launch("ms_sort/permute", blocks_for(n, wpb), wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let p = w.gather(&self.packed, idx, mask);
                // The one non-coalesced pass of the reduced-bit sort.
                let src_idx = lanes_from_fn(|l| (p[l] & idx_mask) as usize);
                let v = w.gather(src, src_idx, mask);
                w.scatter(&out, idx, v, mask);
            }
        });
        out
    }

    /// The sorted labels (high bits of the packed words), at streaming
    /// cost — no gather.
    pub fn sorted_keys(&self, dev: &Device, wpb: usize) -> GlobalBuffer<u32> {
        let n = self.n;
        let out = GlobalBuffer::<u32>::zeroed(n).tracked();
        if n == 0 {
            return out;
        }
        let shift = self.idx_bits;
        dev.launch("ms_sort/unpack", blocks_for(n, wpb), wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let p = w.gather(&self.packed, idx, mask);
                w.charge(mask.count_ones() as u64);
                w.scatter(&out, idx, lanes_from_fn(|l| p[l] >> shift), mask);
            }
        });
        out
    }
}

/// Stable argsort of keys known to fit `key_bits` low bits (labels): pack
/// `(label << index_bits) | row` into one `u32`, sort only the label
/// field. Returns `None` when `key_bits + index_bits(n) > 32` — the
/// packing doesn't fit and callers must carry payloads through the passes
/// instead ([`sort_pairs_reduced_bit`] does exactly that).
pub fn argsort_by_bits(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    n: usize,
    key_bits: u32,
    wpb: usize,
) -> Option<Argsort> {
    let ib = index_bits(n);
    if key_bits + ib > 32 {
        return None;
    }
    assert!(keys.len() >= n, "key buffer shorter than n");
    let packed = GlobalBuffer::<u32>::zeroed(n).tracked();
    if n > 0 {
        dev.launch("ms_sort/pack", blocks_for(n, wpb), wpb, |blk| {
            for w in blk.warps() {
                let base = w.global_warp_id * WARP_SIZE;
                let mask = tail_mask(base, n);
                if mask == 0 {
                    continue;
                }
                let idx = lanes_from_fn(|j| if base + j < n { base + j } else { base });
                let k = w.gather(keys, idx, mask);
                w.charge(mask.count_ones() as u64);
                w.scatter(
                    &packed,
                    idx,
                    lanes_from_fn(|l| {
                        debug_assert!(
                            key_bits == 32 || k[l] < (1u32 << key_bits),
                            "key {} exceeds the declared {key_bits}-bit label range",
                            k[l]
                        );
                        (k[l] << ib) | idx[l] as u32
                    }),
                    mask,
                );
            }
        });
    }
    let (sorted, _) =
        sort_by_bit_range_with::<u32>(dev, &packed, None, n, ib, key_bits, DEFAULT_DIGIT_BITS, wpb);
    Some(Argsort {
        packed: sorted,
        idx_bits: ib,
        n,
    })
}

/// The reduced-bit key–value sort (paper §3.4): keys are labels known to
/// fit `key_bits` bits. When `(label, index)` packs into a `u32`, the sort
/// moves one word per element per pass and each payload is permuted once;
/// otherwise the payload rides through the passes directly. Stable either
/// way.
pub fn sort_pairs_reduced_bit<V: Scalar>(
    dev: &Device,
    keys: &GlobalBuffer<u32>,
    values: &GlobalBuffer<V>,
    n: usize,
    key_bits: u32,
    wpb: usize,
) -> (GlobalBuffer<u32>, GlobalBuffer<V>) {
    match argsort_by_bits(dev, keys, n, key_bits, wpb) {
        Some(args) => {
            let out_keys = args.sorted_keys(dev, wpb);
            let out_values = args.permute(dev, values, wpb);
            (out_keys, out_values)
        }
        None => sort_pairs_by_bits(dev, keys, values, n, key_bits, wpb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{BlockStats, K40C};

    fn keys_for(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
            .collect()
    }

    fn host_sorted(keys: &[u32]) -> Vec<u32> {
        let mut v = keys.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn sorts_full_range_across_n() {
        let dev = Device::new(K40C);
        for n in [1usize, 2, 31, 32, 33, 2048, 2049, 10_000] {
            let data = keys_for(n, n as u32);
            let keys = GlobalBuffer::from_slice(&data);
            let out = sort_keys(&dev, &keys, n, 8);
            assert_eq!(out.to_vec(), host_sorted(&data), "n={n}");
        }
    }

    #[test]
    fn sorts_reduced_ranges_with_fewer_passes() {
        let dev = Device::new(K40C);
        let n = 20_000;
        for range_bits in [1u32, 8, 16, 26] {
            let mask = ((1u64 << range_bits) - 1) as u32;
            let data: Vec<u32> = keys_for(n, range_bits).iter().map(|k| k & mask).collect();
            let keys = GlobalBuffer::from_slice(&data);
            let launches_before = dev.records().len();
            let out = sort_keys(&dev, &keys, n, 8);
            let launches = dev.records().len() - launches_before;
            assert_eq!(out.to_vec(), host_sorted(&data), "range={range_bits}");
            // 1 digit histogram + 1 sweep per live digit; the digits above
            // the range hold every key in bucket 0 and are skipped.
            let expect_passes = range_bits.div_ceil(DEFAULT_DIGIT_BITS) as usize;
            assert_eq!(launches, 1 + expect_passes, "range={range_bits}");
        }
    }

    /// Per-digit bucket counts of `data` over `[lo_bit, lo_bit + bits)`,
    /// counted on the host.
    fn host_histograms(data: &[u32], lo_bit: u32, bits: u32, digit_bits: u32) -> Vec<Vec<u32>> {
        digits(lo_bit, bits, digit_bits)
            .iter()
            .map(|d| {
                let mut h = vec![0u32; d.num_buckets() as usize];
                for &k in data {
                    h[d.bucket_of(k) as usize] += 1;
                }
                h
            })
            .collect()
    }

    #[test]
    fn digit_histograms_match_the_host_counts() {
        let dev = Device::new(K40C);
        for n in [1usize, 31, HISTOGRAM_TILE - 1, HISTOGRAM_TILE + 1, 10_000] {
            let data = keys_for(n, n as u32);
            let keys = GlobalBuffer::from_slice(&data);
            for digit_bits in 1..=MAX_DIGIT_BITS {
                for (lo_bit, bits) in [(0u32, 32u32), (3, 29), (7, 13)] {
                    let got = digit_histograms(&dev, &keys, n, lo_bit, bits, digit_bits, 8);
                    assert_eq!(
                        got,
                        host_histograms(&data, lo_bit, bits, digit_bits),
                        "n={n} b={digit_bits} field=[{lo_bit}, {lo_bit}+{bits})"
                    );
                }
            }
        }
    }

    #[test]
    fn digit_histogram_is_one_conflict_free_launch() {
        let dev = Device::new(K40C);
        let n = 3 * HISTOGRAM_TILE + 5;
        let keys = GlobalBuffer::from_slice(&keys_for(n, 8));
        let h = digit_histograms(&dev, &keys, n, 0, 32, 5, 8);
        assert_eq!(h.len(), 7);
        assert_eq!(h[6].len(), 4, "the last digit holds the two top bits");
        let recs = dev.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].label, "ms_sort/pre-scan");
        assert_eq!(recs[0].blocks, 4);
        assert_eq!(recs[0].stats.smem_bank_conflicts, 0);
        assert!(digit_histograms(&dev, &keys, 0, 0, 32, 5, 8)
            .iter()
            .all(|h| h.iter().all(|&c| c == 0)));
        assert!(digit_histograms(&dev, &keys, n, 0, 0, 5, 8).is_empty());
        assert_eq!(dev.records().len(), 1, "no launch for n = 0 or bits = 0");
    }

    #[test]
    fn constant_middle_digit_skips_its_sweep_and_stays_stable() {
        let n = 6000;
        let vals: Vec<u32> = (0..n as u32).collect();
        // 15-bit keys: three digits, the middle one [5, 10) live or held
        // at a constant 0b10110.
        let varied: Vec<u32> = keys_for(n, 31).iter().map(|k| k & 0x7FFF).collect();
        let constant: Vec<u32> = varied
            .iter()
            .map(|k| (k & !(0x1F << 5)) | (0b10110 << 5))
            .collect();
        let mut sweeps = Vec::new();
        for data in [&varied, &constant] {
            let dev = Device::new(K40C);
            let keys = GlobalBuffer::from_slice(data);
            let values = GlobalBuffer::from_slice(&vals);
            let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
            let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals.clone()).collect();
            expect.sort_by_key(|&(k, _)| k);
            assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
            assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
            let recs = dev.records();
            assert_eq!(recs[0].label, "ms_sort/pre-scan");
            assert!(recs[1..].iter().all(|r| r.label.ends_with("/fused/sweep")));
            sweeps.push(recs.len() - 1);
        }
        assert_eq!(sweeps, vec![3, 2], "the constant digit costs no sweep");
    }

    #[test]
    fn all_equal_keys_need_no_data_passes() {
        let dev = Device::new(K40C);
        let data = vec![0xABCD_0123u32; 5000];
        let keys = GlobalBuffer::from_slice(&data);
        let out = sort_keys(&dev, &keys, 5000, 8);
        assert_eq!(out.to_vec(), data);
        let labels: Vec<String> = dev.records().iter().map(|r| r.label.clone()).collect();
        assert_eq!(labels, vec!["ms_sort/pre-scan", "ms_sort/copy"]);
    }

    #[test]
    fn digit_width_sweep_agrees_at_every_width() {
        let dev = Device::new(K40C);
        let n = 6000;
        let data = keys_for(n, 17);
        let keys = GlobalBuffer::from_slice(&data);
        let expect = host_sorted(&data);
        for b in 1..=MAX_DIGIT_BITS {
            let (out, _) = sort_by_bit_range_with::<u32>(&dev, &keys, None, n, 0, 32, b, 8);
            assert_eq!(out.to_vec(), expect, "digit width {b}");
        }
    }

    #[test]
    #[should_panic(expected = "digit width 6 outside 1..=5")]
    fn digit_width_above_the_sweep_cap_is_rejected() {
        let dev = Device::new(K40C);
        let keys = GlobalBuffer::from_slice(&keys_for(100, 1));
        sort_by_bit_range_with::<u32>(&dev, &keys, None, 100, 0, 32, 6, 8);
    }

    #[test]
    fn pairs_sort_stably() {
        let dev = Device::new(K40C);
        let n = 4000;
        // Few distinct keys => many ties to exercise stability.
        let data: Vec<u32> = keys_for(n, 5).iter().map(|k| k % 7).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn reduced_bit_pairs_match_carrying_payloads() {
        let dev = Device::new(K40C);
        let n = 3000;
        for key_bits in [1u32, 4, 9] {
            let mask = (1u32 << key_bits) - 1;
            let data: Vec<u32> = keys_for(n, key_bits).iter().map(|k| k & mask).collect();
            let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
            let keys = GlobalBuffer::from_slice(&data);
            let values = GlobalBuffer::from_slice(&vals);
            let (sk, sv) = sort_pairs_reduced_bit(&dev, &keys, &values, n, key_bits, 8);
            let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
            expect.sort_by_key(|&(k, _)| k);
            assert_eq!(
                sk.to_vec(),
                expect.iter().map(|p| p.0).collect::<Vec<_>>(),
                "key_bits={key_bits}"
            );
            assert_eq!(
                sv.to_vec(),
                expect.iter().map(|p| p.1).collect::<Vec<_>>(),
                "key_bits={key_bits}"
            );
        }
    }

    #[test]
    fn reduced_bit_falls_back_when_packing_does_not_fit() {
        let dev = Device::new(K40C);
        let n = 300;
        // index_bits(300) = 9, so 24 label bits + 9 > 32 forces the
        // payload-carrying fallback.
        assert!(argsort_by_bits(&dev, &GlobalBuffer::zeroed(n), n, 24, 8).is_none());
        let mask = (1u32 << 24) - 1;
        let data: Vec<u32> = keys_for(n, 2).iter().map(|k| k & mask).collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs_reduced_bit(&dev, &keys, &values, n, 24, 8);
        let mut expect: Vec<(u32, u32)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn u64_payloads_ride_along() {
        let dev = Device::new(K40C);
        let n = 2500;
        let data = keys_for(n, 9);
        let vals: Vec<u64> = (0..n as u64).map(|i| i << 33 | i).collect();
        let keys = GlobalBuffer::from_slice(&data);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs(&dev, &keys, &values, n, 8);
        let mut expect: Vec<(u32, u64)> = data.iter().copied().zip(vals).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(sk.to_vec(), expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(sv.to_vec(), expect.iter().map(|p| p.1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_zero_bits_copy() {
        let dev = Device::new(K40C);
        let out = sort_keys(&dev, &GlobalBuffer::zeroed(0), 0, 8);
        assert_eq!(out.len(), 0);
        let data = [3u32, 1, 2];
        let keys = GlobalBuffer::from_slice(&data);
        let out = sort_keys_by_bits(&dev, &keys, 3, 0, 8);
        assert_eq!(out.to_vec(), data, "0 sorted bits is a copy");
    }

    #[test]
    fn schedulers_agree_bit_for_bit_and_on_sectors() {
        let n = 50_000;
        let data = keys_for(n, 23);
        let mut outs = Vec::new();
        let mut sectors = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let keys = GlobalBuffer::from_slice(&data);
            let vals = GlobalBuffer::from_slice(&data);
            let (sk, sv) = sort_pairs(&dev, &keys, &vals, n, 8);
            outs.push((sk.to_vec(), sv.to_vec()));
            sectors.push(
                dev.records()
                    .iter()
                    .fold(BlockStats::default(), |mut a, r| {
                        a += r.stats;
                        a
                    })
                    .sectors,
            );
        }
        assert_eq!(outs[0], outs[1], "bit-identical across schedulers");
        assert_eq!(
            sectors[0], sectors[1],
            "sector counts are schedule-independent"
        );
    }

    #[test]
    fn index_bits_is_ceil_log2() {
        assert_eq!(index_bits(0), 0);
        assert_eq!(index_bits(1), 0);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(1024), 10);
        assert_eq!(index_bits(1025), 11);
    }
}
