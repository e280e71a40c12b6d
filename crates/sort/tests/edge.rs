//! Property and edge-case tests for ms-sort, exercised through the
//! public API only: degenerate sizes, pathological orders, the zero-bit
//! range, the launch shape of every digit width, dead-digit skipping,
//! caller-contract errors, and stability.

use ms_sort::{
    argsort_by_bits, digit_histograms, sort_by_bit_range_with, sort_keys, sort_keys_by_bits,
    sort_keys_host, sort_pairs, sort_pairs_by_bits, sort_pairs_host, sort_pairs_reduced_bit,
    MAX_DIGIT_BITS,
};
use simt::{Device, GlobalBuffer, K40C};

const WPB: usize = 8;

fn dev() -> Device {
    Device::new(K40C)
}

fn scrambled(n: usize, seed: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).wrapping_add(seed))
        .collect()
}

#[test]
fn empty_input_sorts_to_empty() {
    let d = dev();
    assert_eq!(sort_keys_host(&d, &[]), Vec::<u32>::new());
    let (k, v) = sort_pairs_host(&d, &[], &[]);
    assert!(k.is_empty() && v.is_empty());
}

#[test]
fn single_element_is_fixed_point() {
    let d = dev();
    assert_eq!(sort_keys_host(&d, &[0xDEAD_BEEF]), vec![0xDEAD_BEEF]);
    let (k, v) = sort_pairs_host(&d, &[7], &[42]);
    assert_eq!((k, v), (vec![7], vec![42]));
}

#[test]
fn already_sorted_input_stays_put() {
    let d = dev();
    let mut keys = scrambled(3000, 1);
    keys.sort_unstable();
    assert_eq!(sort_keys_host(&d, &keys), keys);
}

#[test]
fn reverse_sorted_input_gets_reversed() {
    let d = dev();
    let mut expect = scrambled(3000, 2);
    expect.sort_unstable();
    let mut keys = expect.clone();
    keys.reverse();
    assert_eq!(sort_keys_host(&d, &keys), expect);
}

#[test]
fn all_equal_keys_keep_payload_order() {
    // Every key identical: a stable sort must return the payloads in
    // their original order, and since every digit holds all keys in one
    // bucket the sort runs no sweep (the histogram plus the final copy).
    let d = dev();
    let n = 2000;
    let keys = vec![0xABCD_0123u32; n];
    let vals: Vec<u32> = (0..n as u32).collect();
    let (sk, sv) = sort_pairs_host(&d, &keys, &vals);
    assert_eq!(sk, keys);
    assert_eq!(sv, vals);
}

#[test]
fn zero_bit_range_is_the_identity() {
    let d = dev();
    let n = 777;
    let keys = GlobalBuffer::from_slice(&scrambled(n, 3));
    let vals = GlobalBuffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
    let (sk, sv) = sort_by_bit_range_with(&d, &keys, Some(&vals), n, 0, 0, 4, WPB);
    assert_eq!(sk.to_vec(), keys.to_vec(), "bits=0 must copy keys");
    assert_eq!(
        sv.unwrap().to_vec(),
        vals.to_vec(),
        "bits=0 must copy values"
    );
}

#[test]
fn every_digit_width_is_one_histogram_then_fused_sweeps() {
    // 24-bit keys at every width b <= 5: one `ms_sort/pre-scan` launch,
    // then exactly ceil(24 / b) m <= 32 fused sweeps — no per-pass
    // pre-scan and no large-m kernel. Every width sorts identically.
    let n = 4000;
    let input: Vec<u32> = scrambled(n, 4).iter().map(|k| k & 0xFF_FFFF).collect();
    let mut expect = input.clone();
    expect.sort_unstable();
    for digit_bits in 1..=MAX_DIGIT_BITS {
        let d = dev();
        let keys = GlobalBuffer::from_slice(&input);
        let (sk, _) = sort_by_bit_range_with::<u32>(&d, &keys, None, n, 0, 24, digit_bits, WPB);
        assert_eq!(sk.to_vec(), expect, "b={digit_bits}");
        let labels: Vec<String> = d.records().iter().map(|r| r.label.clone()).collect();
        let sweeps: Vec<String> = (0..24u32.div_ceil(digit_bits))
            .map(|p| format!("ms_sort/pass{p}/fused/sweep"))
            .collect();
        assert_eq!(labels[0], "ms_sort/pre-scan", "b={digit_bits}");
        assert_eq!(labels[1..], sweeps[..], "b={digit_bits}");
    }
}

#[test]
fn sort_pairs_is_stable_under_heavy_duplication() {
    // 16 distinct keys across 5000 elements: each key's payload run must
    // come out in ascending original order.
    let d = dev();
    let n = 5000;
    let keys: Vec<u32> = (0..n as u32).map(|i| (i.wrapping_mul(7)) % 16).collect();
    let vals: Vec<u32> = (0..n as u32).collect();
    let (sk, sv) = sort_pairs_host(&d, &keys, &vals);
    let mut expect: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
    expect.sort_by_key(|&(k, _)| k); // std stable sort
    assert_eq!(sk, expect.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    assert_eq!(sv, expect.iter().map(|&(_, v)| v).collect::<Vec<_>>());
}

#[test]
fn dead_high_digits_are_skipped() {
    // Keys confined to 11 bits: the full 32-bit sort skips every digit
    // above bit 15 (all keys in bucket 0) and so launches exactly what a
    // sort told the 11-bit range does — one histogram and three sweeps.
    let n = 3000;
    let input: Vec<u32> = scrambled(n, 5).iter().map(|k| k & 0x7FF).collect();

    let d_full = dev();
    let keys = GlobalBuffer::from_slice(&input);
    let hist = digit_histograms(&d_full, &keys, n, 0, 32, 5, WPB);
    assert!(hist[..3].iter().all(|h| !h.contains(&(n as u32))));
    assert!(hist[3..].iter().all(|h| h[0] == n as u32));
    let full = sort_keys(&d_full, &keys, n, WPB).to_vec();

    let d_narrow = dev();
    let narrow = sort_keys_by_bits(&d_narrow, &keys, n, 11, WPB).to_vec();
    assert_eq!(full, narrow);
    let mut expect = input.clone();
    expect.sort_unstable();
    assert_eq!(full, expect);
    // The explicit histogram above, then the sort's own histogram and
    // three sweeps.
    assert_eq!(d_full.records().len(), 1 + 1 + 3);
    assert_eq!(d_narrow.records().len(), 1 + 3);
}

#[test]
#[should_panic(expected = "payload buffer shorter than n")]
fn short_payload_fails_at_the_api_boundary() {
    let d = dev();
    let n = 5000;
    let keys = GlobalBuffer::from_slice(&scrambled(n, 6));
    let values = GlobalBuffer::<u32>::zeroed(100);
    let _ = sort_pairs(&d, &keys, &values, n, WPB);
}

#[test]
fn reduced_bit_pairs_handle_the_packing_boundary() {
    // index_bits(4096) = 12, so 20 key bits fit exactly in the packed
    // u32 (argsort route) and 21 do not (fallback route). Both must sort
    // correctly and stably.
    let d = dev();
    let n = 4096;
    let vals: Vec<u32> = (0..n as u32).collect();
    for key_bits in [20u32, 21] {
        let mask = (1u32 << key_bits) - 1;
        let keys_host: Vec<u32> = scrambled(n, key_bits).iter().map(|k| k & mask).collect();
        let keys = GlobalBuffer::from_slice(&keys_host);
        let values = GlobalBuffer::from_slice(&vals);
        let (sk, sv) = sort_pairs_reduced_bit(&d, &keys, &values, n, key_bits, WPB);
        let mut expect: Vec<(u32, u32)> = keys_host.into_iter().zip(vals.iter().copied()).collect();
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(
            sk.to_vec(),
            expect.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            "key_bits={key_bits}"
        );
        assert_eq!(
            sv.to_vec(),
            expect.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            "key_bits={key_bits} (stability)"
        );
    }
    // And the boundary itself: argsort accepts 20 bits at n=4096, not 21.
    let keys = GlobalBuffer::from_slice(&vec![0u32; n]);
    assert!(argsort_by_bits(&d, &keys, n, 20, WPB).is_some());
    assert!(argsort_by_bits(&d, &keys, n, 21, WPB).is_none());
}

#[test]
fn sort_pairs_device_entry_points_agree() {
    // The device-buffer API and the by-bits variant agree when bits
    // covers the whole effective range.
    let d = dev();
    let n = 2500;
    let keys_host: Vec<u32> = scrambled(n, 9).iter().map(|k| k & 0xFFFF).collect();
    let vals: Vec<u32> = (0..n as u32).map(|i| !i).collect();
    let keys = GlobalBuffer::from_slice(&keys_host);
    let values = GlobalBuffer::from_slice(&vals);
    let (a_k, a_v) = sort_pairs(&d, &keys, &values, n, WPB);
    let (b_k, b_v) = sort_pairs_by_bits(&d, &keys, &values, n, 16, WPB);
    assert_eq!(a_k.to_vec(), b_k.to_vec());
    assert_eq!(a_v.to_vec(), b_v.to_vec());
}
