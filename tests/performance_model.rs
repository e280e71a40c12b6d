//! Model-level invariants: the paper's qualitative performance claims must
//! hold in the cost model (these are the claims the benchmark harness
//! quantifies; here they gate CI).

use msbench::{run_contender, run_scan_split, Contender, Distribution};
use simt::{GTX750TI, K40C};

const N: usize = 1 << 16;

fn time(c: Contender, kv: bool, m: u32) -> f64 {
    run_contender(c, kv, N, m, Distribution::Uniform, K40C, 8, 42, false).total
}

#[test]
fn ms_sort_beats_radix_sort_on_the_modeled_clock() {
    // ms-sort (one digit histogram + one m <= 32 fused sweep per live
    // digit) against the 32-bit three-kernel radix baseline on keys drawn
    // from 8-, 16- and 32-bit ranges, key-only and key-value, priced on
    // both profiles. Modeled times are deterministic: compared with no
    // tolerance.
    use msrng::SmallRng;
    use simt::{Device, GlobalBuffer, LaunchRecord};
    let seconds = |recs: &[LaunchRecord], profile: &simt::DeviceProfile| -> f64 {
        recs.iter().map(|r| profile.estimate(&r.stats)).sum()
    };
    for kv in [false, true] {
        for key_bits in [8u32, 16, 32] {
            let mut rng = SmallRng::seed_from_u64(3000 + key_bits as u64);
            let keys_host: Vec<u32> = (0..N)
                .map(|_| rng.gen_range(0..(1u64 << key_bits)) as u32)
                .collect();
            let values_host: Vec<u32> = (0..N as u32).collect();
            let keys = GlobalBuffer::from_slice(&keys_host);
            let values = GlobalBuffer::from_slice(&values_host);
            let radix = Device::new(K40C);
            let ms = Device::new(K40C);
            if kv {
                baselines::radix_sort(&radix, "radix", &keys, Some(&values), N, 8);
                ms_sort::sort_pairs(&ms, &keys, &values, N, 8);
            } else {
                baselines::radix_sort::<u32>(&radix, "radix", &keys, None, N, 8);
                ms_sort::sort_keys(&ms, &keys, N, 8);
            }
            for profile in [K40C, GTX750TI] {
                let r = seconds(&radix.records(), &profile);
                let m = seconds(&ms.records(), &profile);
                assert!(
                    m < r,
                    "{}: ms-sort {m} s !< radix {r} s at {key_bits}-bit keys, kv={kv}",
                    profile.name
                );
            }
        }
    }
}

#[test]
fn every_multisplit_method_beats_radix_sort_for_small_m() {
    // Paper Table 6: all speedups > 1 for m <= 32.
    for kv in [false, true] {
        let radix = time(Contender::RadixSort, kv, 8);
        for c in [
            Contender::Direct,
            Contender::WarpLevel,
            Contender::BlockLevel,
            Contender::ReducedBit,
        ] {
            for m in [2u32, 8, 32] {
                let t = time(c, kv, m);
                assert!(
                    t < radix,
                    "{} m={m} kv={kv}: {t} !< radix {radix}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn warp_level_wins_at_two_buckets_block_level_wins_at_thirty_two() {
    // Paper §6.2: warp-level MS is fastest for small m; block-level for
    // large m (key-only crossovers at ~6 and ~22). Needs a realistic input
    // size — at tiny n kernel-launch overheads swamp the work and invert
    // the small-m ordering.
    let big = 1 << 20;
    let t = |c: Contender, m: u32| {
        run_contender(c, false, big, m, Distribution::Uniform, K40C, 8, 42, false).total
    };
    let w2 = t(Contender::WarpLevel, 2);
    let d2 = t(Contender::Direct, 2);
    assert!(
        w2 <= d2,
        "warp-level must beat direct at m=2: w={w2} d={d2}"
    );
    let w32 = t(Contender::WarpLevel, 32);
    let d32 = t(Contender::Direct, 32);
    let b32 = t(Contender::BlockLevel, 32);
    assert!(
        b32 <= w32 && b32 <= d32,
        "block-level must win at m=32: w={w32} d={d32} b={b32}"
    );
}

#[test]
fn multisplit_times_grow_with_bucket_count() {
    // Fig. 3: every method's uniform-distribution time is (weakly)
    // increasing in m over the 2..32 range.
    for c in [
        Contender::Direct,
        Contender::WarpLevel,
        Contender::BlockLevel,
    ] {
        let t2 = time(c, false, 2);
        let t32 = time(c, false, 32);
        assert!(
            t32 > t2,
            "{}: m=32 ({t32}) should cost more than m=2 ({t2})",
            c.name()
        );
    }
}

#[test]
fn reduced_bit_sort_scales_logarithmically_not_linearly() {
    // Fig. 4: reduced-bit sort depends on ceil(log m) while the block
    // method's histogram machinery scales with m.
    let r64 = time(Contender::ReducedBit, false, 64);
    let r1024 = run_contender(
        Contender::ReducedBit,
        false,
        N,
        1024,
        Distribution::Uniform,
        K40C,
        8,
        42,
        false,
    )
    .total;
    // log2: 6 bits -> 10 bits: at most ~2x, nowhere near 16x.
    assert!(
        r1024 < 2.5 * r64,
        "reduced-bit 1024 buckets {r1024} vs 64 buckets {r64}"
    );
}

#[test]
fn key_value_costs_more_than_key_only() {
    for c in [
        Contender::Direct,
        Contender::WarpLevel,
        Contender::BlockLevel,
        Contender::ReducedBit,
    ] {
        let k = time(c, false, 8);
        let kv = time(c, true, 8);
        assert!(kv > k, "{}: kv {kv} must exceed key-only {k}", c.name());
    }
}

#[test]
fn skewed_distributions_are_faster_than_uniform() {
    // Fig. 5: uniform is the worst case for the reordering methods.
    for dist in [Distribution::Binomial, Distribution::Skew75] {
        let u = run_contender(
            Contender::BlockLevel,
            false,
            N,
            16,
            Distribution::Uniform,
            K40C,
            8,
            7,
            false,
        );
        let s = run_contender(Contender::BlockLevel, false, N, 16, dist, K40C, 8, 7, false);
        assert!(
            s.total < u.total,
            "{}: skewed {:.4}ms should beat uniform {:.4}ms",
            dist.name(),
            s.total * 1e3,
            u.total * 1e3
        );
    }
}

#[test]
fn scan_split_beats_radix_at_two_buckets() {
    // Table 3's story: for 2 buckets a single split crushes a full sort.
    let split = run_scan_split(false, N, K40C, 8, 1).total;
    let radix = time(Contender::RadixSort, false, 2);
    assert!(
        split * 2.0 < radix,
        "split {split} should be far below radix {radix}"
    );
}

#[test]
fn randomized_insertion_loses_to_radix() {
    // §3.5's conclusion at its best setting x = 2. Evaluated at 4N: at
    // 2^16 keys radix's fixed per-pass launch overhead (7 passes) puts the
    // two within a few percent of each other, which is not the regime the
    // paper's asymptotic claim is about; from 2^17 up the gap is >= 1.5x
    // and widens with n.
    let n = 4 * N;
    let rand = run_contender(
        Contender::Randomized(2.0),
        false,
        n,
        8,
        Distribution::Uniform,
        K40C,
        8,
        42,
        false,
    )
    .total;
    let radix = run_contender(
        Contender::RadixSort,
        false,
        n,
        8,
        Distribution::Uniform,
        K40C,
        8,
        42,
        false,
    )
    .total;
    assert!(
        rand > radix,
        "randomized {rand} should lose to radix {radix}"
    );
}

#[test]
fn maxwell_is_slower_but_prefers_reordering_more() {
    // §6.3: same ordering, and the reordering methods gain more on the
    // 750 Ti relative to Direct MS.
    let m = 16u32;
    let k40_direct = time(Contender::Direct, false, m);
    let k40_block = time(Contender::BlockLevel, false, m);
    let max_direct = run_contender(
        Contender::Direct,
        false,
        N,
        m,
        Distribution::Uniform,
        GTX750TI,
        8,
        42,
        false,
    )
    .total;
    let max_block = run_contender(
        Contender::BlockLevel,
        false,
        N,
        m,
        Distribution::Uniform,
        GTX750TI,
        8,
        42,
        false,
    )
    .total;
    assert!(max_direct > k40_direct, "750 Ti must be slower overall");
    let k40_gain = k40_direct / k40_block;
    let max_gain = max_direct / max_block;
    assert!(
        max_gain > k40_gain,
        "reordering should pay off more on Maxwell: {max_gain:.2} vs {k40_gain:.2}"
    );
}

#[test]
fn speed_of_light_is_respected() {
    // No configuration may exceed the §6.2.2 bound.
    for kv in [false, true] {
        let light = K40C.speed_of_light_gkeys(kv);
        for c in [
            Contender::Direct,
            Contender::WarpLevel,
            Contender::BlockLevel,
        ] {
            for m in [2u32, 32] {
                let o = run_contender(c, kv, N, m, Distribution::Uniform, K40C, 8, 3, false);
                let rate = o.gkeys(N);
                assert!(
                    rate < light,
                    "{} m={m} kv={kv}: {rate} exceeds light {light}",
                    c.name()
                );
            }
        }
    }
}

#[test]
fn stage_breakdown_sums_to_total() {
    let o = run_contender(
        Contender::BlockLevel,
        false,
        N,
        16,
        Distribution::Uniform,
        K40C,
        8,
        5,
        false,
    );
    let sum: f64 = o.stages.iter().map(|(_, t)| t).sum();
    assert!(
        (sum - o.total).abs() < 1e-12,
        "stages {sum} != total {}",
        o.total
    );
}
