//! Decoupled look-back tile states, reusable across aggregate shapes and
//! across independent problems packed into one launch.
//!
//! The chained scan resolves **scalar** tile prefixes by publishing one
//! packed `(value << 2 | flag)` word per tile and walking predecessor
//! tiles' words. The fused multisplit needs the same protocol over
//! **m-row vectors** — one flag word per bucket per tile — and the
//! segmented multisplit needs many such protocol instances side by side.
//! One type covers all three: [`SegmentedTileStates`] holds one *window*
//! of `tiles × rows` state words per problem.
//! [`SegmentedTileStates::new(&[(tiles, 1)])`](SegmentedTileStates::new)
//! is the scalar scan's state, `new(&[(tiles, m)])` carries a bucket
//! histogram per tile, and one `(tiles, rows)` part per segment packs
//! the windows of a segmented launch.
//!
//! Protocol (Merrill & Garland, *Single-pass Parallel Prefix Scan with
//! Decoupled Look-back*): a tile publishes `aggregate | AGGREGATE`, walks
//! back over predecessors summing aggregates until it meets an
//! `INCLUSIVE` word (per row, independently), then publishes
//! `prefix + aggregate | INCLUSIVE`. Tile 0 publishes `INCLUSIVE`
//! directly.
//!
//! ### Deadlock freedom
//!
//! Tickets must be claimed with a device-scope `fetch_add` at block start,
//! so ticket order is *task-start* order. Windows' tiles occupy
//! consecutive tickets (window `s`'s local tile `t` is ticket
//! `tile_base(s) + t`), so local tile `t` waits only on local `t - 1` — a
//! strictly earlier ticket, i.e. an already-started block — and never on
//! another window. The executor in `simt::Device` runs blocks on OS
//! threads that claim block ids from a shared counter, so a started block
//! always makes progress (the spin wait yields); on `Device::sequential`
//! predecessors have finished before tile `t` even starts and every
//! look-back resolves in one hop.
//!
//! ### Schedule-independent accounting
//!
//! Spin-polls go through the uncounted `device_peek` path (on hardware
//! they hit the hottest, L2-resident lines on the device, and counting
//! retries would make stats depend on thread interleaving). Each tile is
//! charged a fixed, deterministic cost instead: per warp-sized row group,
//! its two record publishes plus one counted record-sized look-back read
//! — so parallel and sequential devices report identical
//! [`simt::BlockStats`], and a segmented launch bills exactly the sum of
//! the one-window launches it replaces. Records wider than a warp
//! (`rows > 32`, the fused large-m multisplit) simply span multiple
//! groups; `rows <= 32` is one group and reproduces the chained scan's
//! billing bit-for-bit. A window's word and ticket bases shift where its
//! words live, not what a tile is charged, so every window bills like a
//! single-problem kernel of its own shape.

use std::sync::atomic::{AtomicUsize, Ordering};

use simt::{lanes_from_fn, EventKind, GlobalBuffer, Lanes, ObsCells, WarpCtx, WARP_SIZE};

use crate::block_scan::low_lanes_mask;

/// Flag values of a tile-state word (low 2 bits).
pub const FLAG_EMPTY: u64 = 0;
pub const FLAG_AGGREGATE: u64 = 1;
pub const FLAG_INCLUSIVE: u64 = 2;

/// Pack a value and a flag into one state word, so a single device-scope
/// load observes both atomically together.
#[inline]
pub fn pack(value: u32, flag: u64) -> u64 {
    (value as u64) << 2 | flag
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(word: u64) -> (u32, u64) {
    ((word >> 2) as u32, word & 3)
}

/// Spin until the state word at `idx` is published (flag != EMPTY).
///
/// Polls through the uncounted `device_peek` path; the deterministic
/// charge happens once per tile in [`SegmentedTileStates::resolve_rows`].
/// Poll iterations go to the uncounted `obs` side-channel — they depend on
/// thread interleaving, so they are exported for inspection but never
/// priced or compared for equality.
/// Returns the published word and how many polls found it EMPTY (the
/// spin count, already fed to `obs.record_spins`; callers aggregate it
/// into the flight recorder's `Resolve` event).
fn spin_wait_published(
    state: &GlobalBuffer<u64>,
    idx: usize,
    waiting_on: usize,
    obs: &ObsCells,
) -> (u64, u64) {
    let mut spins = 0u64;
    let mut last_word = u64::MAX;
    loop {
        // Adversarial yield point, marking this block as *waiting on
        // tile `waiting_on`'s published state* (the straggler policy's
        // release condition, and the stall watchdog's target); a no-op on
        // the parallel/sequential executors. `last_word` lets a watchdog
        // diagnosis report exactly what the waiter last saw.
        simt::sched::spin_yield_waiting(waiting_on as u32, last_word);
        let word = state.device_peek(idx);
        if word & 3 != FLAG_EMPTY {
            obs.record_spins(spins);
            return (word, spins);
        }
        last_word = word;
        spins += 1;
        if spins.is_multiple_of(64) {
            std::thread::yield_now();
        }
        assert!(
            spins < 100_000_000,
            "look-back stalled: state word {idx} never published (executor bug?)"
        );
        std::hint::spin_loop();
    }
}

/// One window of a [`SegmentedTileStates`] buffer.
#[derive(Debug, Clone, Copy)]
struct SegWindow {
    /// First state word of this window's partition.
    word_base: usize,
    /// Global ticket of this window's tile 0 (windows' tiles are laid
    /// out consecutively in the launch's flattened ticket space).
    tile_base: usize,
    tiles: usize,
    rows: usize,
}

impl SegWindow {
    /// Lane-indexed word addresses and active mask of group `g` of local
    /// tile `t`'s record (lane `r` = row `g*32 + r`). Group 0 of a
    /// `rows <= 32` record is exactly the scalar/vector record the chained
    /// scan has always used.
    #[inline]
    fn group_record(&self, t: usize, g: usize) -> (Lanes<usize>, u32) {
        let cnt = (self.rows - g * WARP_SIZE).min(WARP_SIZE);
        let base = self.word_base + t * self.rows + g * WARP_SIZE;
        (
            lanes_from_fn(|lane| base + lane.min(cnt - 1)),
            low_lanes_mask(cnt),
        )
    }
}

/// Per-tile `(aggregate | inclusive-prefix)` flag records for chained
/// single-pass kernels: one window of `tiles × rows` packed words per
/// independent problem (`rows = 1` for the scalar scan, `rows = m` for a
/// multisplit's bucket histograms), all in one state buffer.
///
/// [`resolve_rows`](Self::resolve_rows) runs the look-back protocol
/// *inside one window*, so a tile only ever waits on earlier tiles **of
/// its own window** — no cross-window dependency exists, and one stalled
/// segment cannot wedge another's walks. The global ticket
/// (`tile_base(window) + t`) is what the walk reports to the adversarial
/// scheduler's stall watchdog and the flight recorder, so segmented
/// launches keep full causal observability.
pub struct SegmentedTileStates {
    state: GlobalBuffer<u64>,
    segs: Vec<SegWindow>,
    /// Test-only fault: the tile holding this global ticket returns from
    /// `resolve_rows` without publishing anything (`usize::MAX` = no
    /// fault). Lets tests prove the stall watchdog converts a real
    /// livelock into a diagnosis.
    stall_tile: AtomicUsize,
}

impl SegmentedTileStates {
    /// Allocate EMPTY state windows for problems of `(tiles, rows)` each;
    /// a single part is the one-window state of a single-problem kernel
    /// (word and ticket bases 0).
    /// Zero-tile windows (empty inputs) are allowed and own no words;
    /// `rows >= 1` is required for every window regardless. `rows` may
    /// exceed the warp width: records are then processed in warp-sized
    /// row groups (one lane per row within a group).
    pub fn new(parts: &[(usize, usize)]) -> Self {
        let mut segs = Vec::with_capacity(parts.len());
        let mut word_base = 0usize;
        let mut tile_base = 0usize;
        for &(tiles, rows) in parts {
            assert!(rows >= 1, "tile-state records need at least one row");
            segs.push(SegWindow {
                word_base,
                tile_base,
                tiles,
                rows,
            });
            word_base += tiles * rows;
            tile_base += tiles;
        }
        Self {
            state: GlobalBuffer::zeroed(word_base),
            segs,
            stall_tile: AtomicUsize::new(usize::MAX),
        }
    }

    /// **Test-only fault injection**: make the tile holding global ticket
    /// `t` return from `resolve_rows` without publishing AGGREGATE or
    /// INCLUSIVE — every successor's look-back walk then spins on EMPTY
    /// words forever. Under an adversarial schedule the stall watchdog
    /// must convert that livelock into a structured abort; that
    /// conversion is exactly what the injected-stall tests assert.
    pub fn inject_publish_stall(&self, t: usize) {
        self.stall_tile.store(t, Ordering::Relaxed);
    }

    pub fn rows(&self, seg: usize) -> usize {
        self.segs[seg].rows
    }

    /// Total tiles across all windows — the launch's block count.
    pub fn total_tiles(&self) -> usize {
        self.segs.last().map_or(0, |s| s.tile_base + s.tiles)
    }

    /// Global ticket of window `seg`'s local tile `t`.
    pub fn ticket(&self, seg: usize, t: usize) -> usize {
        self.segs[seg].tile_base + t
    }

    /// Lane-shaped [`resolve_rows`](Self::resolve_rows) for `rows <= 32`
    /// (the chained scan and the fused `m <= 32` sweep); lanes beyond the
    /// window's rows return 0. The one-group path issues exactly the
    /// operation sequence the scalar chained scan always has.
    pub fn resolve(&self, w: &WarpCtx, seg: usize, t: usize, aggregate: Lanes<u32>) -> Lanes<u32> {
        let rows = self.segs[seg].rows;
        assert!(
            rows <= WARP_SIZE,
            "lane-shaped resolve covers rows <= 32; use resolve_rows"
        );
        let prefix = self.resolve_rows(w, seg, t, &aggregate[..rows]);
        lanes_from_fn(|l| prefix.get(l).copied().unwrap_or(0))
    }

    /// Publish local tile `t`'s per-row `aggregate` in window `seg` and
    /// return its exclusive per-row prefix (per row: the sum of that row's
    /// aggregates over the window's tiles `0..t`) by decoupled look-back;
    /// publishes the inclusive record before returning.
    ///
    /// The record is handled in warp-sized row groups. All groups'
    /// AGGREGATE words publish before any group walks, so successors
    /// spinning on a later group never wait for this tile's earlier-group
    /// walk to finish. Each group is then walked and charged
    /// independently — one `record_lookback` and one counted record-sized
    /// read per group per tile — so summed stats stay
    /// schedule-independent.
    ///
    /// Warp-synchronous: call from a single warp (conventionally warp 0);
    /// the tile must hold global ticket [`ticket(seg, t)`](Self::ticket),
    /// claimed via a device-scope `fetch_add` (see the module docs on
    /// deadlock freedom).
    pub fn resolve_rows(&self, w: &WarpCtx, seg: usize, t: usize, aggregate: &[u32]) -> Vec<u32> {
        let sw = self.segs[seg];
        let rows = sw.rows;
        let gt = sw.tile_base + t; // global ticket, for obs identity
        if self.stall_tile.load(Ordering::Relaxed) == gt {
            // Injected fault (see `inject_publish_stall`): hang this
            // tile's publishes forever. Successors now spin on EMPTY.
            return vec![0; rows];
        }
        assert!(t < sw.tiles, "tile {t} out of window {seg}'s range");
        assert_eq!(aggregate.len(), rows, "one aggregate per row");
        let groups = rows.div_ceil(WARP_SIZE);
        let publish = |g: usize, flag: u64, vals: &dyn Fn(usize) -> u32| {
            let (rec, mask) = sw.group_record(t, g);
            let base = g * WARP_SIZE;
            let cnt = (rows - base).min(WARP_SIZE);
            w.device_scatter(
                &self.state,
                rec,
                lanes_from_fn(|l| pack(vals(base + l.min(cnt - 1)), flag)),
                mask,
            );
            let kind = if flag == FLAG_INCLUSIVE {
                EventKind::PublishInclusive
            } else {
                EventKind::PublishAggregate
            };
            w.obs().flight_emit(kind, gt as u32, g as u32, 0);
        };
        if t == 0 {
            for g in 0..groups {
                publish(g, FLAG_INCLUSIVE, &|r| aggregate[r]);
                // Tile 0 resolves at depth 0 (no walk). Counting it keeps
                // `lookback_resolves == tiles * row groups`, a
                // schedule-independent total.
                w.obs().record_lookback(0);
                w.obs().flight_emit(EventKind::Resolve, gt as u32, 0, 0);
            }
            return vec![0; rows];
        }
        for g in 0..groups {
            publish(g, FLAG_AGGREGATE, &|r| aggregate[r]);
        }
        let mut prefix = vec![0u32; rows];
        for g in 0..groups {
            let base = g * WARP_SIZE;
            let cnt = (rows - base).min(WARP_SIZE);
            // Walk back until every row in the group has met an INCLUSIVE
            // word. Rows resolve independently: a predecessor may have
            // published its aggregate but not yet its inclusive record, and
            // different rows may stop at different depths. Pure register
            // work + uncounted polls.
            let mut done = [false; WARP_SIZE];
            let mut remaining = cnt;
            let mut p = t;
            let mut group_spins = 0u64;
            while remaining > 0 {
                debug_assert!(p > 0, "tile 0 always publishes INCLUSIVE");
                p -= 1;
                for r in 0..cnt {
                    if done[r] {
                        continue;
                    }
                    let (word, spins) = spin_wait_published(
                        &self.state,
                        sw.word_base + p * rows + base + r,
                        sw.tile_base + p,
                        w.obs(),
                    );
                    group_spins += spins;
                    let (value, flag) = unpack(word);
                    prefix[base + r] = prefix[base + r].wrapping_add(value);
                    if flag == FLAG_INCLUSIVE {
                        done[r] = true;
                        remaining -= 1;
                    }
                }
            }
            // Introspection: this group's walk reached back `t - p` tiles
            // (the deepest row wins). One resolve per tile per group — that
            // count is schedule-independent; the depth itself is not
            // (sequential execution always stops after one hop, parallel
            // depends on timing).
            w.obs().record_lookback((t - p) as u64);
            // Flight event: the causal edge `t -> p` this walk bound, plus
            // how hard it stalled getting there. One Resolve per group, so
            // per-kind event counts stay schedule-independent even though
            // the depth/spin payloads are not.
            w.obs().flight_emit(
                EventKind::Resolve,
                gt as u32,
                (t - p) as u32,
                group_spins.min(u32::MAX as u64) as u32,
            );
            // Charge the look-back deterministically: one counted
            // record-sized read per tile per group. How many extra hops the
            // walk took depends on scheduling — charging them would break
            // schedule independence.
            let (prev, mask) = sw.group_record(t - 1, g);
            w.device_gather(&self.state, prev, mask);
            w.obs()
                .flight_emit(EventKind::LookbackRead, gt as u32, g as u32, 0);
            publish(g, FLAG_INCLUSIVE, &|r| prefix[r].wrapping_add(aggregate[r]));
        }
        prefix
    }

    /// Host-side read of one row's grand total within window `seg` (its
    /// last tile's inclusive value). Only valid after the kernel
    /// completed; windows with zero tiles have total 0 by construction.
    pub fn total(&self, seg: usize, row: usize) -> u32 {
        let sw = self.segs[seg];
        assert!(row < sw.rows);
        if sw.tiles == 0 {
            return 0;
        }
        let (value, flag) = unpack(
            self.state
                .get(sw.word_base + (sw.tiles - 1) * sw.rows + row),
        );
        debug_assert_eq!(
            flag, FLAG_INCLUSIVE,
            "last tile must have resolved its inclusive prefix"
        );
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::{Device, K40C};

    #[test]
    fn pack_unpack_roundtrip() {
        assert_eq!(unpack(pack(0, FLAG_EMPTY)), (0, FLAG_EMPTY));
        assert_eq!(unpack(pack(12345, FLAG_AGGREGATE)), (12345, FLAG_AGGREGATE));
        assert_eq!(
            unpack(pack(u32::MAX, FLAG_INCLUSIVE)),
            (u32::MAX, FLAG_INCLUSIVE)
        );
    }

    /// Drive the protocol with a real ticketed kernel over vector rows and
    /// check prefixes against a host reference, on both executors.
    #[test]
    fn vector_lookback_matches_reference() {
        let (tiles, rows) = (67usize, 5usize);
        // aggregate of tile t, row r
        let agg = |t: usize, r: usize| ((t * 31 + r * 7) % 13) as u32;
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            let out = simt::GlobalBuffer::<u32>::zeroed(tiles * rows);
            dev.launch("lookback-test", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a = lanes_from_fn(|l| agg(t, l.min(rows - 1)));
                let prefix = states.resolve(&w, 0, t, a);
                w.scatter_merged(
                    &out,
                    lanes_from_fn(|l| t * rows + l.min(rows - 1)),
                    prefix,
                    low_lanes_mask(rows),
                );
            });
            let got = out.to_vec();
            for t in 0..tiles {
                for r in 0..rows {
                    let expect: u32 = (0..t).map(|p| agg(p, r)).sum();
                    assert_eq!(got[t * rows + r], expect, "tile {t} row {r}");
                }
                // inclusive records are fully published
            }
            for r in 0..rows {
                let expect: u32 = (0..tiles).map(|p| agg(p, r)).sum();
                assert_eq!(states.total(0, r), expect, "grand total row {r}");
            }
        }
    }

    #[test]
    fn stats_are_schedule_independent() {
        let (tiles, rows) = (200usize, 32usize);
        let mut all = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-stats", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                states.resolve(&w, 0, t, lanes_from_fn(|l| l as u32));
            });
            all.push(dev.records()[0].stats);
        }
        assert_eq!(
            all[0], all[1],
            "counted look-back cost must not depend on scheduling"
        );
    }

    /// The uncounted obs channel: one resolve per tile (deterministic,
    /// schedule-independent) with the depth histogram summing to exactly
    /// that; depths themselves collapse to one hop under sequential
    /// execution.
    #[test]
    fn lookback_obs_totals_are_schedule_independent() {
        let (tiles, rows) = (200usize, 8usize);
        let mut resolves = Vec::new();
        for (i, dev) in [Device::new(K40C), Device::sequential(K40C)]
            .into_iter()
            .enumerate()
        {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-obs", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                states.resolve(&w, 0, t, lanes_from_fn(|l| l as u32));
            });
            let obs = dev.records()[0].obs;
            assert_eq!(obs.lookback_resolves, tiles as u64, "one resolve per tile");
            assert_eq!(
                obs.depth_hist_total(),
                obs.lookback_resolves,
                "histogram buckets must sum to the resolve count"
            );
            if i == 1 {
                // Sequential: every predecessor has finished, so every
                // walk (tiles 1..) stops after exactly one hop.
                assert_eq!(obs.lookback_depth_total, (tiles - 1) as u64);
                assert_eq!(obs.lookback_depth_hist[1], (tiles - 1) as u64);
                assert_eq!(obs.spin_polls, 0, "nothing to wait for sequentially");
            }
            resolves.push(obs.lookback_resolves);
        }
        assert_eq!(resolves[0], resolves[1]);
    }

    /// `rows > 32` records span multiple warp-sized groups; prefixes must
    /// still match the host reference on both executors.
    #[test]
    fn multi_group_lookback_matches_reference() {
        let (tiles, rows) = (41usize, 70usize);
        let agg = |t: usize, r: usize| ((t * 13 + r * 5) % 17) as u32;
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            let out = simt::GlobalBuffer::<u32>::zeroed(tiles * rows);
            dev.launch("lookback-multirow", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| agg(t, r)).collect();
                let prefix = states.resolve_rows(&w, 0, t, &a);
                for (r, &p) in prefix.iter().enumerate() {
                    out.set(t * rows + r, p);
                }
            });
            let got = out.to_vec();
            for t in 0..tiles {
                for r in 0..rows {
                    let expect: u32 = (0..t).map(|p| agg(p, r)).sum();
                    assert_eq!(got[t * rows + r], expect, "tile {t} row {r}");
                }
            }
            for r in 0..rows {
                let expect: u32 = (0..tiles).map(|p| agg(p, r)).sum();
                assert_eq!(states.total(0, r), expect, "grand total row {r}");
            }
        }
    }

    /// The `rows = 1` case (the chained scan's state) must bill exactly
    /// the same through the lane-shaped `resolve` and the generalized
    /// `resolve_rows` — the scalar scan's accounting is the contract.
    #[test]
    fn rows_one_billing_matches_chained_scan() {
        let tiles = 100usize;
        let mut runs = Vec::new();
        for use_rows in [false, true] {
            let dev = Device::sequential(K40C);
            let states = SegmentedTileStates::new(&[(tiles, 1)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-rows1", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                if use_rows {
                    let p = states.resolve_rows(&w, 0, t, &[t as u32]);
                    assert_eq!(p.len(), 1);
                } else {
                    let p = states.resolve(&w, 0, t, simt::splat(t as u32));
                    assert_eq!(p[1], 0, "lanes beyond the rows return 0");
                }
            });
            let rec = &dev.records()[0];
            runs.push((rec.stats, rec.obs, states.total(0, 0)));
        }
        assert_eq!(
            runs[0], runs[1],
            "resolve and resolve_rows must bill rows = 1 identically"
        );
    }

    /// Multi-group records resolve once per tile per group, and the
    /// histogram invariant stays row-aware: buckets sum to
    /// `tiles * ⌈rows / 32⌉` on every schedule.
    #[test]
    fn multi_group_obs_totals_are_schedule_independent() {
        let (tiles, rows) = (60usize, 70usize);
        let groups = rows.div_ceil(WARP_SIZE);
        assert_eq!(groups, 3);
        let mut resolves = Vec::new();
        for (i, dev) in [Device::new(K40C), Device::sequential(K40C)]
            .into_iter()
            .enumerate()
        {
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-multirow-obs", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| r as u32).collect();
                states.resolve_rows(&w, 0, t, &a);
            });
            let obs = dev.records()[0].obs;
            assert_eq!(
                obs.lookback_resolves,
                (tiles * groups) as u64,
                "one resolve per tile per row group"
            );
            assert_eq!(obs.depth_hist_total(), obs.lookback_resolves);
            if i == 1 {
                // Sequential: tile 0 contributes `groups` depth-0 resolves,
                // every later tile `groups` one-hop walks.
                assert_eq!(obs.lookback_depth_hist[0], groups as u64);
                assert_eq!(obs.lookback_depth_hist[1], ((tiles - 1) * groups) as u64);
                assert_eq!(obs.spin_polls, 0, "nothing to wait for sequentially");
            }
            resolves.push(obs.lookback_resolves);
        }
        assert_eq!(resolves[0], resolves[1]);
    }

    /// Heterogeneous segments (different tile counts *and* row counts,
    /// including an empty segment and a multi-group record) resolve
    /// against per-segment host references inside one launch, on the
    /// parallel, sequential, and an adversarial executor.
    #[test]
    fn segmented_windows_match_per_segment_reference() {
        let parts: [(usize, usize); 5] = [(5, 3), (0, 4), (1, 1), (13, 70), (7, 32)];
        let agg = |s: usize, t: usize, r: usize| ((s * 37 + t * 31 + r * 7) % 13 + 1) as u32;
        // Global ticket -> (segment, local tile).
        let mut map = Vec::new();
        for (s, &(tiles, _)) in parts.iter().enumerate() {
            for t in 0..tiles {
                map.push((s, t));
            }
        }
        for dev in [
            Device::new(K40C),
            Device::sequential(K40C),
            Device::adversarial(K40C, simt::AdvSchedule::from_seed(7)),
        ] {
            let states = SegmentedTileStates::new(&parts);
            assert_eq!(states.total_tiles(), map.len());
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-segmented", states.total_tiles(), 1, |blk| {
                let w = blk.warp(0);
                let g = w.device_fetch_add(&ticket, 0, 1) as usize;
                let (s, t) = map[g];
                let rows = states.rows(s);
                let a: Vec<u32> = (0..rows).map(|r| agg(s, t, r)).collect();
                let prefix = states.resolve_rows(&w, s, t, &a);
                for (r, &p) in prefix.iter().enumerate() {
                    let expect: u32 = (0..t).map(|q| agg(s, q, r)).sum();
                    assert_eq!(p, expect, "seg {s} tile {t} row {r}");
                }
            });
            for (s, &(tiles, rows)) in parts.iter().enumerate() {
                for r in 0..rows {
                    let expect: u32 = (0..tiles).map(|q| agg(s, q, r)).sum();
                    assert_eq!(states.total(s, r), expect, "seg {s} grand total row {r}");
                }
            }
        }
    }

    /// The partitioning contract the serve front-end's sector acceptance
    /// leans on: one segmented launch bills exactly the sum of the
    /// one-window launches it replaces, and the billing
    /// is schedule-independent.
    #[test]
    fn segmented_billing_equals_sum_of_per_segment_launches() {
        let parts: [(usize, usize); 4] = [(9, 5), (4, 40), (1, 1), (20, 32)];
        let agg = |s: usize, t: usize, r: usize| ((s * 11 + t * 3 + r) % 17) as u32;
        let mut map = Vec::new();
        for (s, &(tiles, _)) in parts.iter().enumerate() {
            for t in 0..tiles {
                map.push((s, t));
            }
        }
        let fold = |dev: &Device| {
            dev.records()
                .iter()
                .fold(simt::BlockStats::default(), |mut a, r| {
                    a += r.stats;
                    a
                })
        };
        let mut seg_stats = Vec::new();
        for dev in [Device::new(K40C), Device::sequential(K40C)] {
            let states = SegmentedTileStates::new(&parts);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-seg-billing", states.total_tiles(), 1, |blk| {
                let w = blk.warp(0);
                let g = w.device_fetch_add(&ticket, 0, 1) as usize;
                let (s, t) = map[g];
                let a: Vec<u32> = (0..states.rows(s)).map(|r| agg(s, t, r)).collect();
                states.resolve_rows(&w, s, t, &a);
            });
            seg_stats.push(fold(&dev));
        }
        assert_eq!(
            seg_stats[0], seg_stats[1],
            "segmented look-back billing must be schedule-independent"
        );
        // Per-segment reference: one one-window launch per segment.
        let dev = Device::sequential(K40C);
        for (s, &(tiles, rows)) in parts.iter().enumerate() {
            if tiles == 0 {
                continue;
            }
            let states = SegmentedTileStates::new(&[(tiles, rows)]);
            let ticket = simt::GlobalBuffer::<u32>::zeroed(1);
            dev.launch("lookback-one-segment", tiles, 1, |blk| {
                let w = blk.warp(0);
                let t = w.device_fetch_add(&ticket, 0, 1) as usize;
                let a: Vec<u32> = (0..rows).map(|r| agg(s, t, r)).collect();
                states.resolve_rows(&w, 0, t, &a);
            });
        }
        assert_eq!(
            seg_stats[1],
            fold(&dev),
            "segmented launch must bill the sum of the per-segment launches"
        );
    }
}
