//! The recording side: per-thread rows of counters, a helping-depth
//! histogram, and an event ring.
//!
//! ## Why plain load+store and not `fetch_add`
//!
//! Every cell is owned by exactly one recording thread (the row index is
//! the dense registry tid), so `c.store(c.load(Relaxed) + 1, Relaxed)` is
//! exact: no other thread ever writes the cell, hence no increment can be
//! lost. Aggregators only read. This keeps hot paths free of RMW — the
//! paper's CAS-only claim and wait-freedom bounds are untouched, because a
//! plain store is a single machine instruction with no retry loop. The
//! same idiom already carries the node pool's stats (`pool.rs::bump`).
//!
//! The atomics come from `turnq_sync::observer` — always std, never the
//! model checker's instrumented wrappers (see that module's docs for why
//! observers are exempt).
//!
//! ## Lazy latency blocks
//!
//! A row's latency histograms are its one large part
//! ([`LATENCY_BLOCK_BYTES`], against about 2 KiB for everything else), and
//! most rows of a `max_threads`-sized sheet never record. So the block is
//! allocated by the row's owner on its first sampled
//! [`record_latency`](TelemetrySheet::record_latency) and published
//! through a [`OnceLock`]: one allocation per row lifetime, never on a
//! counter or event path. Only the owner initialises its row's lock, so
//! the initialisation never waits on another thread; readers see a row
//! without a block as "no samples".

#[cfg(feature = "probe")]
use crossbeam_utils::CachePadded;
use std::sync::Arc;
#[cfg(feature = "probe")]
use std::sync::OnceLock;
#[cfg(feature = "probe")]
use turnq_sync::observer::{AtomicU64, Ordering};

use crate::counters::CounterId;
#[cfg(feature = "probe")]
use crate::counters::N_COUNTERS;
use crate::events::EventKind;
#[cfg(feature = "probe")]
use crate::events::{pack, unpack, RING_CAPACITY};
use crate::events::Event;
use crate::latency::{OpKey, OpTimer, DEFAULT_LATENCY_SAMPLE_LOG2};
#[cfg(feature = "probe")]
use crate::latency::{bucket_index, sample_step, N_OP_KEYS, RANGES, SHEET_SUB_BUCKET_BITS};
use crate::snapshot::TelemetrySnapshot;

/// Flat buckets per latency series at the sheet resolution.
#[cfg(feature = "probe")]
const LAT_BUCKETS: usize = RANGES << SHEET_SUB_BUCKET_BITS;

/// `(count, sum, max, min)` cells per latency series.
#[cfg(feature = "probe")]
const LAT_STATS: usize = 4;

/// Cells of one latency series: `LAT_STATS` stat cells, then
/// `LAT_BUCKETS` histogram buckets.
#[cfg(feature = "probe")]
const SERIES_CELLS: usize = LAT_STATS + LAT_BUCKETS;

/// Cells of one row's latency block: `N_OP_KEYS` series.
#[cfg(feature = "probe")]
const LAT_CELLS: usize = N_OP_KEYS * SERIES_CELLS;

/// Heap bytes of one row's latency block — the only telemetry allocation
/// a recording thread ever causes, made once per row on the owner's first
/// sampled op: 8 series × (4 + 1024) cells × 8 B = 65 792 B. 0 with
/// `probe` off (a sheet then stores nothing).
#[cfg(feature = "probe")]
pub const LATENCY_BLOCK_BYTES: usize = LAT_CELLS * std::mem::size_of::<u64>();
/// Heap bytes of one row's latency block (0: `probe` is off).
#[cfg(not(feature = "probe"))]
pub const LATENCY_BLOCK_BYTES: usize = 0;

/// Flight-recorder reports kept per sheet; later dumps only bump the
/// `stall_dump` counter (a black box records the first incident, not an
/// unbounded log).
#[cfg(feature = "probe")]
const MAX_STALL_REPORTS: usize = 32;

/// One thread's private recording area. Padded so rows never share a
/// cache line with a neighbour's hot cells.
#[cfg(feature = "probe")]
struct ThreadRow {
    /// Counter cells, indexed by `CounterId as usize`.
    counters: [AtomicU64; N_COUNTERS],
    /// Helping-depth histogram: `depth[d]` counts operations that
    /// completed after observing `d` helper iterations.
    depth: Box<[AtomicU64]>,
    /// Flight-recorder ring (packed events, see `events.rs`).
    ring: [AtomicU64; RING_CAPACITY],
    /// Total events ever recorded by this thread; the next write goes to
    /// `ring[ring_pos % RING_CAPACITY]`.
    ring_pos: AtomicU64,
    /// Latency block, allocated by the owner on its first sampled op
    /// (see the module docs): one series per key, each `LAT_STATS`
    /// `(count, sum, max, min)` cells then `LAT_BUCKETS` log-linear
    /// buckets (shared bucket math, `latency.rs`).
    lat: OnceLock<Box<[AtomicU64]>>,
    /// Xorshift state of the latency sampler (never 0; see
    /// [`TelemetrySheet::op_timer`]).
    sample_rng: AtomicU64,
}

#[cfg(feature = "probe")]
impl ThreadRow {
    fn new(tid: usize, depth_buckets: usize) -> Self {
        ThreadRow {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            depth: (0..depth_buckets).map(|_| AtomicU64::new(0)).collect(),
            ring: std::array::from_fn(|_| AtomicU64::new(0)),
            ring_pos: AtomicU64::new(0),
            lat: OnceLock::new(),
            // Distinct odd (so nonzero) seeds keep rows' samples
            // uncorrelated.
            sample_rng: AtomicU64::new((tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
        }
    }

    /// Owner-only increment: exact because only the owning thread writes.
    #[inline]
    fn bump(&self, cell: &AtomicU64, n: u64) {
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// This row's latency block, allocating it on first use (owner only).
    #[inline(always)]
    fn latency_block(&self) -> &[AtomicU64] {
        match self.lat.get() {
            Some(block) => block,
            None => self.init_latency_block(),
        }
    }

    /// The row's one telemetry allocation. Only the owner calls it, so the
    /// `OnceLock` never waits.
    #[cold]
    #[inline(never)]
    fn init_latency_block(&self) -> &[AtomicU64] {
        self.lat.get_or_init(|| {
            (0..LAT_CELLS)
                // min cells (stat offset 3) start at u64::MAX so the
                // first sample always wins.
                .map(|i| AtomicU64::new(if i % SERIES_CELLS == 3 { u64::MAX } else { 0 }))
                .collect()
        })
    }
}

/// A telemetry sheet: one row per thread id, sized like the queue's other
/// per-thread arrays (`max_threads` rows).
///
/// With the `probe` feature off this struct stores nothing, every
/// recording method is an empty inline body, and [`snapshot`] returns an
/// all-zero snapshot — call sites need no `cfg`.
///
/// [`snapshot`]: TelemetrySheet::snapshot
pub struct TelemetrySheet {
    max_threads: usize,
    /// Latency sampling rate: one op in `2^s` per row is timed.
    #[cfg(feature = "probe")]
    latency_sample_log2: u32,
    #[cfg(feature = "probe")]
    rows: Box<[CachePadded<ThreadRow>]>,
    /// Flight-recorder reports from the stall watchdog. Recording side
    /// only ever `try_lock`s (never blocks — a report dropped under
    /// contention is acceptable, the `stall_dump` counter still counts
    /// it), so wait-freedom is untouched.
    #[cfg(feature = "probe")]
    stall_reports: std::sync::Mutex<Vec<String>>,
}

impl TelemetrySheet {
    /// Create a sheet with `max_threads` rows and as many helping-depth
    /// buckets per row (depth can reach `max_threads - 1`), timing one op
    /// in `2^`[`DEFAULT_LATENCY_SAMPLE_LOG2`] per thread.
    pub fn new(max_threads: usize) -> Self {
        Self::with_latency_sample_log2(max_threads, DEFAULT_LATENCY_SAMPLE_LOG2)
    }

    /// Like [`new`](Self::new), timing one op in `2^s` per thread
    /// ([`op_timer`](Self::op_timer)); `s = 0` times every op.
    ///
    /// # Panics
    ///
    /// Panics if `s >= 64`.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn with_latency_sample_log2(max_threads: usize, s: u32) -> Self {
        assert!(max_threads > 0, "telemetry sheet needs at least one row");
        assert!(s < 64, "latency_sample_log2 must be below 64 (got {s})");
        TelemetrySheet {
            max_threads,
            #[cfg(feature = "probe")]
            latency_sample_log2: s,
            #[cfg(feature = "probe")]
            rows: (0..max_threads)
                .map(|tid| CachePadded::new(ThreadRow::new(tid, max_threads)))
                .collect(),
            #[cfg(feature = "probe")]
            stall_reports: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Number of rows (thread ids this sheet can record for).
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Increment `id`'s counter on `tid`'s row by one.
    ///
    /// Must only be called from the thread that owns `tid` (the same
    /// discipline as every other per-thread array in the stack).
    #[inline(always)]
    pub fn bump(&self, tid: usize, id: CounterId) {
        self.add(tid, id, 1);
    }

    /// Like [`bump`](Self::bump), adding `n`.
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn add(&self, tid: usize, id: CounterId, n: u64) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            row.bump(&row.counters[id as usize], n);
        }
    }

    /// Record that an operation by `tid` completed at helping depth
    /// `depth` (clamped into the last bucket if ever out of range).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn record_depth(&self, tid: usize, depth: usize) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let d = depth.min(row.depth.len() - 1);
            row.bump(&row.depth[d], 1);
        }
    }

    /// Record one operation latency sample (nanoseconds) on `tid`'s row
    /// under the `key` series (operation × path class).
    ///
    /// Same owner-only plain-store discipline as [`bump`](Self::bump):
    /// one histogram-bucket increment plus four stat-cell stores, no RMW,
    /// no loop. The row's first sample allocates its latency block
    /// ([`LATENCY_BLOCK_BYTES`]).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn record_latency(&self, tid: usize, key: OpKey, nanos: u64) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let block = row.latency_block();
            let s = (key as usize) * SERIES_CELLS;
            row.bump(
                &block[s + LAT_STATS + bucket_index(SHEET_SUB_BUCKET_BITS, nanos)],
                1,
            );
            row.bump(&block[s], 1);
            row.bump(&block[s + 1], nanos);
            let max = &block[s + 2];
            if nanos > max.load(Ordering::Relaxed) {
                max.store(nanos, Ordering::Relaxed);
            }
            let min = &block[s + 3];
            if nanos < min.load(Ordering::Relaxed) {
                min.store(nanos, Ordering::Relaxed);
            }
        }
    }

    /// Start timing an operation by `tid` if the sampler picks it: one
    /// op in `2^s` per row reads the clock, the rest get a timer that
    /// records nothing. The decision is a xorshift step on `tid`'s row —
    /// owner-only plain load and store, no RMW, no loop — and `s = 0`
    /// times every op without touching any row, so a row shared under a
    /// lock stays single-writer. Pair with [`record_op`](Self::record_op).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn op_timer(&self, tid: usize) -> OpTimer {
        #[cfg(feature = "probe")]
        {
            let s = self.latency_sample_log2;
            if s == 0 {
                return OpTimer::start();
            }
            let rng = &self.rows[tid].sample_rng;
            let (x, picked) = sample_step(rng.load(Ordering::Relaxed), s);
            rng.store(x, Ordering::Relaxed);
            if picked {
                OpTimer::start()
            } else {
                OpTimer::skipped()
            }
        }
        #[cfg(not(feature = "probe"))]
        OpTimer::start()
    }

    /// Finish an operation started with [`op_timer`](Self::op_timer):
    /// if it was sampled, record its latency under `key` and return it
    /// (for the stall watchdog); otherwise record nothing and return
    /// `None`. Always `None` with `probe` off.
    #[inline(always)]
    pub fn record_op(&self, tid: usize, key: OpKey, timer: &OpTimer) -> Option<u64> {
        let nanos = timer.sampled_nanos()?;
        self.record_latency(tid, key, nanos);
        Some(nanos)
    }

    /// Store a flight-recorder report (non-blocking; drops the report if
    /// another thread holds the sink or the cap is reached). Returns
    /// whether the report was kept.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn report_stall(&self, report: String) -> bool {
        #[cfg(feature = "probe")]
        {
            if let Ok(mut log) = self.stall_reports.try_lock() {
                if log.len() < MAX_STALL_REPORTS {
                    log.push(report);
                    return true;
                }
            }
            false
        }
        #[cfg(not(feature = "probe"))]
        false
    }

    /// Drain the stored flight-recorder reports (aggregation side; may
    /// block briefly on the sink lock).
    pub fn take_stall_reports(&self) -> Vec<String> {
        #[cfg(feature = "probe")]
        {
            let mut log = self
                .stall_reports
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *log)
        }
        #[cfg(not(feature = "probe"))]
        Vec::new()
    }

    /// Append an event to `tid`'s ring (overwrites oldest-first).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn event(&self, tid: usize, kind: EventKind, arg: u64) {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let pos = row.ring_pos.load(Ordering::Relaxed);
            row.ring[(pos as usize) % RING_CAPACITY].store(pack(kind, arg), Ordering::Relaxed);
            row.ring_pos.store(pos + 1, Ordering::Relaxed);
        }
    }

    /// Decode `tid`'s ring, oldest surviving event first.
    ///
    /// Reads are best-effort while the owner is still recording (a slot
    /// being overwritten may decode to a fresh event or be dropped); after
    /// the recording threads quiesce the view is exact.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn events(&self, tid: usize) -> Vec<Event> {
        #[cfg(feature = "probe")]
        {
            let row = &self.rows[tid];
            let pos = row.ring_pos.load(Ordering::Relaxed);
            let live = (pos as usize).min(RING_CAPACITY);
            let mut out = Vec::with_capacity(live);
            for i in 0..live {
                let slot = (pos as usize - live + i) % RING_CAPACITY;
                if let Some(ev) = unpack(row.ring[slot].load(Ordering::Relaxed)) {
                    out.push(ev);
                }
            }
            out
        }
        #[cfg(not(feature = "probe"))]
        Vec::new()
    }

    /// Aggregate every row into a snapshot (Relaxed loads; exact once the
    /// recording threads have quiesced, a monotone under-estimate while
    /// they are still running).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        #[cfg_attr(not(feature = "probe"), allow(unused_mut))]
        let mut snap = TelemetrySnapshot::empty(self.max_threads);
        #[cfg(feature = "probe")]
        for row in self.rows.iter() {
            for id in CounterId::ALL {
                snap.add_counter(id.name(), row.counters[id as usize].load(Ordering::Relaxed));
            }
            for (d, cell) in row.depth.iter().enumerate() {
                snap.add_depth_bucket(d, cell.load(Ordering::Relaxed));
            }
            // A row without a block has never been sampled.
            let Some(block) = row.lat.get() else { continue };
            for (key, series) in OpKey::ALL.into_iter().zip(block.chunks_exact(SERIES_CELLS)) {
                let (stats, buckets) = series.split_at(LAT_STATS);
                let count = stats[0].load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                snap.add_latency_stats(
                    key,
                    count,
                    stats[1].load(Ordering::Relaxed),
                    stats[2].load(Ordering::Relaxed),
                    stats[3].load(Ordering::Relaxed),
                );
                for (b, cell) in buckets.iter().enumerate() {
                    let n = cell.load(Ordering::Relaxed);
                    if n > 0 {
                        snap.add_latency_bucket(key, b, n);
                    }
                }
            }
        }
        snap
    }

    /// Whether `tid`'s row holds its latency block, i.e. has recorded at
    /// least one latency sample (memory accounting and test aid; always
    /// `false` with `probe` off).
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn has_latency_block(&self, tid: usize) -> bool {
        #[cfg(feature = "probe")]
        {
            self.rows[tid].lat.get().is_some()
        }
        #[cfg(not(feature = "probe"))]
        false
    }

    /// One thread's counter value (test/aggregation aid; Relaxed load).
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn thread_counter(&self, tid: usize, id: CounterId) -> u64 {
        #[cfg(feature = "probe")]
        {
            self.rows[tid].counters[id as usize].load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "probe"))]
        0
    }

    /// Sum of one counter across all rows (Relaxed loads).
    pub fn total(&self, id: CounterId) -> u64 {
        #[cfg(feature = "probe")]
        {
            self.rows
                .iter()
                .map(|r| r.counters[id as usize].load(Ordering::Relaxed))
                .sum()
        }
        #[cfg(not(feature = "probe"))]
        {
            let _ = id;
            0
        }
    }
}

/// A cheap, cloneable connection from an instrumented component (hazard
/// domain, node pool, registry) back to its owner's [`TelemetrySheet`].
///
/// Components hold a handle instead of an `Arc<TelemetrySheet>` directly so
/// that a disconnected default exists: a hazard domain built standalone
/// records nothing, one built by a queue records into the queue's sheet
/// after `attach_telemetry`. With `probe` off the handle is a zero-sized
/// no-op.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    #[cfg(feature = "probe")]
    sheet: Option<Arc<TelemetrySheet>>,
}

impl TelemetryHandle {
    /// A handle that records nothing (the `Default`).
    pub fn disconnected() -> Self {
        TelemetryHandle::default()
    }

    /// A handle recording into `sheet`.
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn connected(sheet: &Arc<TelemetrySheet>) -> Self {
        TelemetryHandle {
            #[cfg(feature = "probe")]
            sheet: Some(Arc::clone(sheet)),
        }
    }

    /// See [`TelemetrySheet::bump`]. Out-of-range `tid`s are ignored (a
    /// drop-path flush may run on an unregistered thread).
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn bump(&self, tid: usize, id: CounterId) {
        self.add(tid, id, 1);
    }

    /// See [`TelemetrySheet::add`].
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn add(&self, tid: usize, id: CounterId, n: u64) {
        #[cfg(feature = "probe")]
        if let Some(sheet) = &self.sheet {
            if tid < sheet.max_threads {
                sheet.add(tid, id, n);
            }
        }
    }

    /// See [`TelemetrySheet::event`].
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn event(&self, tid: usize, kind: EventKind, arg: u64) {
        #[cfg(feature = "probe")]
        if let Some(sheet) = &self.sheet {
            if tid < sheet.max_threads {
                sheet.event(tid, kind, arg);
            }
        }
    }

    /// Whether this handle is connected to a live sheet (always `false`
    /// with `probe` off).
    pub fn is_connected(&self) -> bool {
        #[cfg(feature = "probe")]
        {
            self.sheet.is_some()
        }
        #[cfg(not(feature = "probe"))]
        false
    }
}

#[cfg(all(test, feature = "probe"))]
mod tests {
    use super::*;

    #[test]
    fn bump_and_total() {
        let sheet = TelemetrySheet::new(4);
        sheet.bump(0, CounterId::EnqOps);
        sheet.bump(3, CounterId::EnqOps);
        sheet.add(1, CounterId::EnqOps, 5);
        assert_eq!(sheet.total(CounterId::EnqOps), 7);
        assert_eq!(sheet.thread_counter(1, CounterId::EnqOps), 5);
        assert_eq!(sheet.total(CounterId::DeqOps), 0);
    }

    #[test]
    fn depth_is_clamped() {
        let sheet = TelemetrySheet::new(2);
        sheet.record_depth(0, 0);
        sheet.record_depth(0, 1);
        sheet.record_depth(0, 99); // clamps into bucket 1
        let snap = sheet.snapshot();
        assert_eq!(snap.helping_depth(), &[1, 2]);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let sheet = TelemetrySheet::new(1);
        for i in 0..(crate::events::RING_CAPACITY as u64 + 3) {
            sheet.event(0, EventKind::OpFinish, i);
        }
        let events = sheet.events(0);
        assert_eq!(events.len(), crate::events::RING_CAPACITY);
        assert_eq!(events.first().unwrap().arg, 3);
        assert_eq!(events.last().unwrap().arg, crate::events::RING_CAPACITY as u64 + 2);
    }

    #[test]
    fn latency_samples_land_in_their_series() {
        let sheet = TelemetrySheet::new(2);
        sheet.record_latency(0, OpKey::EnqFast, 5);
        sheet.record_latency(0, OpKey::EnqFast, 100);
        sheet.record_latency(1, OpKey::EnqFast, 7);
        sheet.record_latency(1, OpKey::DeqSlow, 1_000_000);
        let snap = sheet.snapshot();
        let fast = snap.latency(OpKey::EnqFast);
        assert_eq!(fast.count(), 3);
        assert_eq!(fast.sum(), 112);
        assert_eq!(fast.max(), 100);
        assert_eq!(fast.min(), 5);
        let slow = snap.latency(OpKey::DeqSlow);
        assert_eq!(slow.count(), 1);
        assert_eq!(snap.latency(OpKey::DeqFast).count(), 0);
    }

    #[test]
    fn never_sampled_rows_hold_no_latency_block_and_add_no_series() {
        let sheet = TelemetrySheet::new(3);
        let blocks = |sheet: &TelemetrySheet| {
            (0..3).map(|t| sheet.has_latency_block(t)).collect::<Vec<_>>()
        };
        for tid in 0..3 {
            sheet.bump(tid, CounterId::EnqOps);
            sheet.record_depth(tid, 0);
            sheet.event(tid, EventKind::OpFinish, 0);
            let _ = sheet.op_timer(tid); // a sampler step, not a sample
        }
        // Counter, depth, event and sampler paths never allocate a block.
        assert_eq!(blocks(&sheet), [false; 3]);
        assert_eq!(sheet.snapshot().latency_count(), 0);

        sheet.record_latency(1, OpKey::DeqFast, 40);
        sheet.record_latency(1, OpKey::DeqFast, 9);
        assert_eq!(blocks(&sheet), [false, true, false]);
        let snap = sheet.snapshot();
        assert_eq!(snap.latency_count(), 2);
        let series = snap.latency(OpKey::DeqFast);
        assert_eq!((series.count(), series.sum(), series.max(), series.min()), (2, 49, 40, 9));
        assert_eq!(snap.counter(CounterId::EnqOps), 3);
    }

    fn rng_states(sheet: &TelemetrySheet) -> Vec<u64> {
        sheet
            .rows
            .iter()
            .map(|r| r.sample_rng.load(Ordering::Relaxed))
            .collect()
    }

    #[test]
    fn rate_zero_times_every_op_and_reads_no_sampler_state() {
        let sheet = TelemetrySheet::with_latency_sample_log2(2, 0);
        let before = rng_states(&sheet);
        for _ in 0..1_000 {
            let timer = sheet.op_timer(0);
            assert!(sheet.record_op(0, OpKey::EnqFast, &timer).is_some());
        }
        assert_eq!(rng_states(&sheet), before);
        let snap = sheet.snapshot();
        assert_eq!(snap.latency(OpKey::EnqFast).count(), 1_000);
    }

    #[test]
    fn sampling_decision_touches_only_the_callers_row() {
        let sheet = TelemetrySheet::new(3);
        let before = rng_states(&sheet);
        for _ in 0..100 {
            let timer = sheet.op_timer(1);
            let _ = sheet.record_op(1, OpKey::DeqFast, &timer);
        }
        let after = rng_states(&sheet);
        assert_eq!(after[0], before[0]);
        assert_ne!(after[1], before[1]);
        assert_eq!(after[2], before[2]);
    }

    #[test]
    fn default_rate_samples_about_one_op_in_sixty_four() {
        const OPS: u64 = 1 << 16;
        let sheet = TelemetrySheet::new(1);
        let mut returned = 0;
        for _ in 0..OPS {
            let timer = sheet.op_timer(0);
            returned += u64::from(sheet.record_op(0, OpKey::EnqSlow, &timer).is_some());
        }
        let snap = sheet.snapshot();
        let expected = OPS >> DEFAULT_LATENCY_SAMPLE_LOG2;
        assert_eq!(snap.latency(OpKey::EnqSlow).count(), returned);
        assert!(
            (expected / 2..=expected * 3 / 2).contains(&returned),
            "{returned} samples, expected about {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "latency_sample_log2 must be below 64")]
    fn oversized_rate_is_rejected() {
        let _ = TelemetrySheet::with_latency_sample_log2(1, 64);
    }

    #[test]
    fn stall_reports_are_kept_up_to_the_cap_and_drained() {
        let sheet = TelemetrySheet::new(1);
        for i in 0..(MAX_STALL_REPORTS + 5) {
            let kept = sheet.report_stall(format!("report {i}"));
            assert_eq!(kept, i < MAX_STALL_REPORTS);
        }
        let reports = sheet.take_stall_reports();
        assert_eq!(reports.len(), MAX_STALL_REPORTS);
        assert_eq!(reports[0], "report 0");
        assert!(sheet.take_stall_reports().is_empty());
    }

    #[test]
    fn disconnected_handle_is_inert() {
        let h = TelemetryHandle::disconnected();
        assert!(!h.is_connected());
        h.bump(0, CounterId::HpScan); // must not panic
    }

    #[test]
    fn handle_ignores_out_of_range_tid() {
        let sheet = Arc::new(TelemetrySheet::new(2));
        let h = TelemetryHandle::connected(&sheet);
        h.bump(7, CounterId::HpScan); // silently dropped
        assert_eq!(sheet.total(CounterId::HpScan), 0);
        h.bump(1, CounterId::HpScan);
        assert_eq!(sheet.total(CounterId::HpScan), 1);
    }
}
