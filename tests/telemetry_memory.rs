//! Telemetry memory, under the counting global allocator: a sheet row's
//! latency block (`LATENCY_BLOCK_BYTES`, the per-row budget in DESIGN.md
//! §8c) is allocated by the row's owner on its first sampled op — never
//! when a queue is built, never for a row that does not record, and never
//! again after that first sample. The probe-off build allocates none.
//!
//! This lives in its own test binary (like `tests/bounded_alloc.rs`)
//! because the allocation windows need a process where no sibling test
//! allocates concurrently; cargo runs the tests of one binary in parallel
//! threads. The concurrent phase also snapshots while the owners publish
//! their blocks, which the sanitizer job runs under ThreadSanitizer.

use std::sync::Barrier;

use turnq_repro::harness::memusage::alloc_snapshot;
use turnq_repro::telemetry::{CounterId, OpKey, TelemetrySheet, ENABLED, LATENCY_BLOCK_BYTES};
use turnq_repro::{
    ConcurrentQueue, SegTurnQueue, ShardedBuilder, ShardedTurnQueue, TurnQueue, TurnQueueBuilder,
};

#[global_allocator]
static ALLOC: turnq_repro::harness::CountingAllocator = turnq_repro::harness::CountingAllocator;

/// The per-row budget DESIGN.md §8c documents: 8 series × (4 stat cells +
/// 1024 buckets) × 8 B.
const DOCUMENTED_BLOCK_BYTES: usize = 65_792;

/// Enqueue/dequeue pairs per worker in the two-thread phase: enough that
/// every worker's row is sampled at the default one-in-64 rate.
const PAIRS: u64 = 1 << 10;

/// Single-thread warm-up pairs before the allocation window opens.
const WARM_PAIRS: u64 = 40;

/// One enqueue/dequeue pair: the queue holds the item just enqueued, so
/// the dequeue finds one (another thread's, under concurrency).
fn pair<Q: ConcurrentQueue<u64>>(q: &Q, v: u64) {
    q.enqueue(v);
    assert!(q.dequeue().is_some());
}

/// Rows holding a latency block, over all of a queue's sheets.
fn blocks(sheets: &[&TelemetrySheet]) -> usize {
    sheets
        .iter()
        .map(|s| (0..s.max_threads()).filter(|&t| s.has_latency_block(t)).count())
        .sum()
}

fn check<Q: ConcurrentQueue<u64> + Sync>(
    name: &str,
    build: impl Fn() -> Q,
    sheets: impl Fn(&Q) -> Vec<&TelemetrySheet>,
) {
    // --- Two threads, snapshotted while they run: one block per recording
    // row, on rows that recorded ops, none elsewhere. (This phase runs
    // first so the test harness has long finished starting this test, and
    // allocates nothing concurrently, when the windows below open.)
    let q = build();
    let registered = Barrier::new(2);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let (q, registered) = (&q, &registered);
                s.spawn(move || {
                    // Both workers hold a slot before either can exit and
                    // hand its slot (and row) to the other.
                    pair(q, t << 32);
                    registered.wait();
                    (1..PAIRS).for_each(|i| pair(q, t << 32 | i));
                })
            })
            .collect();
        while !workers.iter().all(|w| w.is_finished()) {
            for sheet in sheets(&q) {
                let _ = sheet.snapshot();
            }
        }
    });
    let all = sheets(&q);
    assert_eq!(blocks(&all), if ENABLED { 2 } else { 0 }, "{name}: two recording rows");
    for sheet in &all {
        for t in (0..sheet.max_threads()).filter(|&t| sheet.has_latency_block(t)) {
            let ops = [CounterId::EnqOps, CounterId::DeqOps, CounterId::DeqEmpty]
                .map(|id| sheet.thread_counter(t, id));
            assert!(
                ops.iter().sum::<u64>() > 0,
                "{name}: row {t} holds a block but recorded no op"
            );
        }
    }
    drop(all);
    drop(q);

    // --- Build: no row holds a block, and the build allocates less than
    // the blocks of every row would take (what an eager sheet costs).
    let before = alloc_snapshot();
    let q = build();
    let built = alloc_snapshot().bytes - before.bytes;
    let sh = sheets(&q);
    let rows: usize = sh.iter().map(|s| s.max_threads()).sum();
    assert_eq!(blocks(&sh), 0, "{name}: building allocated a latency block");
    if ENABLED {
        assert!(
            built < (rows * LATENCY_BLOCK_BYTES) as u64,
            "{name}: build allocated {built} B, as much as {rows} eager latency blocks"
        );
    }

    // --- One thread: the op that allocates the row's block allocates
    // exactly the budget, and nothing is allocated after it.
    // The warm-up registers this thread and runs past the node pool's and
    // the segment rings' first allocations (the last is a segment append
    // at pair 32). Row 0's sampler first picks op 116, at pair 58, so the
    // block is still unallocated when the window opens.
    for v in 0..WARM_PAIRS {
        pair(&q, v);
    }
    assert_eq!(
        blocks(&sh),
        0,
        "{name}: a warm-up pair was sampled, so its block falls outside the window"
    );
    let before = alloc_snapshot();
    let mut v = WARM_PAIRS;
    while blocks(&sh) == 0 && v < 4 * PAIRS {
        pair(&q, v);
        v += 1;
    }
    let first = alloc_snapshot();
    for w in v..v + 4 * PAIRS {
        pair(&q, w);
    }
    let after = alloc_snapshot();
    // Without the node pool every pair allocates its node, so the windows
    // are exact only with it (the default build).
    if cfg!(feature = "node-pool") {
        assert_eq!(after.allocs - first.allocs, 0, "{name}: steady-state pairs allocated");
    }
    if ENABLED {
        assert_eq!(LATENCY_BLOCK_BYTES, DOCUMENTED_BLOCK_BYTES);
        assert_eq!(blocks(&sh), 1, "{name}: one recording row, one block");
        if cfg!(feature = "node-pool") {
            assert_eq!(
                (first.allocs - before.allocs, first.bytes - before.bytes),
                (1, LATENCY_BLOCK_BYTES as u64),
                "{name}: the first sample must allocate exactly one block"
            );
        }
    } else {
        assert_eq!(blocks(&sh), 0);
        let before = alloc_snapshot();
        sh[0].record_latency(0, OpKey::EnqSlow, 1);
        assert_eq!(alloc_snapshot().allocs - before.allocs, 0, "{name}: probe-off build allocated");
    }
}

#[test]
fn latency_blocks_are_allocated_once_per_recording_row() {
    check(
        "turn",
        || TurnQueueBuilder::new().build::<u64>(),
        |q: &TurnQueue<u64>| vec![q.telemetry()],
    );
    check(
        "seg",
        || TurnQueueBuilder::new().build_seg::<u64>(),
        |q: &SegTurnQueue<u64>| vec![q.telemetry()],
    );
    check(
        "sharded",
        || ShardedBuilder::new().build::<u64>(),
        |q: &ShardedTurnQueue<u64>| {
            let mut sheets = vec![q.telemetry()];
            sheets.extend((0..q.lanes()).map(|lane| q.lane_telemetry(lane)));
            sheets
        },
    );
}
