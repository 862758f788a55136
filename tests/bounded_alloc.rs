//! Full-queue backpressure on the bounded ring, under the counting
//! global allocator (ISSUE 10): producers must *observe* `Full` (the
//! verdict is deterministic, not raced for), no item may be lost through
//! the Full/retry cycle, and the steady-state windows must allocate
//! nothing — the ring's whole reason to exist.
//!
//! This lives in its own test binary (not `tests/variants.rs`) because
//! the zero-alloc window assertions need a process where no sibling
//! test's allocations run concurrently with the measured windows; cargo
//! runs the tests of one binary in parallel threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use turnq_repro::bounded::Full;
use turnq_repro::harness::memusage::alloc_snapshot;
use turnq_repro::telemetry::ENABLED;
use turnq_repro::{BoundedBuilder, BoundedQueue, ConcurrentQueue};

#[global_allocator]
static ALLOC: turnq_repro::harness::CountingAllocator =
    turnq_repro::harness::CountingAllocator;

#[test]
fn full_backpressure_loses_nothing_and_steady_state_allocates_nothing() {
    const CAPACITY: usize = 64;
    const PRODUCERS: usize = 2;
    const PER: u64 = 20_000;
    const TOTAL: usize = PRODUCERS * PER as usize;

    let q: Arc<BoundedQueue<u64>> = Arc::new(
        BoundedBuilder::new()
            .capacity(CAPACITY)
            .max_threads(PRODUCERS + 2)
            .build(),
    );

    // --- Phase 1 (deterministic Full): fill the ring to capacity with no
    // consumer running; the next try_enqueue must report Full and hand
    // the item back.
    for i in 0..CAPACITY as u64 {
        assert!(q.try_enqueue(i).is_ok(), "ring refused item {i} below capacity");
    }
    match q.try_enqueue(u64::MAX) {
        Err(Full(back)) => assert_eq!(back, u64::MAX, "Full must return the item"),
        Ok(()) => panic!("ring accepted an item past its capacity"),
    }
    for i in 0..CAPACITY as u64 {
        assert_eq!(q.try_dequeue(), Some(i), "fill/drain order");
    }
    assert_eq!(q.try_dequeue(), None);

    // --- Phase 2 (concurrent stress): producers spin through Full while
    // a consumer drains; the Full verdicts they see are real backpressure
    // and the multiset at the far end must be exact.
    let full_hits = Arc::new(AtomicUsize::new(0));
    let received = Arc::new(AtomicUsize::new(0));
    let got: Vec<u64> = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            let full_hits = Arc::clone(&full_hits);
            s.spawn(move || {
                for i in 0..PER {
                    let mut item = (p as u64) << 40 | i;
                    loop {
                        match q.try_enqueue(item) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                item = back;
                                full_hits.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
        }
        let sink = {
            let q = Arc::clone(&q);
            let received = Arc::clone(&received);
            s.spawn(move || {
                let mut got = Vec::with_capacity(TOTAL);
                while received.load(Ordering::SeqCst) < TOTAL {
                    if let Some(v) = q.try_dequeue() {
                        received.fetch_add(1, Ordering::SeqCst);
                        got.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            })
        };
        sink.join().unwrap()
    });
    let mut all = got;
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), TOTAL, "Full/retry cycle lost or duplicated items");
    println!(
        "backpressure: {} Full verdicts across {} items (capacity {})",
        full_hits.load(Ordering::Relaxed),
        TOTAL,
        CAPACITY
    );

    // --- Phase 3 (allocator-asserted steady state): with every thread
    // slot registered, the free-index rings warm, and this thread's
    // telemetry row holding its latency block (allocated on the row's
    // first sampled op), enqueue/dequeue cycles on this thread must hit
    // the allocator zero times.
    let tid = q.registry_handle().current_index();
    let mut warm = 0u64;
    while warm < 2 * CAPACITY as u64 + 16
        || (ENABLED && !q.telemetry().has_latency_block(tid) && warm < 1 << 20)
    {
        q.enqueue(warm);
        let _ = q.dequeue();
        warm += 1;
    }
    assert_eq!(
        q.telemetry().has_latency_block(tid),
        ENABLED,
        "the window must open after this thread's first latency sample"
    );
    let before = alloc_snapshot();
    for i in 0..10_000u64 {
        q.enqueue(i);
        let got = q.dequeue();
        assert_eq!(got, Some(i));
    }
    let after = alloc_snapshot();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "bounded ring allocated in steady state"
    );
}
