//! Telemetry consistency under real concurrency.
//!
//! The telemetry sheets record with plain owner-only stores (no RMW), so
//! these tests pin down the guarantee that design rests on: once the
//! recording threads have joined, aggregates are *exact* — and the
//! recorded quantities obey the algorithm's own invariants:
//!
//! * enqueues == dequeues + items left in the queue,
//! * pool hits + misses == node acquisitions (one per enqueue),
//! * observed helping depth never exceeds the paper's `MAX_THREADS - 1`
//!   overtaking bound,
//! * registry slot claims == releases once every thread has exited,
//! * a per-item (`seg_size(1)`) segment queue never claims a cell,
//! * bounded-ring fast + slow path counts == completed ops, per side,
//! * drained sharded queue: home-lane enqueues == dequeue hits + steals,
//! * latency samples partition completed ops under an armed watchdog
//!   (or a bounded ring at `latency_sample_log2(0)`), and number about
//!   ops / 64 at the default rate while every counter stays exact.
//!
//! Every exact assertion is gated on `turnq_telemetry::ENABLED`, so the
//! same test compiles and passes with `--no-default-features` (where the
//! branch instead asserts that the all-zero snapshot really is inert).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use turnq_repro::api::{QueueIntrospect, TelemetrySnapshot};
use turnq_repro::baselines::MutexQueue;
use turnq_repro::telemetry::{CounterId, OpKey};
use turnq_repro::{BoundedBuilder, ConcurrentQueue, ShardedBuilder, TurnQueue, TurnQueueBuilder};

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

/// Half of `threads` enqueue, the rest dequeue until they have drained
/// their share; returns (items dequeued by workers, items drained at the
/// end).
fn churn<Q: ConcurrentQueue<u64>>(queue: &Q, threads: usize) -> (u64, u64) {
    let producers = threads / 2;
    let consumers = threads - producers;
    let consumed = AtomicU64::new(0);
    let target = producers as u64 * PER_THREAD;
    std::thread::scope(|s| {
        for p in 0..producers {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    queue.enqueue((p as u64) << 32 | i);
                }
            });
        }
        for _ in 0..consumers {
            let consumed = &consumed;
            s.spawn(move || {
                // Stop a little early so the final queue is non-empty and
                // the size term of the invariant is exercised.
                while consumed.load(Ordering::Relaxed) < target - 64 {
                    if queue.dequeue().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    let worker_consumed = consumed.load(Ordering::Relaxed);
    (worker_consumed, target - worker_consumed)
}

/// Churn `queue` on 2 threads, drain it on this one, and return its
/// telemetry snapshot.
fn churn_and_drain<Q: ConcurrentQueue<u64> + QueueIntrospect>(queue: &Q) -> TelemetrySnapshot {
    let (_, leftover) = churn(queue, 2);
    let mut drained = 0;
    while queue.dequeue().is_some() {
        drained += 1;
    }
    assert_eq!(drained, leftover);
    queue.telemetry_snapshot().expect("queue carries a telemetry sheet")
}

#[test]
fn counters_are_internally_consistent_after_quiesce() {
    let queue: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(THREADS + 1));
    let (worker_consumed, leftover) = churn(&*queue, THREADS);

    // Snapshot *before* draining: enqueues == dequeues + current size.
    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        assert_eq!(
            snap.counter(CounterId::EnqOps),
            snap.counter(CounterId::DeqOps) + leftover,
            "enqueues must equal dequeues plus items still queued"
        );
        assert_eq!(snap.counter(CounterId::DeqOps), worker_consumed);
        // Every enqueue acquires exactly one node: from the pool (hit) or
        // the allocator (miss).
        assert_eq!(
            snap.get("pool_hit") + snap.get("pool_miss"),
            snap.counter(CounterId::EnqOps),
            "pool hits + misses must equal node acquisitions"
        );
        // Completed transfers are exactly the depth-histogram population.
        assert_eq!(
            snap.helping_depth_count(),
            snap.counter(CounterId::EnqOps) + snap.counter(CounterId::DeqOps)
        );
    } else {
        assert_eq!(snap.counter(CounterId::EnqOps), 0);
        assert_eq!(snap.get("pool_hit"), 0);
        assert_eq!(snap.helping_depth_count(), 0);
    }

    // Drain on this thread; afterwards enqueues == dequeues exactly.
    let mut drained = 0;
    while queue.dequeue().is_some() {
        drained += 1;
    }
    assert_eq!(drained, leftover);
    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        assert_eq!(
            snap.counter(CounterId::EnqOps),
            snap.counter(CounterId::DeqOps)
        );
    }

    // Per-item segment mode never claims a segment cell.
    let seg = TurnQueueBuilder::new().max_threads(3).seg_size(1).build_seg::<u64>();
    let snap = churn_and_drain(&seg);
    if turnq_telemetry::ENABLED {
        assert!(snap.counter(CounterId::EnqOps) > 0);
    } else {
        assert_eq!(snap.counter(CounterId::EnqOps), 0);
    }
    assert_eq!(snap.counter(CounterId::SegEnqCellHit), 0);
    assert_eq!(snap.counter(CounterId::SegDeqCellHit), 0);

    // The bounded ring attributes every completed op to exactly one path.
    let ring = BoundedBuilder::new().max_threads(3).build::<u64>();
    let snap = churn_and_drain(&ring);
    if turnq_telemetry::ENABLED {
        assert_eq!(snap.counter(CounterId::EnqOps), PER_THREAD);
        assert_eq!(
            snap.counter(CounterId::BqEnqFast) + snap.counter(CounterId::BqEnqSlow),
            snap.counter(CounterId::EnqOps)
        );
        assert_eq!(
            snap.counter(CounterId::BqDeqFast) + snap.counter(CounterId::BqDeqSlow),
            snap.counter(CounterId::DeqOps)
        );
    } else {
        assert_eq!(snap.counter(CounterId::EnqOps), 0);
        assert_eq!(snap.counter(CounterId::BqEnqFast), 0);
        assert_eq!(snap.counter(CounterId::BqDeqFast), 0);
    }

    // Every sharded enqueue goes to its home lane, so the front-end's
    // routing counter equals the merged lane enqueues; once drained, each
    // was dequeued as a home-lane hit or a steal.
    let sharded = ShardedBuilder::new().max_threads(3).build::<u64>();
    let snap = churn_and_drain(&sharded);
    if turnq_telemetry::ENABLED {
        assert_eq!(snap.counter(CounterId::ShardEnqHome), PER_THREAD);
        assert_eq!(snap.counter(CounterId::ShardEnqHome), snap.counter(CounterId::EnqOps));
        assert_eq!(
            snap.counter(CounterId::ShardEnqHome),
            snap.counter(CounterId::ShardDeqHit) + snap.counter(CounterId::ShardDeqSteal)
        );
    } else {
        assert_eq!(snap.counter(CounterId::ShardEnqHome), 0);
        assert_eq!(snap.counter(CounterId::ShardDeqHit), 0);
        assert_eq!(snap.counter(CounterId::ShardDeqSteal), 0);
    }
}

#[test]
fn helping_depth_respects_the_paper_bound() {
    let max_threads = THREADS + 1;
    let queue: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(max_threads));
    let _ = churn(&*queue, THREADS);
    while queue.dequeue().is_some() {}

    let snap = queue.telemetry_snapshot();
    if turnq_telemetry::ENABLED {
        let max_depth = snap
            .helping_depth_max()
            .expect("contended run must record depths");
        assert!(
            max_depth < max_threads,
            "observed helping depth {max_depth} exceeds the paper's \
             MAX_THREADS - 1 = {} bound",
            max_threads - 1
        );
        // The histogram is sized by the bound: no bucket beyond it exists.
        assert!(snap.helping_depth().len() <= max_threads);
    } else {
        assert_eq!(snap.helping_depth_max(), None);
    }
}

#[test]
fn registry_churn_balances_claims_and_releases() {
    let queue: Arc<TurnQueue<u64>> = Arc::new(TurnQueue::with_max_threads(4));
    for round in 0..3 {
        std::thread::scope(|s| {
            for t in 0..4 {
                let queue = Arc::clone(&queue);
                s.spawn(move || {
                    queue.enqueue(round * 4 + t);
                    let _ = queue.dequeue();
                });
            }
        });
    }
    // All workers joined and the main thread never registered, so every
    // claim will get a matching release — but releases land in TLS
    // destructors, which can lag the scope join by a beat (DESIGN.md §9).
    // The release tally is bumped before the slot flag flips, so waiting
    // for the tallies to balance (and the gauge to drain) is event-driven,
    // the same idiom as `many_threads_churn_through_one_slot_pool`.
    let snap = loop {
        let snap = queue.telemetry_snapshot();
        if !turnq_telemetry::ENABLED
            || (snap.counter(CounterId::SlotRelease) == snap.counter(CounterId::SlotClaim)
                && snap.get("registry_registered") == 0)
        {
            break snap;
        }
        std::thread::yield_now();
    };
    if turnq_telemetry::ENABLED {
        assert_eq!(snap.counter(CounterId::SlotClaim), 12);
        assert_eq!(
            snap.counter(CounterId::SlotClaim),
            snap.counter(CounterId::SlotRelease)
        );
        assert_eq!(snap.get("registry_registered"), 0);
    } else {
        // Registry tallies are unconditional (they feed the churn test in
        // turnq-threadreg), but the snapshot path is feature-gated.
        assert_eq!(snap.counter(CounterId::SlotClaim), 0);
    }
}

/// When every op is timed, every completed op leaves exactly one
/// latency sample: enqueue samples partition `enq_ops`, dequeue samples
/// partition `deq_ops + deq_empty`, and every populated series has
/// well-formed quantiles. Probe-off builds record nothing.
fn assert_every_op_sampled(snap: &TelemetrySnapshot) {
    if turnq_telemetry::ENABLED {
        // Every enqueue exits through exactly one path class.
        assert_eq!(
            samples(snap, &ENQ_KEYS),
            snap.counter(CounterId::EnqOps),
            "enqueue latency samples must partition completed enqueues"
        );
        // Dequeues record a latency whether or not they found an item.
        assert_eq!(
            samples(snap, &DEQ_KEYS),
            snap.counter(CounterId::DeqOps) + snap.counter(CounterId::DeqEmpty),
            "dequeue latency samples must cover item and empty returns"
        );
        // Quantiles are well-formed on every populated series.
        for series in snap.latency_series() {
            if series.count() == 0 {
                continue;
            }
            let p50 = series.quantile(0.5).unwrap();
            let p999 = series.quantile(0.999).unwrap();
            assert!(series.min() <= p50 && p50 <= p999 && p999 <= series.max());
        }
    } else {
        assert_probe_off_latency_is_empty(snap);
    }
}

const ENQ_KEYS: [OpKey; 4] = [OpKey::EnqFast, OpKey::EnqSlow, OpKey::EnqHelped, OpKey::EnqSegCell];
const DEQ_KEYS: [OpKey; 4] = [OpKey::DeqFast, OpKey::DeqSlow, OpKey::DeqHelped, OpKey::DeqSegCell];

fn samples(snap: &TelemetrySnapshot, keys: &[OpKey]) -> u64 {
    keys.iter().map(|&k| snap.latency(k).count()).sum()
}

fn assert_probe_off_latency_is_empty(snap: &TelemetrySnapshot) {
    assert_eq!(snap.latency_count(), 0, "probe-off builds record nothing");
    for key in OpKey::ALL {
        assert_eq!(snap.latency(key).count(), 0);
        assert_eq!(snap.latency(key).quantile(0.5), None);
    }
}

/// Armed far above any real op latency, so the watchdog never fires;
/// arming it alone switches a queue to timing every op.
const UNREACHED_STALL_NS: u64 = 60_000_000_000;

#[test]
fn latency_samples_account_for_every_operation() {
    let queue = TurnQueueBuilder::new()
        .max_threads(THREADS + 1)
        .stall_threshold_ns(UNREACHED_STALL_NS)
        .build::<u64>();
    let _ = churn(&queue, THREADS);
    while queue.dequeue().is_some() {}
    assert_every_op_sampled(&queue.telemetry_snapshot());

    let seg = TurnQueueBuilder::new()
        .max_threads(3)
        .stall_threshold_ns(UNREACHED_STALL_NS)
        .build_seg::<u64>();
    assert_every_op_sampled(&churn_and_drain(&seg));

    // The ring has no watchdog; its builder takes the rate directly.
    let ring = BoundedBuilder::new()
        .max_threads(3)
        .latency_sample_log2(0)
        .build::<u64>();
    assert_every_op_sampled(&churn_and_drain(&ring));

    let sharded = ShardedBuilder::new()
        .max_threads(3)
        .stall_threshold_ns(UNREACHED_STALL_NS)
        .build::<u64>();
    assert_every_op_sampled(&churn_and_drain(&sharded));
}

/// 2 threads each run 2^15 enqueue-dequeue pairs (2^16 ops per thread)
/// and return the snapshot. A thread's dequeue always follows its own
/// enqueue, so no dequeue finds the queue empty.
fn pairs_snapshot<Q: ConcurrentQueue<u64> + QueueIntrospect>(queue: &Q) -> TelemetrySnapshot {
    const OPS_PER_THREAD: u64 = 1 << 16;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for i in 0..OPS_PER_THREAD / 2 {
                    queue.enqueue(i);
                    assert!(queue.dequeue().is_some());
                }
            });
        }
    });
    let snap = queue.telemetry_snapshot().expect("queue carries a telemetry sheet");
    if turnq_telemetry::ENABLED {
        assert_eq!(snap.counter(CounterId::EnqOps), OPS_PER_THREAD);
        assert_eq!(snap.counter(CounterId::DeqOps), OPS_PER_THREAD);
        assert_eq!(snap.counter(CounterId::DeqEmpty), 0);
    }
    snap
}

#[test]
fn default_rate_samples_one_op_in_sixty_four_and_keeps_counters_exact() {
    fn check(mode: &str, snap: &TelemetrySnapshot) {
        if !turnq_telemetry::ENABLED {
            assert_eq!(snap.counter(CounterId::EnqOps), 0);
            assert_probe_off_latency_is_empty(snap);
            return;
        }
        let ops = snap.counter(CounterId::EnqOps) + snap.counter(CounterId::DeqOps);
        let expected = ops >> turnq_telemetry::DEFAULT_LATENCY_SAMPLE_LOG2;
        let got = snap.latency_count();
        assert!(
            got > 0 && (expected / 2..=expected * 3 / 2).contains(&got),
            "{mode}: {got} latency samples for {ops} ops, expected about {expected}"
        );
    }
    let turn = TurnQueueBuilder::new().max_threads(2).build::<u64>();
    let snap = pairs_snapshot(&turn);
    if turnq_telemetry::ENABLED {
        // Depth records stay exact: one per completed transfer.
        assert_eq!(snap.helping_depth_count(), 2 << 16);
    }
    check("turn", &snap);
    check("seg", &pairs_snapshot(&TurnQueueBuilder::new().max_threads(2).build_seg::<u64>()));
    check("bounded", &pairs_snapshot(&BoundedBuilder::new().max_threads(2).build::<u64>()));
    check("sharded", &pairs_snapshot(&ShardedBuilder::new().max_threads(2).build::<u64>()));
    // The lock baseline samples at the same rate, from a thread-local
    // decision taken before its lock.
    check("mutex", &pairs_snapshot(&MutexQueue::with_max_threads(2)));
}

#[test]
fn seeded_stall_triggers_the_flight_recorder() {
    // Threshold of 1 ns + an injected 100 µs busy-wait: every operation
    // "stalls", so the flight recorder provably fires.
    let queue: TurnQueue<u64> = TurnQueue::<u64>::builder()
        .max_threads(2)
        .stall_threshold_ns(1)
        .inject_op_delay_for_tests(100_000)
        .build();
    queue.enqueue(7);
    assert_eq!(queue.dequeue(), Some(7));

    let snap = queue.telemetry_snapshot();
    let reports = queue.telemetry().take_stall_reports();
    if turnq_telemetry::ENABLED {
        assert!(
            snap.counter(CounterId::StallDump) >= 2,
            "both ops overran the threshold: {}",
            snap.counter(CounterId::StallDump)
        );
        assert!(!reports.is_empty(), "flight recorder must capture a dump");
        let report = &reports[0];
        assert!(report.contains("\"schema\":\"turnq-stall-report/1\""), "{report}");
        assert!(report.contains("\"latency_ns\":"), "{report}");
        assert!(report.contains("\"enq_open\":"), "{report}");
        // The stalled thread's event trail is part of the black box: the
        // first report is the enqueue's, so its trail ends at that op.
        assert!(report.contains("\"stalled_thread_events\":["), "{report}");
        assert!(report.contains("\"kind\":\"op_start\""), "{report}");
        assert!(report.contains("\"kind\":\"op_finish\""), "{report}");
        // Reports parse as JSON as far as our hand-rolled writer promises:
        // balanced braces, no trailing comma before a close.
        assert_eq!(
            report.matches('{').count(),
            report.matches('}').count(),
            "unbalanced braces: {report}"
        );
        assert!(!report.contains(",]") && !report.contains(",}"), "{report}");
    } else {
        assert_eq!(snap.counter(CounterId::StallDump), 0);
        assert!(reports.is_empty(), "probe-off builds never dump");
    }
}

#[test]
fn watchdog_off_by_default_records_no_dumps() {
    let queue: TurnQueue<u64> = TurnQueue::with_max_threads(2);
    for i in 0..100 {
        queue.enqueue(i);
    }
    while queue.dequeue().is_some() {}
    let snap = queue.telemetry_snapshot();
    assert_eq!(snap.counter(CounterId::StallDump), 0);
    assert!(queue.telemetry().take_stall_reports().is_empty());
}

#[test]
fn exporters_agree_with_the_snapshot() {
    let queue: TurnQueue<u64> = TurnQueue::with_max_threads(2);
    for i in 0..100 {
        queue.enqueue(i);
    }
    while queue.dequeue().is_some() {}
    let snap = queue.telemetry_snapshot();
    let prom = snap.to_prometheus();
    let json = snap.to_json();
    if turnq_telemetry::ENABLED {
        assert!(prom.contains("turnq_enq_ops_total 100"), "{prom}");
        assert!(json.contains("\"enq_ops\":100"), "{json}");
        // The histograms are exposed in proper cumulative Prometheus form:
        // every populated op/path series closes with an `le="+Inf"` bucket
        // matching its `_count`, and bucket values never decrease.
        assert!(prom.contains("# TYPE turnq_op_latency_ns histogram"), "{prom}");
        for series in snap.latency_series().iter().filter(|s| s.count() > 0) {
            let labels = format!(
                "op=\"{}\",path=\"{}\"",
                series.key().op(),
                series.key().path()
            );
            let inf = format!(
                "turnq_op_latency_ns_bucket{{{labels},le=\"+Inf\"}} {}",
                series.count()
            );
            assert!(prom.contains(&inf), "missing {inf} in:\n{prom}");
            let mut last = 0u64;
            for line in prom.lines().filter(|l| {
                l.starts_with("turnq_op_latency_ns_bucket") && l.contains(&labels)
            }) {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "non-cumulative bucket: {line}\n{prom}");
                last = v;
            }
            assert_eq!(last, series.count());
        }
        let depth_inf = format!(
            "turnq_helping_depth_bucket{{le=\"+Inf\"}} {}",
            snap.helping_depth_count()
        );
        assert!(prom.contains(&depth_inf), "{prom}");
    } else {
        assert!(prom.contains("turnq_enq_ops_total 0"));
        assert!(json.contains("\"enq_ops\":0"));
        assert!(!prom.contains("turnq_op_latency_ns_bucket"), "{prom}");
    }
}
