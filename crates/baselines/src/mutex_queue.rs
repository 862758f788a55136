//! The lock-based strawman: a `VecDeque` behind a mutex.
//!
//! §1.2 of the paper: "Lock-based queues are blocking, and even when
//! starvation free, it can happen that a thread grabs the lock and goes to
//! sleep, blocking other threads from enqueueing or dequeueing, thus
//! causing a fat tail in the latency distribution." This implementation
//! exists so the latency benches can show that tail.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use turnq_api::{ConcurrentQueue, Progress, QueueFamily, QueueIntrospect, QueueProps, SizeReport};
use turnq_telemetry::{
    CounterId, OpKey, OpTimer, TelemetrySheet, TelemetrySnapshot, DEFAULT_LATENCY_SAMPLE_LOG2,
};

/// A blocking MPMC queue: `parking_lot::Mutex<VecDeque<T>>`.
pub struct MutexQueue<T> {
    inner: Mutex<VecDeque<T>>,
    max_threads: usize,
    /// Op counters. The lock already serializes everything, so all bumps
    /// go to row 0: mutual exclusion makes single-writer trivially true.
    /// Latency is sampled at the default rate like every other queue, but
    /// the timer starts outside the lock, so the decision comes from
    /// [`OpTimer::start_sampled`]'s thread-local state rather than row 0's
    /// sampler: row 0 is written only under the lock.
    telemetry: Arc<TelemetrySheet>,
}

impl<T> MutexQueue<T> {
    /// The thread bound is advisory here (locks do not need per-thread
    /// state); it is kept so the harness treats all queues uniformly.
    pub fn with_max_threads(max_threads: usize) -> Self {
        MutexQueue {
            inner: Mutex::new(VecDeque::new()),
            max_threads,
            telemetry: Arc::new(TelemetrySheet::new(1)),
        }
    }

    /// Aggregate this queue's telemetry (op counters and the current
    /// queue-size gauge). All-zero with the feature off.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        // Keep the `probe`-off ⇒ all-zero contract.
        if turnq_telemetry::ENABLED {
            snap.set_gauge("queue_size", self.len() as u64);
        }
        snap
    }

    /// Blocking enqueue.
    pub fn enqueue(&self, item: T) {
        // The timer starts *before* the lock so the sample includes the
        // lock wait — that wait is exactly the fat tail this baseline
        // exists to show. Recording happens under the lock, which keeps
        // row 0 single-writer.
        let timer = OpTimer::start_sampled(DEFAULT_LATENCY_SAMPLE_LOG2);
        let mut q = self.inner.lock();
        q.push_back(item);
        self.telemetry.bump(0, CounterId::EnqOps);
        self.telemetry.record_op(0, OpKey::EnqSlow, &timer);
    }

    /// Blocking dequeue.
    pub fn dequeue(&self) -> Option<T> {
        let timer = OpTimer::start_sampled(DEFAULT_LATENCY_SAMPLE_LOG2);
        let mut q = self.inner.lock();
        let item = q.pop_front();
        self.telemetry.bump(
            0,
            if item.is_some() {
                CounterId::DeqOps
            } else {
                CounterId::DeqEmpty
            },
        );
        self.telemetry.record_op(0, OpKey::DeqSlow, &timer);
        item
    }

    /// Number of items currently queued (exact under the lock).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl<T: Send> ConcurrentQueue<T> for MutexQueue<T> {
    fn enqueue(&self, item: T) {
        MutexQueue::enqueue(self, item);
    }

    fn dequeue(&self) -> Option<T> {
        MutexQueue::dequeue(self)
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }
}

impl<T> QueueIntrospect for MutexQueue<T> {
    fn props() -> QueueProps {
        QueueProps {
            name: "Mutex",
            progress_enqueue: Progress::Blocking,
            progress_dequeue: Progress::Blocking,
            consensus: "mutual exclusion",
            atomic_instructions: "CAS (lock impl.)",
            reclamation: "owned buffer",
            min_memory: "O(1)",
        }
    }

    fn size_report() -> SizeReport {
        SizeReport {
            node_bytes: std::mem::size_of::<Box<u64>>(), // slot in the ring
            enqueue_request_bytes: 0,
            dequeue_request_bytes: 0,
            fixed_per_thread_bytes: 0,
            // Amortized zero: VecDeque reallocates geometrically.
            min_heap_allocs_per_item: 0,
            steady_state_allocs_per_item: 0,
        }
    }

    fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        Some(MutexQueue::telemetry_snapshot(self))
    }
}

/// [`QueueFamily`] selector for the mutex queue.
pub struct MutexFamily;

impl QueueFamily for MutexFamily {
    type Queue<T: Send + 'static> = MutexQueue<T>;
    const NAME: &'static str = "mutex";

    fn with_max_threads<T: Send + 'static>(max_threads: usize) -> MutexQueue<T> {
        MutexQueue::with_max_threads(max_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_empty() {
        let q: MutexQueue<u32> = MutexQueue::with_max_threads(4);
        assert!(q.is_empty());
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn concurrent_delivery() {
        const N: u64 = 10_000;
        let q: Arc<MutexQueue<u64>> = Arc::new(MutexQueue::with_max_threads(2));
        let qp = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                qp.enqueue(i);
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = q.dequeue() {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }
}
