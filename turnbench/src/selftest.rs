//! The gate must fail a queue that drops, duplicates or reorders one item
//! in N, on every workload, and pass the real queues.

use std::time::Duration;

use turnq_repro::threadreg::RegistryFull;

use crate::queues::{build_turn, Client, Counters, Knob, Mode, Queue};
use crate::trace::SpanIds;
use crate::workload::{self, Local, Plan, Workload, SAMPLE_CAP, THREADS};

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Every Nth enqueue is acknowledged but never inserted.
    Drop,
    /// Every Nth enqueue inserts the item twice.
    Duplicate,
    /// Every Nth enqueue is held back and inserted after the next one.
    Reorder,
}

struct Faulty<Q> {
    inner: Q,
    fault: Fault,
    every: u64,
}

struct FaultyClient<C> {
    inner: C,
    fault: Fault,
    every: u64,
    calls: u64,
    held: Option<u64>,
}

impl<C: Client> Client for FaultyClient<C> {
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.calls += 1;
        let hit = self.calls.is_multiple_of(self.every);
        if let Some(h) = self.held.take() {
            self.inner.enq(v)?;
            return self.inner.enq(h);
        }
        match self.fault {
            Fault::Drop if hit => Ok(()),
            Fault::Duplicate if hit => {
                self.inner.enq(v)?;
                self.inner.enq(v)
            }
            Fault::Reorder if hit => {
                self.held = Some(v);
                Ok(())
            }
            _ => self.inner.enq(v),
        }
    }

    fn deq(&mut self) -> Option<u64> {
        self.inner.deq()
    }
}

impl<Q: Queue> Queue for Faulty<Q> {
    type Client<'a>
        = FaultyClient<Q::Client<'a>>
    where
        Self: 'a;

    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        Ok(FaultyClient {
            inner: self.inner.client()?,
            fault: self.fault,
            every: self.every,
            calls: 0,
            held: None,
        })
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}

fn plan(workload: Workload) -> Plan {
    Plan {
        workload,
        mode: Mode::Turn,
        window: Duration::from_millis(40),
        burst: 1 << 10,
        seed: 5,
        salt: 9,
        traced: false,
    }
}

fn locals() -> (Vec<Local>, Vec<u32>) {
    let epoch = std::time::Instant::now();
    (
        (0..THREADS).map(|t| Local::new(t, epoch)).collect(),
        Vec::with_capacity(THREADS * SAMPLE_CAP),
    )
}

fn ids() -> [SpanIds; THREADS] {
    [SpanIds::new(1, 0), SpanIds::new(1, 1)]
}

#[test]
fn real_queue_passes_every_workload() {
    let (mut ls, mut sort_buf) = locals();
    for wl in [Workload::Pairs, Workload::Backlog, Workload::Handoff] {
        let w = workload::run(&plan(wl), &mut ls, &mut sort_buf, ids(), || {
            build_turn(Knob::Default)
        });
        assert_eq!(w.failed, 0, "{wl:?}");
        assert!(w.ops() > 0 && w.attempted >= w.ops(), "{wl:?}");
        assert!(w.lat.samples > 0, "{wl:?}");
    }
}

#[test]
fn faulty_queue_fails_every_workload() {
    let (mut ls, mut sort_buf) = locals();
    for wl in [Workload::Pairs, Workload::Backlog, Workload::Handoff] {
        for fault in [Fault::Drop, Fault::Duplicate, Fault::Reorder] {
            let w = workload::run(&plan(wl), &mut ls, &mut sort_buf, ids(), || Faulty {
                inner: build_turn(Knob::Default),
                fault,
                every: 1000,
            });
            assert!(w.failed > 0, "{wl:?} with {fault:?} passed the gate");
        }
    }
}
