//! The three closed-loop workloads and the timed window that runs one of
//! them on one queue: build, spawn, claim, warm up (set-up), then measure
//! until the window closes, then check every item.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::alloc;
use crate::check::{self, Received, Sent};
use crate::ledger::Tally;
use crate::queues::{Client, Mode, Queue};
use crate::sync::Barrier;
use crate::trace::{Span, SpanIds};

/// Worker threads per window (the host has two hardware threads).
pub const THREADS: usize = 2;
/// One call in `SAMPLE_EVERY` is timed, on average (a power of two).
pub const SAMPLE_EVERY: u64 = 32;
/// Latency samples kept per worker and window; later samples overwrite
/// the oldest.
pub const SAMPLE_CAP: usize = 1 << 19;
/// Call spans kept per worker and window in a traced run.
pub const SPAN_CAP: usize = 256;
/// Most items the handoff producer keeps in flight (below the bounded
/// ring's default capacity of 1024, so `Full` is a failure).
pub const HANDOFF_IN_FLIGHT: u64 = 512;
/// Largest handoff burst.
pub const HANDOFF_MAX_BURST: u64 = 64;

const DEQ_BIT: u32 = 1 << 31;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pairs,
    Backlog,
    Handoff,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pairs" => Some(Workload::Pairs),
            "backlog" => Some(Workload::Backlog),
            "handoff" => Some(Workload::Handoff),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs => "pairs",
            Workload::Backlog => "backlog",
            Workload::Handoff => "handoff",
        }
    }
}

/// How one window is driven.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub mode: Mode,
    pub window: Duration,
    /// Items each thread enqueues per backlog cycle.
    pub burst: u64,
    pub seed: u64,
    pub salt: u64,
    pub traced: bool,
}

impl Plan {
    /// Warm-up length: operations per thread, or whole backlog cycles
    /// (one full cycle grows the heap to its peak, so the timed cycles
    /// measure the steady state rather than first-touch page faults).
    fn warmup_ops(&self) -> u64 {
        match self.workload {
            Workload::Pairs | Workload::Handoff => 20_000,
            Workload::Backlog => 1,
        }
    }
}

/// One worker's state. Allocated once per run, before any heap baseline,
/// and reused by every window.
pub struct Local {
    thread: usize,
    samples: Vec<u32>,
    seen: u64,
    pub spans: Vec<Span>,
    ids: SpanIds,
    phase: u64,
    epoch: Instant,
    sampling: bool,
    traced: bool,
    /// Time empty-dequeue streaks (traced pairs and handoff runs).
    track_idle: bool,
    tick: u64,
    pub enq: u64,
    pub deq: u64,
    pub empty: u64,
    pub full: u64,
    pub registry_full: u64,
    pub wait_ns: u64,
    pub idle_ns: u64,
    pub enq_phase_ns: u64,
    pub deq_phase_ns: u64,
    pub max_in_flight: u64,
    idle_since: Option<Instant>,
    pub sent: Sent,
    pub recv: Received,
}

impl Local {
    pub fn new(thread: usize, epoch: Instant) -> Self {
        Local {
            thread,
            samples: Vec::with_capacity(SAMPLE_CAP),
            seen: 0,
            spans: Vec::with_capacity(SPAN_CAP),
            ids: SpanIds::default(),
            phase: 0,
            epoch,
            sampling: false,
            traced: false,
            track_idle: false,
            tick: 0,
            enq: 0,
            deq: 0,
            empty: 0,
            full: 0,
            registry_full: 0,
            wait_ns: 0,
            idle_ns: 0,
            enq_phase_ns: 0,
            deq_phase_ns: 0,
            max_in_flight: 0,
            idle_since: None,
            sent: Sent::new(thread, 0),
            recv: Received::new(0),
        }
    }

    fn reset(&mut self, plan: &Plan, ids: SpanIds) {
        self.samples.clear();
        self.spans.clear();
        self.seen = 0;
        self.ids = ids;
        self.sampling = false;
        self.traced = plan.traced;
        self.track_idle = plan.traced && plan.workload != Workload::Backlog;
        self.tick = plan.seed ^ self.thread as u64;
        self.full = 0;
        self.registry_full = 0;
        self.sent = Sent::new(self.thread, plan.salt);
        self.recv = Received::new(plan.salt);
        self.max_in_flight = 0;
        self.start_window();
        self.phase = 0;
    }

    /// Zero the window counters (called when the timed window opens).
    fn start_window(&mut self) {
        self.enq = 0;
        self.deq = 0;
        self.empty = 0;
        self.wait_ns = 0;
        self.idle_ns = 0;
        self.enq_phase_ns = 0;
        self.deq_phase_ns = 0;
        self.idle_since = None;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a phase span; call spans recorded until the next phase name it
    /// as their parent.
    fn open_phase(&mut self) -> (u64, Instant) {
        self.phase = self.ids.next();
        (self.phase, Instant::now())
    }

    fn close_phase(&mut self, id: u64, name: &'static str, start: Instant, mode: Mode) {
        if self.traced && self.sampling && self.spans.len() < SPAN_CAP {
            let parent = self.ids.window;
            let start_ns = self.ns(start);
            self.spans.push(Span {
                id,
                parent,
                name,
                mode,
                thread: self.thread as u8,
                start_ns,
                dur_ns: start.elapsed().as_nanos() as u64,
            });
        }
    }

    #[inline(always)]
    fn sample_now(&mut self) -> Option<Instant> {
        if !self.sampling {
            return None;
        }
        // An LCG step, sampled on its top bits: a fixed stride would alias
        // with the workloads' alternating enqueue/dequeue calls.
        self.tick = self
            .tick
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if self.tick >> (64 - SAMPLE_EVERY.trailing_zeros()) == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[cold]
    fn record(&mut self, t0: Instant, deq: bool, mode: Mode) {
        let dur = t0.elapsed().as_nanos().min(u128::from(DEQ_BIT - 1)) as u32;
        let v = if deq { dur | DEQ_BIT } else { dur };
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(v);
        } else {
            self.samples[(self.seen % SAMPLE_CAP as u64) as usize] = v;
        }
        self.seen += 1;
        if self.traced && self.spans.len() < SPAN_CAP {
            let id = self.ids.next();
            let start_ns = self.ns(t0);
            self.spans.push(Span {
                id,
                parent: self.phase,
                name: if deq { "dequeue" } else { "enqueue" },
                mode,
                thread: self.thread as u8,
                start_ns,
                dur_ns: u64::from(dur),
            });
        }
    }

    /// Enqueue the next item; `false` on a `Full` verdict (a failure).
    #[inline(always)]
    fn enq<C: Client>(&mut self, c: &mut C, mode: Mode) -> bool {
        let t0 = self.sample_now();
        let r = c.enq(self.sent.peek());
        if let Some(t0) = t0 {
            self.record(t0, false, mode);
        }
        match r {
            Ok(()) => {
                self.sent.commit();
                self.enq += 1;
                true
            }
            Err(_) => {
                self.full += 1;
                false
            }
        }
    }

    /// Dequeue once; `false` when the queue answered empty.
    #[inline(always)]
    fn deq<C: Client>(&mut self, c: &mut C, mode: Mode) -> bool {
        let t0 = self.sample_now();
        match c.deq() {
            Some(v) => {
                if let Some(t0) = t0 {
                    self.record(t0, true, mode);
                }
                self.recv.take(v);
                self.deq += 1;
                if let Some(since) = self.idle_since.take() {
                    self.idle_ns += since.elapsed().as_nanos() as u64;
                }
                true
            }
            None => {
                self.empty += 1;
                if self.track_idle && self.sampling && self.idle_since.is_none() {
                    self.idle_since = Some(Instant::now());
                }
                false
            }
        }
    }
}

/// What the workers share besides the queue.
struct Shared {
    claimed: Barrier,
    /// Some worker could not claim a registry slot.
    unclaimed: AtomicBool,
    start: Barrier,
    cycle: Barrier,
    stop: AtomicBool,
    go_on: AtomicBool,
    /// Handoff: items the consumer has taken (since the queue was built).
    consumed: AtomicU64,
    /// Handoff: items the producer sent in the current phase, once it has
    /// stopped; `u64::MAX` while it is still sending.
    target: AtomicU64,
}

/// Quantiles (ns) of one window's latency samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Calls timed (enqueues and item-returning dequeues).
    pub samples: u64,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
    pub enq_p99: f64,
    pub deq_p99: f64,
}

/// Everything one window measured.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub build: Duration,
    pub warmup: Duration,
    pub elapsed: Duration,
    pub enq: u64,
    pub deq: u64,
    pub empty: u64,
    /// Every call attempted in the window and its warm-up.
    pub attempted: u64,
    /// Lost, duplicated or reordered items, `Full` verdicts and registry
    /// failures.
    pub failed: u64,
    pub heap_peak: u64,
    pub allocs: u64,
    pub peak_items: u64,
    pub enq_phase_s: f64,
    pub deq_phase_s: f64,
    pub producer_wait_s: f64,
    pub consumer_idle_s: f64,
    /// Latency quantiles of the sampled calls.
    pub lat: Latency,
    /// Traced runs only: counters at the window's open and close.
    pub before: Tally,
    pub after: Tally,
    pub backlog_max: u64,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.enq + self.deq
    }

    pub fn mops(&self) -> f64 {
        self.ops() as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Thread-nanoseconds per completed operation.
    pub fn ns_per_op(&self) -> f64 {
        self.elapsed.as_nanos() as f64 * THREADS as f64 / self.ops().max(1) as f64
    }
}

/// Run one window of `plan` on the queue `build` makes.
pub fn run<Q: Queue>(
    plan: &Plan,
    locals: &mut [Local],
    sort_buf: &mut Vec<u32>,
    ids: [SpanIds; THREADS],
    build: impl FnOnce() -> Q,
) -> Window {
    let base = alloc::reset_peak();
    let t0 = Instant::now();
    let q = build();
    let build_t = t0.elapsed();
    for (l, ids) in locals.iter_mut().zip(ids) {
        l.reset(plan, ids);
    }
    let shared = Shared {
        claimed: Barrier::new(THREADS),
        unclaimed: AtomicBool::new(false),
        start: Barrier::new(THREADS + 1),
        cycle: Barrier::new(THREADS),
        stop: AtomicBool::new(false),
        go_on: AtomicBool::new(true),
        consumed: AtomicU64::new(0),
        target: AtomicU64::new(u64::MAX),
    };
    let mut w = Window {
        build: build_t,
        ..Window::default()
    };
    let mut mark = 0;
    let mut start = t0;
    std::thread::scope(|s| {
        for l in locals.iter_mut() {
            let (q, shared) = (&q, &shared);
            s.spawn(move || worker(plan, q, shared, l));
        }
        shared.start.wait(true);
        w.warmup = t0.elapsed() - build_t;
        if plan.traced {
            w.before = crate::ledger::tally(&q);
        }
        mark = alloc::allocs();
        shared.start.wait(true);
        start = Instant::now();
        let end = start + plan.window;
        if plan.traced {
            // Poll the reclamation backlog gauge while the window runs.
            while Instant::now() < end {
                std::thread::sleep(Duration::from_millis(5));
                let t = crate::ledger::tally(&q);
                w.backlog_max = w.backlog_max.max(t.backlog());
            }
        } else {
            std::thread::sleep(plan.window);
        }
        shared.stop.store(true, Ordering::Relaxed);
    });
    w.elapsed = start.elapsed();
    let after = alloc::allocs();
    w.allocs = after - mark;
    if plan.traced {
        w.after = crate::ledger::tally(&q);
    }
    drop(q);
    w.heap_peak = alloc::peak_since(base);

    let sent: Vec<Sent> = locals.iter().map(|l| l.sent).collect();
    let recv: Vec<Received> = locals.iter().map(|l| l.recv).collect();
    w.failed = check::audit(&sent, &recv);
    for l in locals.iter() {
        w.enq += l.enq;
        w.deq += l.deq;
        w.empty += l.empty;
        w.failed += l.full + l.registry_full;
        w.attempted += l.sent.next + l.full + l.recv.total();
        w.lat.samples += l.seen;
        w.peak_items = w.peak_items.max(l.max_in_flight);
        w.enq_phase_s += l.enq_phase_ns as f64 / 1e9 / THREADS as f64;
        w.deq_phase_s += l.deq_phase_ns as f64 / 1e9 / THREADS as f64;
    }
    match plan.workload {
        Workload::Pairs => {
            w.peak_items = THREADS as u64;
            w.enq_phase_s = w.elapsed.as_secs_f64();
            w.deq_phase_s = w.elapsed.as_secs_f64();
            w.consumer_idle_s = mean(locals.iter().map(|l| l.idle_ns));
        }
        Workload::Backlog => {
            w.peak_items = THREADS as u64 * plan.burst;
            w.producer_wait_s = mean(locals.iter().map(|l| l.wait_ns));
            w.consumer_idle_s = mean(locals.iter().map(|l| l.idle_ns));
        }
        Workload::Handoff => {
            w.enq_phase_s = w.elapsed.as_secs_f64();
            w.deq_phase_s = w.elapsed.as_secs_f64();
            w.producer_wait_s = locals[0].wait_ns as f64 / 1e9;
            w.consumer_idle_s = locals[1].idle_ns as f64 / 1e9;
        }
    }
    fill(sort_buf, locals, |_| true);
    w.lat.p50 = quantile(sort_buf, 0.5, 0.005);
    w.lat.p99 = quantile(sort_buf, 0.99, 0.001);
    w.lat.p999 = quantile(sort_buf, 0.999, 0.0002);
    w.lat.max = sort_buf.last().copied().unwrap_or(0) as f64;
    fill(sort_buf, locals, |v| v & DEQ_BIT == 0);
    w.lat.enq_p99 = quantile(sort_buf, 0.99, 0.001);
    fill(sort_buf, locals, |v| v & DEQ_BIT != 0);
    w.lat.deq_p99 = quantile(sort_buf, 0.99, 0.001);
    w
}

/// Collect the workers' samples that `keep` selects into `sort_buf`, as
/// sorted latencies.
fn fill(sort_buf: &mut Vec<u32>, locals: &[Local], keep: impl Fn(u32) -> bool) {
    sort_buf.clear();
    for l in locals {
        sort_buf.extend(
            l.samples
                .iter()
                .filter(|&&v| keep(v))
                .map(|&v| v & !DEQ_BIT),
        );
    }
    sort_buf.sort_unstable();
}

/// The `q` quantile of sorted `xs`, smoothed: the mean of the samples
/// ranked within `band` of `q` (at least one), which steadies a tail
/// quantile and keeps it from snapping to one integer sample.
pub fn quantile(xs: &[u32], q: f64, band: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let last = xs.len() - 1;
    let rank = |p: f64| ((p.clamp(0.0, 1.0) * last as f64).round() as usize).min(last);
    let (lo, hi) = (rank(q - band), rank(q + band));
    let sum: u64 = xs[lo..=hi].iter().map(|&v| u64::from(v)).sum();
    sum as f64 / (hi - lo + 1) as f64
}

fn mean(ns: impl Iterator<Item = u64>) -> f64 {
    ns.sum::<u64>() as f64 / 1e9 / THREADS as f64
}

fn worker<Q: Queue>(plan: &Plan, q: &Q, shared: &Shared, l: &mut Local) {
    let client = q.client();
    if client.is_err() {
        l.registry_full += 1;
        shared.unclaimed.store(true, Ordering::Relaxed);
    }
    // Every worker drives, or none does: the protocols would wait for ever
    // for a party that never came.
    shared.claimed.wait(false);
    let mut client = client
        .ok()
        .filter(|_| !shared.unclaimed.load(Ordering::Relaxed));
    // Warm-up: the same protocol, untimed and bounded by a fixed count.
    if let Some(c) = client.as_mut() {
        drive(plan, c, shared, l, plan.warmup_ops(), plan.burst);
    }
    shared.start.wait(false);
    if plan.workload == Workload::Handoff {
        shared.target.store(u64::MAX, Ordering::Relaxed);
    }
    shared.go_on.store(true, Ordering::Relaxed);
    l.start_window();
    l.sampling = true;
    shared.start.wait(false);
    let (phase, t) = l.open_phase();
    if let Some(c) = client.as_mut() {
        drive(plan, c, shared, l, u64::MAX, plan.burst);
    }
    if plan.workload != Workload::Backlog {
        l.close_phase(phase, "window", t, plan.mode);
    }
    l.sampling = false;
}

fn drive<C: Client>(
    plan: &Plan,
    c: &mut C,
    shared: &Shared,
    l: &mut Local,
    limit: u64,
    burst: u64,
) {
    match plan.workload {
        Workload::Pairs => pairs(plan.mode, c, shared, l, limit),
        Workload::Backlog => backlog(plan.mode, c, shared, l, limit, burst),
        Workload::Handoff if l.thread == 0 => {
            produce(plan, c, shared, l, limit);
        }
        Workload::Handoff => consume(plan.mode, c, shared, l),
    }
}

/// How long a wait may go without progress. Only a faulty queue (one that
/// lost an item) stalls a wait that long; giving up lets the audit count
/// what is missing instead of hanging.
const STALL: Duration = Duration::from_secs(1);

/// Watches one wait for a [`STALL`].
#[derive(Default)]
struct Patience {
    spins: u32,
    since: Option<Instant>,
}

impl Patience {
    fn exhausted(&mut self) -> bool {
        self.spins = self.spins.wrapping_add(1);
        if !self.spins.is_multiple_of(1024) {
            return false;
        }
        self.since.get_or_insert_with(Instant::now).elapsed() > STALL
    }
}

/// Each thread repeats "enqueue one, dequeue one" (paper Fig. 2).
fn pairs<C: Client>(mode: Mode, c: &mut C, shared: &Shared, l: &mut Local, limit: u64) {
    let mut i = 0;
    while i < limit && !shared.stop.load(Ordering::Relaxed) {
        if !l.enq(c, mode) {
            return;
        }
        // A linearizable queue never answers empty here (every dequeue
        // follows its own thread's enqueue); the checks only bound the
        // wait when a faulty queue lost the item.
        let mut patience = Patience::default();
        while !l.deq(c, mode) {
            if shared.stop.load(Ordering::Relaxed) || patience.exhausted() {
                return;
            }
        }
        i += 1;
    }
}

/// Both threads enqueue a burst, then dequeue until the queue is empty,
/// repeated (paper Fig. 3). The cycle ends at a barrier whose last
/// arriver decides, for both, whether another cycle runs.
fn backlog<C: Client>(
    mode: Mode,
    c: &mut C,
    shared: &Shared,
    l: &mut Local,
    cycles: u64,
    burst: u64,
) {
    let mut done = 0;
    loop {
        let (id, t) = l.open_phase();
        for _ in 0..burst {
            if !l.enq(c, mode) {
                break;
            }
        }
        l.enq_phase_ns += t.elapsed().as_nanos() as u64;
        l.close_phase(id, "enq_phase", t, mode);
        let w = Instant::now();
        shared.cycle.wait(false);
        l.wait_ns += w.elapsed().as_nanos() as u64;

        let (id, t) = l.open_phase();
        while l.deq(c, mode) {}
        l.deq_phase_ns += t.elapsed().as_nanos() as u64;
        l.close_phase(id, "deq_phase", t, mode);
        done += 1;
        let w = Instant::now();
        shared.cycle.wait_then(false, || {
            let more = done < cycles && !shared.stop.load(Ordering::Relaxed);
            shared.go_on.store(more, Ordering::Relaxed);
        });
        l.idle_ns += w.elapsed().as_nanos() as u64;
        if !shared.go_on.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Handoff producer: seeded bursts of 1–64 items, never more than
/// [`HANDOFF_IN_FLIGHT`] unconsumed; it yields while it waits for room.
fn produce<C: Client>(plan: &Plan, c: &mut C, shared: &Shared, l: &mut Local, limit: u64) {
    let mut rng = crate::Rng::new(plan.seed ^ l.sent.next);
    let first = l.sent.next;
    // Saturating: a queue that duplicates items lets the consumer count
    // past what was sent; the audit reports that.
    // Acquire pairs with the consumer's Release of `consumed`.
    let in_flight = |sent: u64| sent.saturating_sub(shared.consumed.load(Ordering::Acquire));
    'run: while l.sent.next - first < limit && !shared.stop.load(Ordering::Relaxed) {
        let burst = 1 + rng.below(HANDOFF_MAX_BURST);
        if in_flight(l.sent.next) + burst > HANDOFF_IN_FLIGHT {
            let w = Instant::now();
            let mut patience = Patience::default();
            while in_flight(l.sent.next) + burst > HANDOFF_IN_FLIGHT {
                if shared.stop.load(Ordering::Relaxed) || patience.exhausted() {
                    break 'run;
                }
                std::thread::yield_now();
            }
            l.wait_ns += w.elapsed().as_nanos() as u64;
        }
        for _ in 0..burst {
            if !l.enq(c, plan.mode) {
                break 'run;
            }
        }
        l.max_in_flight = l.max_in_flight.max(in_flight(l.sent.next));
    }
    // Release pairs with the consumer's Acquire of `target`.
    shared.target.store(l.sent.next, Ordering::Release);
}

/// Handoff consumer: dequeue until the producer has stopped and every
/// item it sent has arrived. Like the examples' consumers, it yields the
/// processor when the queue answers empty.
fn consume<C: Client>(mode: Mode, c: &mut C, shared: &Shared, l: &mut Local) {
    let mut got = shared.consumed.load(Ordering::Relaxed);
    let mut patience = Patience::default();
    loop {
        if l.deq(c, mode) {
            got += 1;
            shared.consumed.store(got, Ordering::Release);
            patience = Patience::default();
            continue;
        }
        let target = shared.target.load(Ordering::Acquire);
        if got >= target || (target != u64::MAX && patience.exhausted()) {
            return;
        }
        std::thread::yield_now();
    }
}
