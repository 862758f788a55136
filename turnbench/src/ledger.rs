//! The per-layer ledger of a traced run. Every figure is measured from
//! outside the layer: counters read through the queues' public
//! `telemetry_snapshot()`/`pool_stats()`, calls into a layer's public
//! functions timed here, knob deltas between builds of one mode, and the
//! benchmark's own allocator.

use std::hint::black_box;
use std::time::Instant;

use turnq_repro::api::PoolStats;
use turnq_repro::hazard::HazardPointers;
use turnq_repro::telemetry::{CounterId, OpKey, OpTimer, TelemetrySheet, N_COUNTERS};
use turnq_repro::threadreg::ThreadRegistry;

use crate::queues::{Knob, Mode, Queue};
use crate::workload::{Window, SAMPLE_EVERY};
use crate::{median, Metric};

/// Counters of one queue at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    counters: [u64; N_COUNTERS],
    /// Telemetry records taken: counter bumps, latency records and
    /// helping-depth records.
    records: u64,
    depth_max: u64,
    backlog: u64,
    claims: u64,
    pool: PoolStats,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            counters: [0; N_COUNTERS],
            records: 0,
            depth_max: 0,
            backlog: 0,
            claims: 0,
            pool: PoolStats::default(),
        }
    }
}

impl Tally {
    pub fn backlog(&self) -> u64 {
        self.backlog
    }
}

/// Read `q`'s counters. The snapshot's own allocations are left out of
/// the allocator counts.
pub fn tally<Q: Queue>(q: &Q) -> Tally {
    crate::alloc::uncounted(|| {
        let k = q.counters();
        let t = &k.telemetry;
        let counters = CounterId::ALL.map(|id| t.counter(id));
        Tally {
            counters,
            records: counters.iter().sum::<u64>() + t.latency_count() + t.helping_depth_count(),
            depth_max: t.helping_depth_max().unwrap_or(0) as u64,
            backlog: t.get("hp_retired_backlog"),
            claims: t.get("slot_claim"),
            pool: k.pool.unwrap_or_default(),
        }
    })
}

/// Counter growth over one window.
fn delta(w: &Window, id: CounterId) -> f64 {
    let i = id as usize;
    w.after.counters[i].saturating_sub(w.before.counters[i]) as f64
}

/// Ratio of two window sums, 0 when the denominator is.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Standalone timings of single public calls, in ns per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Standalone {
    pub clock_ns: f64,
    pub lookup_ns: f64,
    pub probe_ns: f64,
    pub protect_ns: f64,
    pub retire_ns: f64,
}

/// Median over `reps` repetitions of the per-iteration time of `body`.
fn per_call(iters: u64, reps: usize, mut body: impl FnMut(u64)) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                body(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut v)
}

pub fn standalone() -> Standalone {
    const N: u64 = 200_000;
    const REPS: usize = 5;
    let clock_ns = per_call(N, REPS, |_| {
        black_box(Instant::now());
    });

    let registry = ThreadRegistry::new(4);
    let lookup_ns = per_call(N, REPS, |_| {
        black_box(registry.current_index());
    });

    // The sequence one completed operation pays in the telemetry layer.
    let sheet = TelemetrySheet::new(4);
    let probe_ns = per_call(N, REPS, |_| {
        let timer = OpTimer::start();
        sheet.bump(0, CounterId::EnqOps);
        sheet.record_latency(0, OpKey::EnqFast, timer.nanos());
    });

    let hp: HazardPointers<u64> = HazardPointers::new(4, 2);
    let mut slot = 0u64;
    let target: *mut u64 = &mut slot;
    let protect_ns = per_call(N, REPS, |_| {
        black_box(hp.protect_ptr(0, 0, black_box(target)));
        hp.clear(0);
    });

    // Retire with R = 0: every call scans and frees the node it retired.
    const RETIRES: usize = 20_000;
    let mut retire = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let nodes: Vec<*mut u64> = (0..RETIRES as u64)
            .map(|i| Box::into_raw(Box::new(i)))
            .collect();
        let t = Instant::now();
        for &p in &nodes {
            // SAFETY: `p` came from `Box::into_raw` just above, is retired
            // exactly once, is reachable by no other thread, and thread
            // index 0 is used by this thread alone.
            unsafe { hp.retire(0, p) };
        }
        retire.push(t.elapsed().as_nanos() as f64 / RETIRES as f64);
    }
    Standalone {
        clock_ns,
        lookup_ns,
        probe_ns,
        protect_ns,
        retire_ns: median(&mut retire),
    }
}

/// The windows one mode ran in a traced run.
pub struct ModeRuns<'a> {
    pub mode: Mode,
    /// Builder defaults, tracing off.
    pub plain: Vec<&'a Window>,
    /// Builder defaults, tracing on.
    pub traced: Vec<&'a Window>,
    /// Knob variants, tracing off.
    pub knobs: Vec<(Knob, &'a Window)>,
}

impl ModeRuns<'_> {
    fn med(ws: &[&Window], f: impl Fn(&Window) -> f64) -> f64 {
        let mut v: Vec<f64> = ws.iter().map(|w| f(w)).collect();
        median(&mut v)
    }

    fn traced_med(&self, f: impl Fn(&Window) -> f64) -> f64 {
        Self::med(&self.traced, f)
    }

    /// Sum of `f` over the traced windows.
    fn sum(&self, f: impl Fn(&Window) -> f64) -> f64 {
        self.traced.iter().map(|w| f(w)).sum()
    }

    fn count(&self, ids: &[CounterId]) -> f64 {
        self.sum(|w| ids.iter().map(|&id| delta(w, id)).sum())
    }

    fn ops(&self) -> f64 {
        self.sum(|w| w.ops() as f64)
    }

    fn enqs(&self) -> f64 {
        self.sum(|w| w.enq as f64)
    }

    /// Per-op time under `knob` minus per-op time with the defaults, in
    /// thread-ns per operation (positive: the layer the knob removes
    /// saves that much).
    fn saving_ns(&self, knob: Knob) -> f64 {
        let with: Vec<&Window> = self
            .knobs
            .iter()
            .filter(|(k, _)| *k == knob)
            .map(|(_, w)| *w)
            .collect();
        Self::med(&with, Window::ns_per_op) - Self::med(&self.plain, Window::ns_per_op)
    }
}

/// Every per-layer metric of one traced run, in declaration order.
pub fn per_layer(runs: &[ModeRuns], s: &Standalone) -> Vec<Metric> {
    use CounterId as C;
    let mut out = Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };
    put("threadreg.lookup_ns".into(), s.lookup_ns, "ns");
    put("telemetry.probe_ns".into(), s.probe_ns, "ns");
    put("telemetry.clock_ns".into(), s.clock_ns, "ns");
    put("hazard.protect_ns".into(), s.protect_ns, "ns");
    put("hazard.retire_ns".into(), s.retire_ns, "ns");
    put(
        "bench.sample_rate".into(),
        1.0 / SAMPLE_EVERY as f64,
        "ratio",
    );

    for r in runs {
        let m = r.mode.name();
        let name = |metric: &str| format!("{m}.{metric}");
        let mops_plain = ModeRuns::med(&r.plain, Window::mops);
        let mops_traced = r.traced_med(Window::mops);
        put(
            name("trace.overhead_pct"),
            100.0 * ratio(mops_plain - mops_traced, mops_plain),
            "%",
        );

        put(
            name("queue.enq_p99_ns"),
            r.traced_med(|w| w.lat.enq_p99),
            "ns",
        );
        put(
            name("queue.deq_p99_ns"),
            r.traced_med(|w| w.lat.deq_p99),
            "ns",
        );
        put(name("queue.op_p999_ns"), r.traced_med(|w| w.lat.p999), "ns");
        put(
            name("queue.samples"),
            r.sum(|w| w.lat.samples as f64),
            "count",
        );
        put(
            name("queue.deq_empty_share"),
            ratio(
                r.sum(|w| w.empty as f64),
                r.sum(|w| (w.empty + w.deq) as f64),
            ),
            "ratio",
        );

        put(
            name("phase.enq_mops"),
            r.traced_med(|w| ratio(w.enq as f64, w.enq_phase_s) / 1e6),
            "Mops/s",
        );
        put(
            name("phase.deq_mops"),
            r.traced_med(|w| ratio(w.deq as f64, w.deq_phase_s) / 1e6),
            "Mops/s",
        );
        put(
            name("phase.producer_wait_share"),
            r.traced_med(|w| w.producer_wait_s / w.elapsed.as_secs_f64()),
            "ratio",
        );
        put(
            name("phase.consumer_idle_share"),
            r.traced_med(|w| w.consumer_idle_s / w.elapsed.as_secs_f64()),
            "ratio",
        );

        put(
            name("threadreg.claims"),
            r.traced_med(|w| w.after.claims as f64),
            "count",
        );
        if matches!(r.mode, Mode::Turn | Mode::Seg) {
            put(
                name("threadreg.handle_saving_ns"),
                -r.saving_ns(Knob::Handle),
                "ns",
            );
        }
        put(
            name("telemetry.records_per_op"),
            ratio(
                r.sum(|w| w.after.records.saturating_sub(w.before.records) as f64),
                r.ops(),
            ),
            "1/op",
        );

        if matches!(r.mode, Mode::Turn | Mode::Seg) {
            let hits = r.count(&[C::FastEnqHit, C::FastDeqHit]);
            let fallbacks = r.count(&[C::FastEnqFallback, C::FastDeqFallback]);
            put(
                name("core.fast_hit_rate"),
                ratio(hits, hits + fallbacks),
                "ratio",
            );
            put(name("core.slow_share"), ratio(fallbacks, r.ops()), "ratio");
            put(
                name("core.cas_fail_per_op"),
                ratio(
                    r.count(&[
                        C::CasFailTail,
                        C::CasFailNext,
                        C::CasFailHead,
                        C::CasFailDeqHelp,
                    ]),
                    r.ops(),
                ),
                "1/op",
            );
            put(
                name("core.help_per_op"),
                ratio(r.count(&[C::HelpEnqueue, C::HelpDequeue]), r.ops()),
                "1/op",
            );
            put(
                name("core.helping_depth_max"),
                r.traced
                    .iter()
                    .map(|w| w.after.depth_max)
                    .max()
                    .unwrap_or(0) as f64,
                "count",
            );
            put(
                name("core.fastpath_saving_ns"),
                r.saving_ns(Knob::NoFastPath),
                "ns",
            );

            let pool = |f: fn(&PoolStats) -> u64| {
                r.sum(|w| f(&w.after.pool).saturating_sub(f(&w.before.pool)) as f64)
            };
            let (hits, misses) = (pool(|p| p.hits), pool(|p| p.misses));
            put(name("pool.hit_rate"), ratio(hits, hits + misses), "ratio");
            put(
                name("pool.overflow_per_item"),
                ratio(pool(|p| p.overflows), r.enqs()),
                "1/item",
            );
            put(name("pool.saving_ns"), r.saving_ns(Knob::NoPool), "ns");
        }

        // Allocation figures come from the untraced windows, which take
        // no snapshots while they run.
        put(
            name("alloc.per_item"),
            ModeRuns::med(&r.plain, |w| ratio(w.allocs as f64, w.enq as f64)),
            "1/item",
        );
        put(
            name("alloc.bytes_per_item"),
            ModeRuns::med(&r.plain, |w| ratio(w.heap_peak as f64, w.peak_items as f64)),
            "B/item",
        );

        if matches!(r.mode, Mode::Turn | Mode::Seg) {
            put(
                name("hazard.protect_per_op"),
                ratio(r.count(&[C::HpProtect]), r.ops()),
                "1/op",
            );
            put(
                name("hazard.scan_per_retire"),
                ratio(r.count(&[C::HpScan]), r.count(&[C::HpRetire])),
                "ratio",
            );
            put(
                name("hazard.backlog_max"),
                r.traced.iter().map(|w| w.backlog_max).max().unwrap_or(0) as f64,
                "count",
            );
        }

        match r.mode {
            Mode::Seg => {
                put(
                    name("seg.cell_hit_rate"),
                    ratio(r.count(&[C::SegEnqCellHit, C::SegDeqCellHit]), r.ops()),
                    "ratio",
                );
                put(
                    name("seg.append_per_kitem"),
                    1e3 * ratio(r.count(&[C::SegEnqAppend]), r.enqs()),
                    "1/kitem",
                );
                put(
                    name("seg.poison_per_kitem"),
                    1e3 * ratio(r.count(&[C::SegCellPoison]), r.enqs()),
                    "1/kitem",
                );
                put(name("seg.saving_ns"), r.saving_ns(Knob::SegSize1), "ns");
            }
            Mode::Bounded => {
                put(
                    name("bounded.fast_share"),
                    ratio(r.count(&[C::BqEnqFast, C::BqDeqFast]), r.ops()),
                    "ratio",
                );
                put(
                    name("bounded.help_per_kop"),
                    1e3 * ratio(r.count(&[C::BqHelpRound]), r.ops()),
                    "1/kop",
                );
                put(
                    name("bounded.ticket_burn_per_kop"),
                    1e3 * ratio(r.count(&[C::BqTicketBurn]), r.ops()),
                    "1/kop",
                );
                put(
                    name("bounded.idx_cache_hit_rate"),
                    ratio(r.count(&[C::BqIdxCache]), r.enqs()),
                    "ratio",
                );
            }
            Mode::Sharded => {
                let (hit, steal) = (r.count(&[C::ShardDeqHit]), r.count(&[C::ShardDeqSteal]));
                put(
                    name("sharded.home_enq_share"),
                    ratio(r.count(&[C::ShardEnqHome]), r.enqs()),
                    "ratio",
                );
                put(
                    name("sharded.steal_share"),
                    ratio(steal, hit + steal),
                    "ratio",
                );
                put(
                    name("sharded.sweep_empty_share"),
                    ratio(
                        r.count(&[C::ShardSweepEmpty]),
                        hit + steal + r.count(&[C::ShardSweepEmpty]),
                    ),
                    "ratio",
                );
                put(
                    name("sharded.lane_saving_ns"),
                    r.saving_ns(Knob::OneLane),
                    "ns",
                );
            }
            Mode::Turn => {}
        }

        put(
            name("setup.build_ms"),
            ModeRuns::med(&r.plain, |w| w.build.as_secs_f64() * 1e3),
            "ms",
        );
        put(
            name("setup.warmup_ms"),
            ModeRuns::med(&r.plain, |w| w.warmup.as_secs_f64() * 1e3),
            "ms",
        );
    }
    out
}

/// The knob variants a traced run measures, per mode.
pub const KNOBS: [(Mode, Knob); 8] = [
    (Mode::Turn, Knob::NoFastPath),
    (Mode::Seg, Knob::NoFastPath),
    (Mode::Turn, Knob::NoPool),
    (Mode::Seg, Knob::NoPool),
    (Mode::Seg, Knob::SegSize1),
    (Mode::Sharded, Knob::OneLane),
    (Mode::Turn, Knob::Handle),
    (Mode::Seg, Knob::Handle),
];
