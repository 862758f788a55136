//! In-queue latency attribution: shared log-linear bucket math, the
//! operation × path-class key space, and the probe-gated [`OpTimer`].
//!
//! ## Shared bucket math
//!
//! The harness already owns a log-linear histogram
//! (`crates/harness/src/histogram.rs`) for *external* latency
//! measurement. The sheet-resident histograms here must bucket
//! identically — otherwise in-queue and harness quantiles would disagree
//! by more than bucket width — so the pure index/inverse functions live
//! in this module and the harness delegates to them. Buckets are linear
//! within a power-of-two range and geometric across ranges: range 0
//! covers `[0, 2^b)` with width-1 buckets (exact), range `r ≥ 1` covers
//! `[2^(b+r-1), 2^(b+r))` with `2^b` buckets of width `2^(r-1)` —
//! bounded relative error `2^-b` per value, and a saturating top bucket.
//!
//! ## Path classes
//!
//! Every completed operation is attributed to the path it actually took
//! (see [`OpKey`]): a direct fast-path hit, a segment cell claim, a
//! consensus slow path the thread worked through itself, or a request
//! that was already complete when the thread first looked (helped).
//! Single-path queues (KP, MS, FAA, mutex, and the exclusive MPSC/SPMC
//! endpoints) record under the `slow` class — their only path.
//!
//! ## Recording rules
//!
//! Same contract as the rest of the crate: per-thread rows, owner-only
//! plain stores, no RMW, and with `probe` off [`OpTimer`] is a zero-sized
//! type whose reading is 0 and recording compiles to a no-op.
//!
//! ## Sampling
//!
//! Operation counters and the helping-depth histogram are exact; latency
//! is sampled. A sheet times one operation in `2^s` per thread
//! ([`DEFAULT_LATENCY_SAMPLE_LOG2`], or `0` under an armed stall
//! watchdog — see [`latency_sample_log2_for`]): the per-row decision is
//! a xorshift step that only the row's owner writes, with plain stores
//! and no loop, so the clock is read twice per *sampled* op rather than
//! twice per op. `s = 0` times every op and reads no sampler state. The
//! effective rate of a snapshot is its latency sample count divided by
//! the exact op counters (`enq_ops + deq_ops + deq_empty`).

/// Default latency sampling rate: one operation in `2^6 = 64` per thread
/// is timed.
pub const DEFAULT_LATENCY_SAMPLE_LOG2: u32 = 6;

/// The latency sampling rate for a queue whose stall watchdog threshold
/// is `stall_threshold_ns`: an armed watchdog (anything below
/// `u64::MAX`) must see every op's latency, so it gets `0`; otherwise
/// [`DEFAULT_LATENCY_SAMPLE_LOG2`].
pub const fn latency_sample_log2_for(stall_threshold_ns: u64) -> u32 {
    if stall_threshold_ns == u64::MAX {
        DEFAULT_LATENCY_SAMPLE_LOG2
    } else {
        0
    }
}

/// One xorshift64 step of a sampler state `x` (never 0): the next state,
/// and whether it picks the operation — one in `2^s`, for `s` in `1..64`.
#[cfg(feature = "probe")]
#[inline(always)]
pub(crate) fn sample_step(mut x: u64, s: u32) -> (u64, bool) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    (x, x >> (64 - s) == 0)
}

/// Number of power-of-two ranges (the full `u64` domain).
pub const RANGES: usize = 64;

/// Resolution of the sheet-resident histograms: `2^4 = 16` linear
/// sub-buckets per range, ≤ 6.25 % relative error at 8 KiB per key per
/// thread. The harness default (6 bits) is finer; both use the same
/// [`bucket_index`]/[`bucket_low`] math.
pub const SHEET_SUB_BUCKET_BITS: u32 = 4;

/// Number of flat buckets for a given resolution.
pub fn bucket_count(sub_bucket_bits: u32) -> usize {
    assert!(
        (1..=16).contains(&sub_bucket_bits),
        "sub_bucket_bits must be in 1..=16"
    );
    RANGES << sub_bucket_bits
}

/// Flat bucket index for `value` at the given resolution (saturating into
/// the last bucket).
#[inline]
pub fn bucket_index(sub_bucket_bits: u32, value: u64) -> usize {
    let b = sub_bucket_bits;
    if value < (1u64 << b) {
        return value as usize;
    }
    let msb = 63 - u64::leading_zeros(value); // >= b here
    let range = (msb - b + 1) as usize;
    let sub = ((value >> (range - 1)) - (1u64 << b)) as usize;
    let idx = (range << b) + sub;
    idx.min((RANGES << b) - 1)
}

/// Lowest value representable by bucket `idx` (inverse of
/// [`bucket_index`]). Saturates to `u64::MAX` for defensive indices past
/// the last representable bucket (the flat array over-allocates a few
/// trailing buckets no value can reach).
#[inline]
pub fn bucket_low(sub_bucket_bits: u32, idx: usize) -> u64 {
    let b = sub_bucket_bits;
    let range = idx >> b;
    let sub = (idx & ((1usize << b) - 1)) as u64;
    if range == 0 {
        sub
    } else {
        let v = ((1u128 << b) + sub as u128) << (range - 1);
        u64::try_from(v).unwrap_or(u64::MAX)
    }
}

/// Exclusive upper bound of bucket `idx` (the next bucket's low, or
/// `u64::MAX` for the top of the domain). Prometheus `le` labels use
/// this.
#[inline]
pub fn bucket_high(sub_bucket_bits: u32, idx: usize) -> u64 {
    if idx + 1 >= bucket_count(sub_bucket_bits) {
        u64::MAX
    } else {
        bucket_low(sub_bucket_bits, idx + 1)
    }
}

/// One latency series: operation × path class.
///
/// The discriminant indexes the per-thread latency arrays; keep the
/// variants dense and [`OpKey::ALL`] in discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKey {
    /// Enqueue completed by a direct fast-path tail append (§6c).
    EnqFast = 0,
    /// Enqueue that published a CRTurn request and worked the helping
    /// loop itself (observed completion at depth ≥ 1).
    EnqSlow,
    /// Enqueue whose published request was already complete at the
    /// thread's first look (backoff-spin exit or depth 0) — another
    /// thread did the work.
    EnqHelped,
    /// Enqueue completed by an FAA cell claim inside a segment (§6d).
    EnqSegCell,
    /// Dequeue completed on the fast path (item claimed or linearizable
    /// empty observed).
    DeqFast,
    /// Dequeue that worked the consensus slow path itself.
    DeqSlow,
    /// Dequeue whose published request another thread closed first.
    DeqHelped,
    /// Dequeue that took its item straight out of a segment cell.
    DeqSegCell,
}

/// Number of latency series (row width of the per-thread latency area).
pub const N_OP_KEYS: usize = 8;

impl OpKey {
    /// Every key, in discriminant order (`ALL[i] as usize == i`).
    pub const ALL: [OpKey; N_OP_KEYS] = [
        OpKey::EnqFast,
        OpKey::EnqSlow,
        OpKey::EnqHelped,
        OpKey::EnqSegCell,
        OpKey::DeqFast,
        OpKey::DeqSlow,
        OpKey::DeqHelped,
        OpKey::DeqSegCell,
    ];

    /// Short name, used as the JSON key (`<op>_<path>`).
    pub const fn name(self) -> &'static str {
        match self {
            OpKey::EnqFast => "enq_fast",
            OpKey::EnqSlow => "enq_slow",
            OpKey::EnqHelped => "enq_helped",
            OpKey::EnqSegCell => "enq_seg_cell",
            OpKey::DeqFast => "deq_fast",
            OpKey::DeqSlow => "deq_slow",
            OpKey::DeqHelped => "deq_helped",
            OpKey::DeqSegCell => "deq_seg_cell",
        }
    }

    /// Operation label (`enq`/`deq`) for Prometheus.
    pub const fn op(self) -> &'static str {
        match self {
            OpKey::EnqFast | OpKey::EnqSlow | OpKey::EnqHelped | OpKey::EnqSegCell => "enq",
            _ => "deq",
        }
    }

    /// Path-class label (`fast`/`slow`/`helped`/`seg_cell`) for
    /// Prometheus.
    pub const fn path(self) -> &'static str {
        match self {
            OpKey::EnqFast | OpKey::DeqFast => "fast",
            OpKey::EnqSlow | OpKey::DeqSlow => "slow",
            OpKey::EnqHelped | OpKey::DeqHelped => "helped",
            OpKey::EnqSegCell | OpKey::DeqSegCell => "seg_cell",
        }
    }
}

/// A start-of-operation timestamp. With `probe` off this is a zero-sized
/// type: [`OpTimer::start`] does nothing and [`OpTimer::nanos`] returns 0,
/// so the call sites need no `cfg` and the disabled build pays nothing.
///
/// Queues take their timers from
/// [`TelemetrySheet::op_timer`](crate::TelemetrySheet::op_timer), which
/// reads the clock only for sampled operations; an unsampled timer holds
/// no instant, reads 0, and records nothing.
#[derive(Debug, Clone, Copy)]
pub struct OpTimer {
    #[cfg(feature = "probe")]
    start: Option<std::time::Instant>,
}

impl OpTimer {
    /// Capture the current instant (no-op with `probe` off). Always
    /// timed: sampling happens only in
    /// [`TelemetrySheet::op_timer`](crate::TelemetrySheet::op_timer).
    #[inline(always)]
    pub fn start() -> Self {
        OpTimer {
            #[cfg(feature = "probe")]
            start: Some(std::time::Instant::now()),
        }
    }

    /// Start timing one operation in `2^s` (`s < 64`), picked by a
    /// xorshift sampler that lives in the calling thread's local storage;
    /// `s = 0` times every op. For queues that record every op on one
    /// shared row under a lock (the mutex baseline): the decision happens
    /// before the lock yet writes no shared state, where
    /// [`TelemetrySheet::op_timer`](crate::TelemetrySheet::op_timer)
    /// would write the shared row's sampler outside the lock.
    #[inline(always)]
    #[cfg_attr(not(feature = "probe"), allow(unused_variables))]
    pub fn start_sampled(s: u32) -> Self {
        #[cfg(feature = "probe")]
        {
            use std::cell::Cell;
            use std::hash::{BuildHasher, RandomState};
            debug_assert!(s < 64, "latency sample rate must be below 64 (got {s})");
            if s == 0 {
                return Self::start();
            }
            thread_local! {
                // Odd, so never 0; seeded per thread so threads sharing a
                // queue do not time the same op indices.
                static SAMPLER: Cell<u64> = Cell::new(
                    RandomState::new().hash_one(std::thread::current().id()) | 1,
                );
            }
            let picked = SAMPLER.with(|state| {
                let (x, picked) = sample_step(state.get(), s);
                state.set(x);
                picked
            });
            if picked {
                Self::start()
            } else {
                Self::skipped()
            }
        }
        #[cfg(not(feature = "probe"))]
        Self::start()
    }

    /// A timer for an operation the sampler skipped: no clock read.
    #[cfg(feature = "probe")]
    #[inline(always)]
    pub(crate) fn skipped() -> Self {
        OpTimer { start: None }
    }

    /// Nanoseconds elapsed since [`start`](Self::start) (saturating; 0
    /// with `probe` off or for a skipped operation).
    #[inline(always)]
    pub fn nanos(&self) -> u64 {
        self.sampled_nanos().unwrap_or(0)
    }

    /// Elapsed nanoseconds if this operation is timed, `None` if the
    /// sampler skipped it or probes are off.
    #[inline(always)]
    pub(crate) fn sampled_nanos(&self) -> Option<u64> {
        #[cfg(feature = "probe")]
        {
            self.start
                .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
        }
        #[cfg(not(feature = "probe"))]
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_dense_and_named_uniquely() {
        let mut names = Vec::new();
        for (i, k) in OpKey::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "ALL out of order at {}", k.name());
            assert_eq!(k.name(), format!("{}_{}", k.op(), k.path()));
            names.push(k.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OP_KEYS);
    }

    #[test]
    fn index_is_exact_below_two_to_the_b() {
        for b in [1, 4, 6] {
            for v in 0..(1u64 << b) {
                assert_eq!(bucket_index(b, v), v as usize);
                assert_eq!(bucket_low(b, v as usize), v);
            }
        }
    }

    #[test]
    fn bucket_low_is_a_left_inverse_within_error() {
        for b in [2u32, 4, 6] {
            for v in [0u64, 1, 17, 255, 1_000, 123_456, 1 << 33, u64::MAX / 3] {
                let idx = bucket_index(b, v);
                let low = bucket_low(b, idx);
                assert!(low <= v, "b={b} v={v}: low {low} over-reports");
                // Relative error bounded by one sub-bucket of the range.
                let width = bucket_high(b, idx).saturating_sub(low);
                assert!(
                    v - low <= width,
                    "b={b} v={v}: off by {} > width {width}",
                    v - low
                );
            }
        }
    }

    #[test]
    fn top_bucket_saturates() {
        for b in [1u32, 4, 16] {
            let top = bucket_index(b, u64::MAX);
            assert!(top < bucket_count(b));
            // The top bucket's span reaches the end of the u64 domain …
            assert_eq!(bucket_high(b, top), u64::MAX);
            // … and indexing is monotone into it (no wrap-around).
            assert!(bucket_index(b, u64::MAX - 1) <= top);
            assert!(bucket_index(b, 1u64 << 63) <= top);
        }
    }

    #[test]
    fn armed_watchdog_forces_every_op_timing() {
        assert_eq!(
            latency_sample_log2_for(u64::MAX),
            DEFAULT_LATENCY_SAMPLE_LOG2
        );
        assert_eq!(latency_sample_log2_for(u64::MAX - 1), 0);
        assert_eq!(latency_sample_log2_for(1), 0);
    }

    #[test]
    fn thread_local_sampler_times_every_op_at_zero_and_about_one_in_64_by_default() {
        const OPS: u64 = 1 << 16;
        let timed = |s| {
            (0..OPS)
                .filter(|_| OpTimer::start_sampled(s).sampled_nanos().is_some())
                .count() as u64
        };
        if !crate::ENABLED {
            assert_eq!((timed(0), timed(DEFAULT_LATENCY_SAMPLE_LOG2)), (0, 0));
            return;
        }
        assert_eq!(timed(0), OPS);
        let expected = OPS >> DEFAULT_LATENCY_SAMPLE_LOG2;
        let got = timed(DEFAULT_LATENCY_SAMPLE_LOG2);
        assert!(
            (expected / 2..=expected * 3 / 2).contains(&got),
            "{got} timed, expected about {expected}"
        );
    }

    #[test]
    fn timer_is_monotone_or_inert() {
        let t = OpTimer::start();
        let a = t.nanos();
        let b = t.nanos();
        if crate::ENABLED {
            assert!(b >= a);
        } else {
            assert_eq!((a, b), (0, 0));
        }
    }
}
