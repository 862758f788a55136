//! The four user-facing execution modes behind one driving interface.
//!
//! A worker thread first claims a [`Client`] (the registry claim, where
//! `RegistryFull` surfaces), then drives it; every call goes through the
//! mode's public API exactly as an application would make it.

use turnq_repro::api::PoolStats;
use turnq_repro::bounded::Full;
use turnq_repro::telemetry::TelemetrySnapshot;
use turnq_repro::threadreg::RegistryFull;
use turnq_repro::{
    BoundedBuilder, BoundedQueue, SegHandle, SegTurnQueue, ShardedBuilder, ShardedTurnQueue,
    TurnHandle, TurnQueue, TurnQueueBuilder,
};

/// One execution mode, as users build it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Turn,
    Seg,
    Bounded,
    Sharded,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Turn, Mode::Seg, Mode::Bounded, Mode::Sharded];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Turn => "turn",
            Mode::Seg => "seg",
            Mode::Bounded => "bounded",
            Mode::Sharded => "sharded",
        }
    }
}

/// A non-default build of one mode, used only for the traced run's knob
/// deltas: each isolates one layer by switching it off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// Builder defaults: what users get.
    Default,
    /// `fast_tries(0)`: the paper-literal always-publish core.
    NoFastPath,
    /// `pool_capacity(0)`: every node comes from the allocator.
    NoPool,
    /// `seg_size(1)`: one item per node.
    SegSize1,
    /// `lanes(1)`: a single lane behind the sharded front-end.
    OneLane,
    /// Defaults, but driven through `handle()` (no per-call registry lookup).
    Handle,
}

impl Knob {
    pub fn name(self) -> &'static str {
        match self {
            Knob::Default => "default",
            Knob::NoFastPath => "fast_tries0",
            Knob::NoPool => "pool_capacity0",
            Knob::SegSize1 => "seg_size1",
            Knob::OneLane => "lanes1",
            Knob::Handle => "handle",
        }
    }
}

/// What one call returned, in the benchmark's terms.
pub trait Client {
    /// Enqueue `v`; `Err(v)` hands the item back on a `Full` verdict.
    fn enq(&mut self, v: u64) -> Result<(), u64>;
    fn deq(&mut self) -> Option<u64>;
}

/// Layer counters a queue exposes through its public surface.
pub struct Counters {
    pub telemetry: TelemetrySnapshot,
    pub pool: Option<PoolStats>,
}

pub trait Queue: Sync {
    type Client<'a>: Client
    where
        Self: 'a;
    /// Claim this thread's registry slot and return its client.
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull>;
    fn counters(&self) -> Counters;
}

pub struct Direct<'a, Q>(pub &'a Q);

impl Client for Direct<'_, TurnQueue<u64>> {
    #[inline]
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.0.enqueue(v);
        Ok(())
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.0.dequeue()
    }
}

impl Queue for TurnQueue<u64> {
    type Client<'a> = Direct<'a, TurnQueue<u64>>;
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        self.handle().map(|_| Direct(self))
    }
    fn counters(&self) -> Counters {
        Counters {
            telemetry: self.telemetry_snapshot(),
            pool: Some(self.pool_stats()),
        }
    }
}

impl Client for Direct<'_, SegTurnQueue<u64>> {
    #[inline]
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.0.enqueue(v);
        Ok(())
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.0.dequeue()
    }
}

impl Queue for SegTurnQueue<u64> {
    type Client<'a> = Direct<'a, SegTurnQueue<u64>>;
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        self.handle().map(|_| Direct(self))
    }
    fn counters(&self) -> Counters {
        Counters {
            telemetry: self.telemetry_snapshot(),
            pool: Some(self.pool_stats()),
        }
    }
}

impl Client for Direct<'_, BoundedQueue<u64>> {
    #[inline]
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.0.try_enqueue(v).map_err(|Full(v)| v)
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.0.try_dequeue()
    }
}

impl Queue for BoundedQueue<u64> {
    type Client<'a> = Direct<'a, BoundedQueue<u64>>;
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        self.registry_handle()
            .try_current_index()
            .map(|_| Direct(self))
    }
    fn counters(&self) -> Counters {
        use turnq_repro::api::QueueIntrospect;
        Counters {
            telemetry: QueueIntrospect::telemetry_snapshot(self).expect("the ring has a sheet"),
            pool: None,
        }
    }
}

impl Client for Direct<'_, ShardedTurnQueue<u64>> {
    #[inline]
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.0.enqueue(v);
        Ok(())
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.0.dequeue()
    }
}

impl Queue for ShardedTurnQueue<u64> {
    type Client<'a> = Direct<'a, ShardedTurnQueue<u64>>;
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        self.home_lane().map(|_| Direct(self))
    }
    fn counters(&self) -> Counters {
        Counters {
            telemetry: self.telemetry_snapshot(),
            pool: Some(self.pool_stats()),
        }
    }
}

/// A Turn or segment queue driven through per-thread handles, which cache
/// the registry index (the `threadreg.handle_saving_ns` knob).
pub struct ViaHandle<Q>(pub Q);

impl Client for TurnHandle<'_, u64> {
    #[inline]
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.enqueue(v);
        Ok(())
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Queue for ViaHandle<TurnQueue<u64>> {
    type Client<'a> = TurnHandle<'a, u64>;
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        self.0.handle()
    }
    fn counters(&self) -> Counters {
        self.0.counters()
    }
}

impl Client for SegHandle<'_, u64> {
    #[inline]
    fn enq(&mut self, v: u64) -> Result<(), u64> {
        self.enqueue(v);
        Ok(())
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Queue for ViaHandle<SegTurnQueue<u64>> {
    type Client<'a> = SegHandle<'a, u64>;
    fn client(&self) -> Result<Self::Client<'_>, RegistryFull> {
        self.0.handle()
    }
    fn counters(&self) -> Counters {
        self.0.counters()
    }
}

pub fn build_turn(knob: Knob) -> TurnQueue<u64> {
    let b = TurnQueueBuilder::new();
    match knob {
        Knob::NoFastPath => b.fast_tries(0),
        Knob::NoPool => b.pool_capacity(0),
        _ => b,
    }
    .build()
}

pub fn build_seg(knob: Knob) -> SegTurnQueue<u64> {
    let b = TurnQueueBuilder::new();
    match knob {
        Knob::NoFastPath => b.fast_tries(0),
        Knob::NoPool => b.pool_capacity(0),
        Knob::SegSize1 => b.seg_size(1),
        _ => b,
    }
    .build_seg()
}

pub fn build_bounded() -> BoundedQueue<u64> {
    BoundedBuilder::new().build()
}

pub fn build_sharded(knob: Knob) -> ShardedTurnQueue<u64> {
    let b = ShardedBuilder::new();
    match knob {
        Knob::OneLane => b.lanes(1),
        _ => b,
    }
    .build()
}
