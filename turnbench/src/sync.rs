//! A reusable barrier whose last arriver can run a step before releasing
//! the others (used to agree on "stop after this cycle").

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

pub struct Barrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl Barrier {
    pub fn new(parties: usize) -> Self {
        Barrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Wait for every party; the last to arrive runs `last` first, and its
    /// effects are visible to every party once they return. A `patient`
    /// waiter sleeps between checks, so a thread that only coordinates
    /// does not take a core from the workers.
    pub fn wait_then(&self, patient: bool, last: impl FnOnce()) {
        // Acquire/Release on `generation` publishes `last`'s effects (and
        // everything each party did before arriving) to every waiter.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            last();
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            spins = spins.wrapping_add(1);
            if patient && spins > 256 {
                std::thread::sleep(Duration::from_micros(20));
            } else if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    pub fn wait(&self, patient: bool) {
        self.wait_then(patient, || {});
    }
}
