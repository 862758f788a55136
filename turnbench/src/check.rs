//! The correctness gate: exactly-once delivery and per-producer FIFO.
//!
//! An item is `producer << 48 | seq`, with `seq` counting up from 0 per
//! producer. Each consumer checks that every producer's sequence numbers
//! reach it strictly increasing (per-producer FIFO, which also rules out a
//! duplicate within one consumer). Across consumers, the received count
//! and a seeded multiset hash per producer must equal what the producer
//! sent, which catches a lost item and a duplicate split across consumers.

pub const MAX_PRODUCERS: usize = 4;
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
const NONE: u64 = u64::MAX;

pub fn item(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << SEQ_BITS) | seq
}

/// SplitMix64 finaliser: the per-item term of the multiset hash.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One producer's side: the next sequence number and the hash of every
/// item sent so far.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub id: usize,
    pub next: u64,
    pub hash: u64,
    salt: u64,
}

impl Sent {
    pub fn new(id: usize, salt: u64) -> Self {
        assert!(id < MAX_PRODUCERS);
        Sent {
            id,
            next: 0,
            hash: 0,
            salt,
        }
    }

    /// The next item to enqueue; call [`commit`](Self::commit) once the
    /// queue accepted it.
    #[inline]
    pub fn peek(&self) -> u64 {
        item(self.id, self.next)
    }

    #[inline]
    pub fn commit(&mut self) {
        self.hash = self.hash.wrapping_add(mix(self.next ^ self.salt));
        self.next += 1;
    }
}

/// One consumer's side.
#[derive(Clone, Copy, Debug)]
pub struct Received {
    last: [u64; MAX_PRODUCERS],
    pub count: [u64; MAX_PRODUCERS],
    hash: [u64; MAX_PRODUCERS],
    /// Items that arrived out of per-producer order, twice, or from no
    /// known producer.
    pub violations: u64,
    salt: u64,
}

impl Received {
    pub fn new(salt: u64) -> Self {
        Received {
            last: [NONE; MAX_PRODUCERS],
            count: [0; MAX_PRODUCERS],
            hash: [0; MAX_PRODUCERS],
            violations: 0,
            salt,
        }
    }

    #[inline]
    pub fn take(&mut self, v: u64) {
        let p = (v >> SEQ_BITS) as usize;
        let seq = v & SEQ_MASK;
        if p >= MAX_PRODUCERS {
            self.violations += 1;
            return;
        }
        if self.last[p] != NONE && seq <= self.last[p] {
            self.violations += 1;
        }
        self.last[p] = seq;
        self.count[p] += 1;
        self.hash[p] = self.hash[p].wrapping_add(mix(seq ^ self.salt));
    }

    pub fn total(&self) -> u64 {
        self.count.iter().sum()
    }
}

/// Failed items once every consumer has finished: order violations, plus
/// every item lost or duplicated, plus one for a hash mismatch that equal
/// counts could hide.
pub fn audit(sent: &[Sent], received: &[Received]) -> u64 {
    let mut failed: u64 = received.iter().map(|r| r.violations).sum();
    for p in 0..MAX_PRODUCERS {
        let (n, h) = sent
            .iter()
            .filter(|s| s.id == p)
            .fold((0u64, 0u64), |(n, h), s| {
                (n + s.next, h.wrapping_add(s.hash))
            });
        let got: u64 = received.iter().map(|r| r.count[p]).sum();
        let got_hash = received.iter().fold(0u64, |h, r| h.wrapping_add(r.hash[p]));
        failed += n.abs_diff(got);
        if n == got && h != got_hash {
            failed += 1;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(s: &mut Sent) -> u64 {
        let v = s.peek();
        s.commit();
        v
    }

    #[test]
    fn clean_split_delivery_passes() {
        let mut a = Sent::new(0, 7);
        let mut r1 = Received::new(7);
        let mut r2 = Received::new(7);
        for i in 0..100 {
            let v = send(&mut a);
            if i % 3 == 0 {
                r1.take(v)
            } else {
                r2.take(v)
            }
        }
        assert_eq!(audit(&[a], &[r1, r2]), 0);
    }

    #[test]
    fn loss_duplicate_and_reorder_fail() {
        let mut a = Sent::new(1, 3);
        let items: Vec<u64> = (0..10).map(|_| send(&mut a)).collect();

        let mut lost = Received::new(3);
        items.iter().skip(1).for_each(|&v| lost.take(v));
        assert_eq!(audit(&[a], &[lost]), 1);

        let mut dup_a = Received::new(3);
        let mut dup_b = Received::new(3);
        items.iter().for_each(|&v| dup_a.take(v));
        dup_b.take(items[4]);
        assert_eq!(audit(&[a], &[dup_a, dup_b]), 1);

        let mut swapped = Received::new(3);
        let mut order = items.clone();
        order.swap(2, 3);
        order.iter().for_each(|&v| swapped.take(v));
        assert_eq!(audit(&[a], &[swapped]), 1);

        // A loss and a duplicate in different consumers keep the count
        // right; the hash still catches them.
        let mut c1 = Received::new(3);
        let mut c2 = Received::new(3);
        items
            .iter()
            .filter(|&&v| v != items[5])
            .for_each(|&v| c1.take(v));
        c2.take(items[2]);
        assert_eq!(audit(&[a], &[c1, c2]), 1);
    }
}
