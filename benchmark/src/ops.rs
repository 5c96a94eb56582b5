//! The seed-determined op list every workload executes.
//!
//! An [`OpStream`] is a pure function of `(seed, mix, sizes)`: the same
//! arguments yield the same operations in the same order, so a parent
//! commit and a change execute identical work for as far into the list as
//! their run gets. Operations carry raw draws; the executor resolves them
//! against the population the earlier operations left behind, which keeps
//! the resolution deterministic too.

/// SplitMix64 — small, seedable, and independent of the library's own RNG,
/// so a change to the library cannot shift the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw below `n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁴⁰.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Relative weights of the operation kinds in a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub query: u32,
    pub batch: u32,
    pub insert: u32,
    pub remove: u32,
    pub ingest: u32,
}

impl Mix {
    pub const QUERIES: Mix = Mix {
        query: 1,
        batch: 0,
        insert: 0,
        remove: 0,
        ingest: 0,
    };
    pub const BATCHES: Mix = Mix {
        query: 0,
        batch: 1,
        insert: 0,
        remove: 0,
        ingest: 0,
    };
    /// The fleet's sustained mix: 88 % queries, 8 % inserts, 4 % removes.
    pub const FLEET: Mix = Mix {
        query: 88,
        batch: 0,
        insert: 8,
        remove: 4,
        ingest: 0,
    };
    pub const INSERTS: Mix = Mix {
        query: 0,
        batch: 0,
        insert: 1,
        remove: 0,
        ingest: 0,
    };
    pub const REMOVES: Mix = Mix {
        query: 0,
        batch: 0,
        insert: 0,
        remove: 1,
        ingest: 0,
    };
    pub const INGEST: Mix = Mix {
        query: 0,
        batch: 0,
        insert: 0,
        remove: 0,
        ingest: 1,
    };

    fn total(&self) -> u32 {
        self.query + self.batch + self.insert + self.remove + self.ingest
    }
}

/// One operation of the list, as raw draws.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `query(0, left)`; lefts come from a seeded permutation of all of
    /// them, reshuffled after each pass.
    Query { left: u32 },
    /// `query_batch(0, lefts)`.
    Batch { lefts: Vec<u32> },
    /// Extract raw account `raw` (Reference fold-in) and insert it, with
    /// Eq. 18 edges to earlier inserts picked by `edge_draws`. Raws come
    /// from a reshuffled permutation too (extraction cost follows the
    /// payload's length).
    Insert { raw: u32, edge_draws: [u64; 2] },
    /// Remove the `draw`-th live right account (modulo the live count).
    Remove { draw: u64 },
    /// Extract `raws` (Tables fold-in, one batch) and insert them under
    /// one epoch.
    Ingest { raws: Vec<u32> },
}

/// Sizes the draws range over.
#[derive(Debug, Clone, Copy)]
pub struct OpSizes {
    /// Left-platform accounts (query targets).
    pub lefts: usize,
    /// Raw right-platform accounts inserts draw from.
    pub raws: usize,
    /// Lefts per `query_batch`.
    pub batch: usize,
    /// Accounts per ingest batch.
    pub ingest_batch: usize,
}

/// A seeded permutation of `0..n`, reshuffled after every pass: uniform
/// without replacement. Any stretch of `k × n` draws then holds every item
/// `k` times, and a percentile over it measures the system, not which
/// items the draw happened to favour.
#[derive(Debug, Clone)]
struct Cycle {
    items: Vec<u32>,
    next: usize,
}

impl Cycle {
    fn new(n: usize) -> Self {
        Cycle {
            items: (0..n as u32).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SplitMix64) -> u32 {
        if self.next == self.items.len() {
            // Fisher–Yates with the stream's own generator.
            for i in (1..self.items.len()).rev() {
                let j = rng.below(i + 1);
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// The op list, generated lazily.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    mix: Mix,
    sizes: OpSizes,
    /// Query targets and insert payloads, each queried or inserted equally
    /// often.
    lefts: Cycle,
    raws: Cycle,
}

impl OpStream {
    /// `phase` separates the streams of one run's phases, so that adding a
    /// phase leaves the others' lists as they were.
    pub fn new(seed: u64, phase: u64, mix: Mix, sizes: OpSizes) -> Self {
        assert!(mix.total() > 0, "a phase needs at least one op kind");
        let mut rng = SplitMix64::new(seed ^ phase.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        OpStream {
            rng,
            mix,
            sizes,
            lefts: Cycle::new(sizes.lefts),
            raws: Cycle::new(sizes.raws),
        }
    }

    fn left(&mut self) -> u32 {
        self.lefts.draw(&mut self.rng)
    }

    fn raw(&mut self) -> u32 {
        self.raws.draw(&mut self.rng)
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let (m, s) = (self.mix, self.sizes);
        let mut pick = (self.rng.next_u64() % m.total() as u64) as u32;
        let mut takes = |weight: u32| {
            if pick < weight {
                true
            } else {
                pick -= weight;
                false
            }
        };
        Some(if takes(m.query) {
            Op::Query { left: self.left() }
        } else if takes(m.batch) {
            Op::Batch {
                lefts: (0..s.batch).map(|_| self.left()).collect(),
            }
        } else if takes(m.insert) {
            Op::Insert {
                raw: self.raw(),
                edge_draws: [self.rng.next_u64(), self.rng.next_u64()],
            }
        } else if takes(m.remove) {
            Op::Remove {
                draw: self.rng.next_u64(),
            }
        } else {
            Op::Ingest {
                raws: (0..s.ingest_batch).map(|_| self.raw()).collect(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: OpSizes = OpSizes {
        lefts: 500,
        raws: 500,
        batch: 64,
        ingest_batch: 512,
    };

    #[test]
    fn op_list_is_a_function_of_the_seed() {
        let a: Vec<Op> = OpStream::new(7, 1, Mix::FLEET, SIZES).take(2000).collect();
        let b: Vec<Op> = OpStream::new(7, 1, Mix::FLEET, SIZES).take(2000).collect();
        assert_eq!(a, b, "same seed, same list");
        let c: Vec<Op> = OpStream::new(8, 1, Mix::FLEET, SIZES).take(2000).collect();
        assert_ne!(a, c, "another seed, another list");
        let d: Vec<Op> = OpStream::new(7, 2, Mix::FLEET, SIZES).take(2000).collect();
        assert_ne!(a, d, "another phase, another list");
        // A prefix of a longer run is the shorter run.
        let e: Vec<Op> = OpStream::new(7, 1, Mix::FLEET, SIZES).take(500).collect();
        assert_eq!(a[..500], e[..]);
    }

    #[test]
    fn every_left_is_queried_equally_often() {
        let mut counts = vec![0u32; SIZES.lefts];
        for op in OpStream::new(11, 1, Mix::QUERIES, SIZES).take(3 * SIZES.lefts) {
            match op {
                Op::Query { left } => counts[left as usize] += 1,
                other => panic!("expected a query, got {other:?}"),
            }
        }
        assert!(
            counts.iter().all(|&c| c == 3),
            "three passes, three visits each"
        );
        // Batches draw from the same cycle.
        let lefts: Vec<u32> = OpStream::new(11, 1, Mix::BATCHES, SIZES)
            .take(SIZES.lefts / SIZES.batch)
            .flat_map(|op| match op {
                Op::Batch { lefts } => lefts,
                other => panic!("expected a batch, got {other:?}"),
            })
            .collect();
        let mut seen = lefts.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), lefts.len(), "no left twice within a pass");
        // Insert payloads cycle the same way, whatever else is in the mix.
        let mut inserted = vec![0u32; SIZES.raws];
        for op in OpStream::new(11, 1, Mix::FLEET, SIZES) {
            if let Op::Insert { raw, .. } = op {
                inserted[raw as usize] += 1;
                if inserted.iter().sum::<u32>() as usize == 2 * SIZES.raws {
                    break;
                }
            }
        }
        assert!(inserted.iter().all(|&c| c == 2), "two passes over the raws");
    }

    #[test]
    fn mix_weights_are_honoured() {
        let ops: Vec<Op> = OpStream::new(3, 1, Mix::FLEET, SIZES)
            .take(20_000)
            .collect();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 20_000.0;
        let q = count(|o| matches!(o, Op::Query { .. }));
        let i = count(|o| matches!(o, Op::Insert { .. }));
        let r = count(|o| matches!(o, Op::Remove { .. }));
        assert!((q - 0.88).abs() < 0.01, "query share {q}");
        assert!((i - 0.08).abs() < 0.01, "insert share {i}");
        assert!((r - 0.04).abs() < 0.01, "remove share {r}");
        assert!(OpStream::new(3, 1, Mix::QUERIES, SIZES)
            .take(100)
            .all(|o| matches!(o, Op::Query { left } if (left as usize) < SIZES.lefts)));
        match OpStream::new(3, 1, Mix::INGEST, SIZES).next() {
            Some(Op::Ingest { raws }) => assert_eq!(raws.len(), SIZES.ingest_batch),
            other => panic!("expected an ingest op, got {other:?}"),
        }
    }
}
