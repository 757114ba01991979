//! A fixed probe of the host's speed, run between timed units so the
//! end-to-end times can be scaled to one reference speed.
//!
//! On a shared host the same pass can take 1.7 times as long as it did
//! ten minutes earlier, because other tenants contend for the core's
//! caches and the memory system. The probe is a small simulator-like
//! kernel, an open-addressed hash table, a binary heap and an LRU
//! set-associative cache model, so those tenants slow it much as they
//! slow the simulator. Its code lives here, apart from the crates the
//! benchmark measures, so no change to the simulator changes it.
//!
//! A unit's time is scaled by `REFERENCE_SECS / p`, where `p` is the time
//! of the probe run right after the unit.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's run time on the development host in a quiet spell
/// (2-vCPU KVM guest on an Intel Xeon, model 207). Scaled times are
/// host seconds at that speed.
pub const REFERENCE_SECS: f64 = 0.028;

/// Hash-table slots: 512 KB, so the probe adds little to `peak_rss_mb`.
const TABLE_SLOTS: usize = 1 << 16;

/// Sets of the cache model (16 ways each, 256 KB of tags).
const CACHE_SETS: usize = 2048;

const MIX_STEPS: u64 = 600_000;
const CACHE_STEPS: u64 = 1_600_000;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 17
}

/// The probe's working memory, allocated once per run.
pub struct HostProbe {
    table: Vec<u64>,
    tags: Vec<u64>,
}

impl HostProbe {
    /// Allocates the probe's table and cache model.
    pub fn new() -> Self {
        HostProbe {
            table: vec![0; TABLE_SLOTS],
            tags: vec![u64::MAX; CACHE_SETS * 16],
        }
    }

    /// Runs the probe once from the same start state; returns its host
    /// seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.mix());
        black_box(self.cache());
        started.elapsed().as_secs_f64()
    }

    /// Scales `secs`, measured right before a probe run that took
    /// `probe` seconds, to the reference speed.
    pub fn scale(secs: f64, probe: f64) -> f64 {
        secs * REFERENCE_SECS / probe.max(1e-9)
    }

    /// Inserts, looks up and queues pseudo-random keys: hashing, probing
    /// and data-dependent branches.
    fn mix(&mut self) -> u64 {
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut heap = BinaryHeap::new();
        let (mut x, mut acc, mut filled) = (7u64, 0u64, 0usize);
        for i in 0..MIX_STEPS {
            let k = lcg(&mut x) | 1;
            let mut h = (k.wrapping_mul(0x517c_c1b7_2722_0a95) >> 40) as usize & mask;
            match k & 6 {
                0 => {
                    if filled > TABLE_SLOTS / 2 {
                        self.table.fill(0);
                        filled = 0;
                    }
                    while self.table[h] != 0 && self.table[h] != k {
                        h = (h + 1) & mask;
                    }
                    filled += usize::from(self.table[h] == 0);
                    self.table[h] = k;
                }
                2 => {
                    for _ in 0..8 {
                        if self.table[h] == k {
                            acc += 1;
                            break;
                        }
                        h = (h + 1) & mask;
                    }
                }
                _ => {
                    heap.push((k & 0xffff) ^ i);
                    if heap.len() > 64 {
                        acc = acc.wrapping_add(heap.pop().unwrap_or(0));
                    }
                }
            }
        }
        acc
    }

    /// An LRU set-associative cache fed half a streaming and half a
    /// random line stream.
    fn cache(&mut self) -> u64 {
        self.tags.fill(u64::MAX);
        let (mut x, mut hits, mut stream) = (11u64, 0u64, 0u64);
        for _ in 0..CACHE_STEPS {
            let r = lcg(&mut x);
            let line = if r & 1 == 0 {
                stream += 1;
                stream
            } else {
                r & 0xf_ffff
            };
            let set = (line as usize % CACHE_SETS) * 16;
            let ways = &mut self.tags[set..set + 16];
            match ways.iter().position(|&w| w == line) {
                Some(p) => {
                    hits += 1;
                    ways[..=p].rotate_right(1);
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = line;
                }
            }
        }
        hits
    }
}
