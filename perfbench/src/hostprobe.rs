//! A fixed reference kernel, timed between the measured sections of a
//! run, that calls no repository code. Shared hosts change speed by
//! tens of percent from one minute to the next; the kernel's times,
//! recorded in the provenance line, tell a slow host apart from a slow
//! program when two runs disagree.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase table: 32 KiB of `u32`, small enough to
/// stay cached, so the kernel times the core rather than whatever the
/// measured section left in the caches.
const TABLE: usize = 1 << 13;
/// Steps of one pass (about half a millisecond on a current core).
const STEPS: usize = 1 << 18;
const PASSES: usize = 3;

/// The kernel and every time it took in this run.
pub struct HostProbe {
    next: Vec<u32>,
    /// Median-of-passes kernel times, ms, in the order taken.
    pub samples: Vec<f64>,
}

impl HostProbe {
    /// One cycle through every table entry, in an order fixed by a
    /// constant seed, so every run chases the same chain.
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for w in 0..TABLE {
            next[order[w] as usize] = order[(w + 1) % TABLE];
        }
        Self {
            next,
            samples: Vec::new(),
        }
    }

    /// Times the kernel now: the median of a few passes, in ms.
    pub fn sample(&mut self) {
        let mut passes = [0.0; PASSES];
        for p in &mut passes {
            let t = Instant::now();
            let (mut j, mut h) = (0u32, 0u64);
            for _ in 0..STEPS {
                j = self.next[j as usize];
                h = (h ^ u64::from(j)).wrapping_mul(0x0100_0000_01b3);
            }
            black_box(h);
            *p = t.elapsed().as_secs_f64() * 1e3;
        }
        passes.sort_by(f64::total_cmp);
        self.samples.push(passes[PASSES / 2]);
    }

    /// Records the kernel's timing row and its median as a fact.
    pub fn report(&self, report: &mut crate::stats::Report) {
        let s = report.timing("host_probe_ms", "ms", &self.samples);
        report.fact("host_probe_median_ms", s.p50);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let p = HostProbe::new();
        let mut j = 0u32;
        for step in 1..=TABLE {
            j = p.next[j as usize];
            assert_eq!(j == 0, step == TABLE, "cycle closed early at step {step}");
        }
    }
}
