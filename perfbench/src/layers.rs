//! Substrate probes every traced run reports: the global worker pool
//! and the bitset kernels at 2²⁰ bits, plus the process's peak RSS.

use crate::stats::{self, Report};
use portnum_graph::bitset::Bitset;
use portnum_graph::pool::WorkerPool;
use std::hint::black_box;
use std::time::Instant;

const BITS: usize = 1 << 20;
const REPS: usize = 64;

fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e9);
    }
    stats::median(&samples)
}

/// `graph.pool.*` and `graph.bitset.*`.
pub fn substrate(report: &mut Report) {
    let pool = WorkerPool::global();
    let ps = pool.stats();
    report.layer("graph.pool.workers", ps.workers as f64, "count");
    report.layer(
        "graph.pool.dispatch_cost_ns",
        ps.dispatch_cost_ns as f64,
        "ns",
    );
    let chunks = ps.workers + 1;
    report.layer(
        "graph.pool.run_us",
        ns_per_call(|| {
            pool.run(chunks, &|i| {
                black_box(i);
            })
        }) / 1e3,
        "us",
    );

    // Two vectors differing in one bit per 64-word stretch: the sparse
    // difference a frontier sweep walks.
    let a = Bitset::from_fn(BITS, |i| i % 3 == 0);
    let b = Bitset::from_fn(BITS, |i| i % 3 == 0 || i % 4096 == 1);
    let mut acc = Bitset::zeros(BITS);
    report.layer(
        "graph.bitset.or_words_ns",
        ns_per_call(|| acc.or_words(black_box(b.words()))),
        "ns",
    );
    let mut flips = 0usize;
    report.layer(
        "graph.bitset.for_each_difference_ns",
        ns_per_call(|| black_box(&b).for_each_difference(black_box(&a), |_| flips += 1)),
        "ns",
    );
    black_box((acc, flips));
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process (`/proc/self/task`), 0 where unavailable.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Waits, for at most 10 s, until the process is down to `baseline`
/// threads: a dropped server's connection and shard threads exit on
/// their own once its clients hang up.
pub fn settle_threads(baseline: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while thread_count() > baseline && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}
