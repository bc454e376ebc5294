//! Self-healing contract under worker death: a `return` action on the
//! `pool-worker` failpoint makes workers exit their loop, and
//! [`WorkerPool::heal`] (called at every `run` entry) must detect the
//! dead threads, respawn them, and keep every call completing — the
//! caller participates, so chunks drain even while workers are dying.
//!
//! Own test binary: the failpoint registry is process-global and this
//! test kills pool workers, which must not race other pool tests.

use portnum_graph::pool::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn dead_workers_are_respawned_and_the_pool_keeps_serving() {
    fail::teardown();
    // Arm the action before the pool exists, so every worker — the
    // first generation included — crosses the `pool-worker` site at its
    // very first loop head and exits. Arming it later would race the
    // workers' spin-then-park: a worker that parked before the action
    // was armed never reaches the site again on an oversubscribed pool
    // (more workers than spare cores, where `run` never wakes parked
    // workers), so whether anything died would depend on timing.
    fail::cfg("pool-worker", "return").unwrap();
    let pool = WorkerPool::new(2);
    assert_eq!(pool.worker_count(), 2);

    // heal() keeps replacing the dead workers at each run() entry (its
    // `is_finished` probe needs the exiting thread to have finished,
    // hence the retry loop). Every call must still execute all chunks
    // exactly once throughout.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut respawned = 0;
    while Instant::now() < deadline {
        let hits = AtomicUsize::new(0);
        pool.run(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8, "chunks lost while workers died");
        respawned = pool.respawn_count();
        if respawned >= 2 {
            break;
        }
        // Give the just-killed threads a moment to finish exiting so
        // heal's `is_finished` probe can observe the death.
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(respawned >= 2, "workers died but were not respawned (respawn_count={respawned})");

    // Disarm: the next generation of workers stays alive and the pool
    // serves as if nothing happened.
    fail::remove("pool-worker");
    let hits = AtomicUsize::new(0);
    pool.run(16, &|_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 16);
    assert_eq!(pool.worker_count(), 2, "healing must preserve the pool size");
}
