//! The engine round each serve workload runs on a client-side mirror
//! of its model, for the library metrics (`suite_ms`, `fixpoint_ms`,
//! `refine_ms`, `update_ms`).
//!
//! One *round* is what a library user waits on: a 32-formula suite
//! checked by a fresh `ModelChecker`, the reachability fixpoint
//! `µX. q1 ∨ ◇X`, graded refinement to the fixpoint, and a stream of
//! single-edge-flip deltas, each followed by `ModelChecker::resume` and
//! a re-check of the cached suite. Flips come in pairs (remove, then
//! re-add), so a round leaves its model as it found it and the suite's
//! verdict digest must be bit-identical from round to round.

use crate::oracle::{self, digest};
use portnum_logic::bisim::{self, BisimStyle, RefineStats};
use portnum_logic::plan::ExecStats;
use portnum_logic::{
    evaluate_packed_recursive, DiamondMode, Formula, Kripke, ModalIndex, ModelChecker, ModelDelta,
    Plan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Mean degree of every `G(n, p)` model in the benchmark.
pub const MEAN_DEGREE: f64 = 8.0;

/// A goal world every this many positions on the fixpoint path.
pub const GOAL_EVERY: usize = 100;
const SUITE_LEN: usize = 32;
/// Fixpoint checks per round (the cheapest call, so the noisiest).
const FIXPOINT_REPS: usize = 3;

pub fn gnp_p(n: usize) -> f64 {
    MEAN_DEGREE / (n as f64 - 1.0)
}

/// What one engine round measured and computed.
#[derive(Debug, Default)]
pub struct Round {
    pub suite_ms: f64,
    pub fixpoint_ms: Vec<f64>,
    pub refine_ms: f64,
    /// Per flip: `apply_delta` through the re-checked suite.
    pub update_ms: Vec<f64>,
    pub suite_digest: u64,
    pub fixpoint_digest: u64,
    pub refine_digest: u64,
    /// Problems found by the round's own checks.
    pub problems: Vec<String>,
    pub refine: RefineStats,
    pub ops: u64,
}

/// The models one round runs on.
pub struct RoundModels<'a> {
    /// Suite and delta model (mutated, then restored, by the flips).
    pub suite: &'a mut Kripke,
    pub fixpoint: &'a Kripke,
    pub refine: &'a Kripke,
}

fn random_edge(model: &Kripke, rng: &mut StdRng) -> (u32, u32) {
    loop {
        let v = rng.random_range(0..model.len());
        let row = model.successors_dense(0, v);
        if !row.is_empty() {
            return (v as u32, row[rng.random_range(0..row.len())]);
        }
    }
}

fn undirected(v: u32, w: u32, add: bool) -> ModelDelta {
    let mut d = ModelDelta::new();
    if add {
        d.add_edge(ModalIndex::Any, v, w)
            .add_edge(ModalIndex::Any, w, v);
    } else {
        d.remove_edge(ModalIndex::Any, v, w)
            .remove_edge(ModalIndex::Any, w, v);
    }
    d
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one round. With `check_oracle`, every verdict (suite, fixpoint,
/// each post-flip suite, refinement) is also compared with the
/// recursive evaluator or the stability oracle — affordable only on
/// small models.
pub fn round(
    models: RoundModels<'_>,
    suite: &[Formula],
    fixpoint: &Formula,
    flips: usize,
    rng: &mut StdRng,
    check_oracle: bool,
) -> Round {
    let mut r = Round::default();
    let RoundModels {
        suite: model,
        fixpoint: fix_model,
        refine: refine_model,
    } = models;

    let t = Instant::now();
    let mut checker = ModelChecker::new(model);
    let verdicts = checker
        .check_suite(suite)
        .expect("suite formulas match K-,- models");
    r.suite_ms = ms(t);
    r.suite_digest = oracle::digest_all(verdicts.iter().map(|b| b.words()));
    if check_oracle {
        for (f, v) in suite.iter().zip(&verdicts) {
            let want = evaluate_packed_recursive(model, f).expect("oracle evaluates the suite");
            if digest(want.words()) != digest(v.words()) {
                r.problems
                    .push(format!("suite verdict differs from the oracle: {f}"));
            }
        }
    }
    drop(verdicts);

    for _ in 0..FIXPOINT_REPS {
        let t = Instant::now();
        let truth = ModelChecker::new(fix_model)
            .check(fixpoint)
            .expect("fixpoint checks");
        r.fixpoint_ms.push(ms(t));
        r.fixpoint_digest = digest(truth.words());
    }
    if check_oracle {
        let want = evaluate_packed_recursive(fix_model, fixpoint).expect("oracle evaluates µ");
        if digest(want.words()) != r.fixpoint_digest {
            r.problems
                .push("fixpoint verdict differs from the oracle".to_string());
        }
    }

    let t = Instant::now();
    let (classes, refine_stats) = bisim::refine_fixpoint_stats(refine_model, BisimStyle::Graded);
    r.refine_ms = ms(t);
    r.refine = refine_stats;
    let classes = classes.final_level();
    r.refine_digest = oracle::digest_all([classes
        .iter()
        .map(|&c| c as u64)
        .collect::<Vec<_>>()
        .as_slice()]);
    if check_oracle && !oracle::graded_stable(refine_model, classes) {
        r.problems
            .push("refined partition is not a graded bisimulation".to_string());
    }

    let mut cache = checker.detach();
    let mut edge = (0, 0);
    for i in 0..flips {
        // Even flips remove a random edge, odd ones put it back.
        let add = i % 2 == 1;
        if !add {
            edge = random_edge(model, rng);
        }
        let delta = undirected(edge.0, edge.1, add);
        let t = Instant::now();
        let touched = model
            .apply_delta(&delta)
            .expect("flips name stored or absent edges");
        let mut checker = ModelChecker::resume(model, cache, &touched);
        let verdicts = checker.check_suite(suite).expect("suite re-checks");
        r.update_ms.push(ms(t));
        if check_oracle {
            for (f, v) in suite.iter().zip(&verdicts) {
                let want = evaluate_packed_recursive(model, f).expect("oracle evaluates the suite");
                if digest(want.words()) != digest(v.words()) {
                    r.problems.push(format!(
                        "repaired verdict differs from the oracle after flip {i}: {f}"
                    ));
                }
            }
        }
        if i + 1 == flips {
            let back = oracle::digest_all(verdicts.iter().map(|b| b.words()));
            if back != r.suite_digest {
                r.problems.push(
                    "suite verdicts after undoing every flip differ from the fresh ones"
                        .to_string(),
                );
            }
        }
        drop(verdicts);
        cache = checker.detach();
    }
    r.ops = (2 + FIXPOINT_REPS + flips) as u64;
    r
}

/// The fixpoint's per-iteration counters, from one plan execution.
pub fn fixpoint_exec_stats(model: &Kripke, fixpoint: &Formula) -> ExecStats {
    Plan::compile(model, fixpoint)
        .expect("fixpoint compiles")
        .execute_with(model, DiamondMode::Auto)
        .1
}

/// The 32-formula suite of every engine round.
pub fn suite_for(seed: u64) -> Vec<Formula> {
    crate::formulas::pool(&mut StdRng::seed_from_u64(seed ^ 0x5017e), SUITE_LEN, 0)
}
