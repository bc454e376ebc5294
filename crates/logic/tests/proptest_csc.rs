//! Differential matrix for the two-way diamond path (forward sweep vs
//! CSC gather).
//!
//! The matrix: all four canonical variants × random formulas with
//! grades {0, 1, k} × every [`DiamondMode`] × sequential and
//! pool-forced execution, each pinned bit-identical to
//! [`evaluate_packed_recursive`] — plus strategy-count assertions per
//! mode: `Forward` never gathers, `Csc` never sweeps, and `Auto` runs
//! every diamond through exactly one of the two.

mod common;

use common::{all_variants, arb_formula_with, arb_graph};
use portnum_logic::plan::{DiamondMode, Plan};
use portnum_logic::{evaluate_packed_recursive, Formula, Kripke, ModalIndex};
use proptest::prelude::*;

const ALL_MODES: [DiamondMode; 3] = [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csc_matrix_matches_recursive(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_formula_with(ModalIndex::InOut),
        f_mp in arb_formula_with(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_formula_with(|i, _j| ModalIndex::In(i)),
        f_mm in arb_formula_with(|_i, _j| ModalIndex::Any),
    ) {
        let models = all_variants(&g, seed);
        let formulas = [&f_pp, &f_mp, &f_pm, &f_mm];
        for (model, f) in models.iter().zip(formulas) {
            let reference = evaluate_packed_recursive(model, f).unwrap();
            let plan = Plan::compile(model, f).unwrap();
            // Every mode executes the same diamonds; the forward run
            // counts them.
            let diamonds = plan.execute_with(model, DiamondMode::Forward).1.forward_diamonds;
            for mode in ALL_MODES {
                // Sequential and pool-forced execution, bit-identical
                // to the recursive engine and to each other.
                let (mut seq, ss) = plan.execute_with(model, mode);
                let (mut par, ps) = plan.execute_forced_parallel(model, mode);
                prop_assert_eq!(
                    seq.pop().unwrap(), reference.clone(),
                    "variant {:?}, mode {:?}, formula {}", model.variant(), mode, f
                );
                prop_assert_eq!(par.pop().unwrap(), reference.clone());
                prop_assert_eq!(ss.forward_diamonds, ps.forward_diamonds);
                prop_assert_eq!(ss.csc_diamonds, ps.csc_diamonds);
                prop_assert_eq!(ss.forward_diamonds + ss.csc_diamonds, diamonds);
                match mode {
                    DiamondMode::Csc => prop_assert_eq!(ss.forward_diamonds, 0),
                    DiamondMode::Forward => prop_assert_eq!(ss.csc_diamonds, 0),
                    DiamondMode::Auto => {}
                }
            }
        }
    }

    #[test]
    fn csc_mode_gathers_every_grade_one_diamond(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        // A guaranteed grade-1 diamond per variant: ⟨α⟩⊤ over the
        // model's first stored relation, which the Csc mode must
        // execute as a gather.
        for model in all_variants(&g, seed).iter() {
            let Some(index) = model.indices().next() else { continue };
            let f = Formula::diamond(index, &Formula::top());
            let reference = evaluate_packed_recursive(model, &f).unwrap();
            let plan = Plan::compile(model, &f).unwrap();
            let (mut out, stats) = plan.execute_with(model, DiamondMode::Csc);
            prop_assert_eq!(out.pop().unwrap(), reference, "variant {:?}", model.variant());
            prop_assert_eq!(stats.csc_diamonds, 1);
            prop_assert_eq!(stats.forward_diamonds, 0);
        }
    }
}

#[test]
fn explicit_grade_matrix_on_two_cycles() {
    // Deterministic {0, 1, k} coverage on a one-word and a two-word
    // universe.
    for n in [4usize, 70] {
        let k = Kripke::k_mm(&portnum_graph::generators::cycle(n));
        for grade in [0usize, 1, 2, 3] {
            let f = Formula::diamond_geq(ModalIndex::Any, grade, &Formula::prop(2));
            let reference = evaluate_packed_recursive(&k, &f).unwrap();
            let plan = Plan::compile(&k, &f).unwrap();
            for mode in ALL_MODES {
                let (mut seq, _) = plan.execute_with(&k, mode);
                let (mut par, _) = plan.execute_forced_parallel(&k, mode);
                assert_eq!(seq.pop().unwrap(), reference, "n {n}, grade {grade}, mode {mode:?}");
                assert_eq!(par.pop().unwrap(), reference, "n {n}, grade {grade}, mode {mode:?}");
            }
            // Grade 0 folds to ⊤ at lowering; the others execute one
            // diamond, which the Csc mode gathers at every grade.
            if grade > 0 {
                let (_, stats) = plan.execute_with(&k, DiamondMode::Csc);
                assert_eq!(stats.csc_diamonds, 1);
                assert_eq!(stats.forward_diamonds, 0);
            }
        }
    }
}

#[test]
fn sharded_graded_counts_merge_across_chunks() {
    // The cross-chunk counting trap: a star's hub has one predecessor
    // row holding all 300 leaves, and entry-quantile sharding splits
    // that single row across every chunk. With grade 200 no chunk can
    // reach the threshold on its own (two chunks see ≤ 150 entries
    // each, more chunks see fewer) — the hub is satisfied only if the
    // per-chunk counts are *merged before* thresholding. An
    // implementation that thresholds per chunk returns ∅ here.
    let leaves = 300usize;
    let grade = 200usize;
    let k = Kripke::k_mm(&portnum_graph::generators::star(leaves));
    // Leaves have degree 1, so ⟨⟩₂₀₀ q₁ counts the hub's 300 q₁
    // leaf-successors and holds exactly at the hub.
    let f = Formula::diamond_geq(ModalIndex::Any, grade, &Formula::prop(1));
    let reference = evaluate_packed_recursive(&k, &f).unwrap();
    assert_eq!(reference.count_ones(), 1, "only the hub sees {grade}+ leaves");
    let plan = Plan::compile(&k, &f).unwrap();
    for mode in [DiamondMode::Auto, DiamondMode::Csc] {
        let (mut seq, ss) = plan.execute_with(&k, mode);
        let (mut par, ps) = plan.execute_forced_parallel(&k, mode);
        assert_eq!(seq.pop().unwrap(), reference, "mode {mode:?}");
        assert_eq!(par.pop().unwrap(), reference, "mode {mode:?}");
        if mode == DiamondMode::Csc {
            // (Auto is free to prefer the forward sweep on a star.)
            assert_eq!(ss.csc_diamonds, 1, "graded Csc must gather");
            assert_eq!(ps.csc_diamonds, 1);
        }
    }
}
