//! Differential property suite for modal µ-fragment fixpoints.
//!
//! The compiled iterate-until-stable plans (frontier iteration, dense
//! fallback, all three diamond dispatch modes, sequential and forced
//! pool execution) are pinned **bit-identical** to the naive Kleene
//! reference in [`evaluate_packed_recursive`] — whole-body
//! re-evaluation per iteration, no frontier, no plan. The strategies
//! generate *closed* formulas only: every `Var` sits under a binder
//! introducing it, and negation is applied only to closed subformulas,
//! so positivity holds by construction and the checked `mu`/`nu`
//! constructors never fail.
//!
//! Two deterministic pins sit at the bottom. One asserts the frontier
//! accounting on path models: after the first dense iteration the wave
//! front is O(1) worlds per step, so total touched worlds stay
//! o(n · iterations). The other draws a fixed batch of formulas,
//! asserts the generator keeps producing nested binders, inner binders
//! that read an outer variable, and µ/ν alternation among those, and
//! checks every draw of the second kind against the Kleene reference.

mod common;

use common::{arb_graph, arb_mu_formula};
use portnum_logic::plan::{DiamondMode, ModelChecker, Plan};
use portnum_logic::{evaluate_packed_recursive, Formula, FormulaKind, Kripke, ModalIndex};
use proptest::prelude::*;
use proptest::TestRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use portnum_graph::{generators, PortNumbering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fixpoint_plans_match_kleene_on_all_variants_and_modes(
        g in arb_graph(),
        seed in any::<u64>(),
        f_pp in arb_mu_formula(ModalIndex::InOut),
        f_mp in arb_mu_formula(|_i, j| ModalIndex::Out(j)),
        f_pm in arb_mu_formula(|i, _j| ModalIndex::In(i)),
        f_mm in arb_mu_formula(|_i, _j| ModalIndex::Any),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = PortNumbering::random(&g, &mut rng);
        let cases = [
            (Kripke::k_pp(&g, &p), &f_pp),
            (Kripke::k_mp(&g, &p), &f_mp),
            (Kripke::k_pm(&g, &p), &f_pm),
            (Kripke::k_mm(&g), &f_mm),
        ];
        for (model, f) in &cases {
            let reference = evaluate_packed_recursive(model, f).unwrap();
            let plan = Plan::compile(model, f).unwrap();
            for mode in [DiamondMode::Auto, DiamondMode::Forward, DiamondMode::Csc] {
                let (mut seq, seq_stats) = plan.execute_with(model, mode);
                prop_assert_eq!(
                    seq.pop().unwrap(), reference.clone(),
                    "variant {:?}, mode {:?}, formula {}", model.variant(), mode, f
                );
                // Forced pool execution: bit-identical vectors AND
                // identical iteration counts (fixpoints always run on
                // the sequential instruction path; only their body ops
                // chunk).
                let (mut par, par_stats) = plan.execute_forced_parallel(model, mode);
                prop_assert_eq!(
                    par.pop().unwrap(), reference.clone(),
                    "forced-parallel diverged: variant {:?}, mode {:?}, formula {}",
                    model.variant(), mode, f
                );
                prop_assert_eq!(seq_stats.fixpoint_iters, par_stats.fixpoint_iters);
                prop_assert_eq!(seq_stats.fixpoints, par_stats.fixpoints);
            }
        }
    }

    #[test]
    fn checker_fixpoints_match_kleene_and_cache_cleanly(
        g in arb_graph(),
        f in arb_mu_formula(|_i, _j| ModalIndex::Any),
    ) {
        let k = Kripke::k_mm(&g);
        let reference = evaluate_packed_recursive(&k, &f).unwrap();
        let mut checker = ModelChecker::new(&k);
        let got = checker.check(&f).unwrap();
        prop_assert_eq!(&*got, &reference, "checker diverged on {}", f);
        // Cache hit: same Rc, no recomputation.
        let computed = checker.stats().computed;
        let again = checker.check(&f).unwrap();
        prop_assert!(std::rc::Rc::ptr_eq(&got, &again));
        prop_assert_eq!(checker.stats().computed, computed);
    }
}

/// The o(n · iters) pin: single-goal reachability on a path forces
/// Θ(n) iterations, yet the frontier engine touches O(1) worlds per
/// iteration after the first dense pass — so total frontier-touched
/// worlds stay far below `n × iters`, the dense engine's bill.
#[test]
fn frontier_iteration_touches_o_of_n_iters_worlds_on_paths() {
    for n in [128usize, 512, 1024] {
        let k = Kripke::k_mm(&generators::path(n));
        let f = Formula::mu(
            "X",
            &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        let plan = Plan::compile(&k, &f).unwrap();
        let (out, stats) = plan.execute_with(&k, DiamondMode::Auto);
        assert_eq!(out[0], evaluate_packed_recursive(&k, &f).unwrap(), "n = {n}");
        assert!(stats.fixpoint_iters > n / 4, "paths force long chains: {stats:?}");
        assert_eq!(stats.fixpoint_dense_passes, 1, "only the first iteration is dense");
        let dense_bill = n * stats.fixpoint_iters;
        assert!(
            stats.fixpoint_frontier_worlds * 8 < dense_bill,
            "n = {n}: frontier touched {} worlds, dense would touch {dense_bill}",
            stats.fixpoint_frontier_worlds,
        );
    }
}

/// Which nesting shapes one closed µ-formula exhibits.
#[derive(Default)]
struct Nesting {
    /// A binder inside another binder's body.
    nested: bool,
    /// An inner binder whose body reads an enclosing binder's variable.
    reads_outer: bool,
    /// Such a read across a µ/ν alternation.
    alternating: bool,
}

/// Classifies `f`. `binders` is the stack of enclosing binders (name,
/// is-ν); the generator never shadows, so a variable names exactly one
/// of them, and every binder stacked above it reads it from outside.
fn nesting(f: &Formula, binders: &mut Vec<(String, bool)>, out: &mut Nesting) {
    match f.kind() {
        FormulaKind::Top | FormulaKind::Bottom | FormulaKind::Prop(_) => {}
        FormulaKind::Var(name) => {
            let at = binders.iter().position(|(b, _)| **b == **name).expect("closed formula");
            for &(_, greatest) in &binders[at + 1..] {
                out.reads_outer = true;
                out.alternating |= greatest != binders[at].1;
            }
        }
        FormulaKind::Not(a) | FormulaKind::Diamond { inner: a, .. } => nesting(a, binders, out),
        FormulaKind::And(a, b) | FormulaKind::Or(a, b) => {
            nesting(a, binders, out);
            nesting(b, binders, out);
        }
        FormulaKind::Mu { var, body } | FormulaKind::Nu { var, body } => {
            out.nested |= !binders.is_empty();
            binders.push((var.to_string(), matches!(f.kind(), FormulaKind::Nu { .. })));
            nesting(body, binders, out);
            binders.pop();
        }
    }
}

/// Pins the generator's reach into nested and alternating fixpoints
/// (the random differential above sees only a couple of alternating
/// formulas per run), then checks every draw whose inner binder reads
/// an outer variable — the case where a nested fixpoint re-runs
/// whenever its external input flips — plan-vs-Kleene on fixed graphs.
#[test]
fn nested_and_alternating_fixpoints_are_drawn_and_match_kleene() {
    let strategy = arb_mu_formula(|_i, _j| ModalIndex::Any);
    let mut rng = TestRng::for_test("nested_and_alternating_fixpoints_are_drawn_and_match_kleene");
    let models: Vec<Kripke> = [
        generators::path(9),
        generators::cycle(6),
        generators::star(4),
        generators::figure1_graph(),
    ]
    .iter()
    .map(Kripke::k_mm)
    .collect();
    let (mut nested, mut reads_outer, mut alternating) = (0, 0, 0);
    for _ in 0..1000 {
        let f = strategy.generate(&mut rng);
        let mut shape = Nesting::default();
        nesting(&f, &mut Vec::new(), &mut shape);
        nested += usize::from(shape.nested);
        alternating += usize::from(shape.alternating);
        if !shape.reads_outer {
            continue;
        }
        reads_outer += 1;
        for k in &models {
            let (mut got, _) = Plan::compile(k, &f).unwrap().execute_with(k, DiamondMode::Auto);
            assert_eq!(got.pop().unwrap(), evaluate_packed_recursive(k, &f).unwrap(), "{f}");
        }
    }
    // This stream draws 436 / 59 / 36; the floors leave room for
    // generator tweaks but not for losing a shape.
    assert!(nested >= 350, "nested binders in {nested} of 1000 draws");
    assert!(reads_outer >= 45, "outer-variable reads in {reads_outer} of 1000 draws");
    assert!(alternating >= 25, "µ/ν alternation in {alternating} of 1000 draws");
}
