//! Model checking: evaluating formulas over all worlds of a Kripke model.
//!
//! [`evaluate_packed`] compiles the formula into a one-shot
//! [`Plan`](crate::plan::Plan) — a hash-consed, topologically ordered
//! instruction list — and runs it as a linear loop. Structurally equal
//! subformulas are evaluated once *even when they share no memory*, and
//! diamond instructions pick between the forward CSR walk and the
//! reverse predecessor-row union per instruction (see
//! [`crate::plan`] for the lowering, slot-recycling, and cost-heuristic
//! details). Checking many formulas against one model? Use
//! [`Plan::compile_suite`](crate::plan::Plan::compile_suite) or the
//! incremental [`ModelChecker`](crate::plan::ModelChecker) instead of
//! repeated `evaluate_packed` calls.
//!
//! # Packed truth vectors
//!
//! Truth vectors are [`Bitset`]s — one bit per world, 64 worlds per
//! `u64` word — so the propositional connectives (`¬`, `∧`, `∨`) are
//! word-parallel loops instead of per-world byte ops.
//!
//! [`evaluate_packed`] is the native entry point; [`evaluate`] /
//! [`satisfies`] / [`extension`] are thin views over it kept for callers
//! that want `Vec<bool>` / a single world / a world list.
//!
//! # The recursive reference engine
//!
//! [`evaluate_packed_recursive`] is the pre-plan engine: a bottom-up
//! walk over the `Arc`-linked AST memoising by pointer identity. It is
//! kept as the differential-testing reference (the proptests pin plans
//! bit-identical to it) and as the baseline the benches measure plans
//! against.
//!
//! # Fixpoints
//!
//! Both engines evaluate the modal µ-fragment. The recursive engine is
//! the *naive Kleene reference*: `µX.φ` starts from `⊥` (`νX.φ` from
//! `⊤`) and re-evaluates the whole body until the approximation is
//! stable — monotonicity (enforced at construction) bounds this at
//! `n + 1` iterations. The memo is bypassed while any variable is in
//! scope, so every iteration is a full bottom-up pass: deliberately
//! simple, deliberately slow, and exactly what the compiled
//! frontier-iterating plans (see [`crate::plan`]) are pinned
//! bit-identical to.

use crate::error::LogicError;
use crate::formula::{Formula, FormulaKind};
use crate::kripke::Kripke;
use crate::plan::{DiamondMode, Plan};
use portnum_graph::bitset::Bitset;
use portnum_graph::partition::FxHashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Evaluates `formula` at every world of `model`, packed one bit per
/// world.
///
/// Compiles a single-formula [`Plan`](crate::plan::Plan) and executes
/// it; see the module docs for when to hold a suite-level plan instead.
///
/// # Errors
///
/// Returns [`LogicError::FamilyMismatch`] if the formula uses modalities
/// from a different index family than the model interprets.
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::{evaluate_packed, Formula, Kripke, ModalIndex};
///
/// let k = Kripke::k_mm(&generators::path(3));
/// let f = Formula::box_(ModalIndex::Any, &Formula::prop(1));
/// let truth = evaluate_packed(&k, &f)?;
/// assert_eq!(truth.to_bools(), vec![false, true, false]);
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
pub fn evaluate_packed(model: &Kripke, formula: &Formula) -> Result<Bitset, LogicError> {
    let (mut truths, _) = Plan::compile(model, formula)?.execute_with(model, DiamondMode::Auto);
    Ok(truths.pop().expect("one root per formula"))
}

/// The recursive, pointer-memoised evaluator — the reference
/// implementation plans are differential-tested against.
///
/// Prefer [`evaluate_packed`]: this engine recomputes structurally
/// equal subformulas that do not share `Arc`s and never uses the
/// reverse diamond path.
///
/// # Errors
///
/// See [`evaluate_packed`].
pub fn evaluate_packed_recursive(model: &Kripke, formula: &Formula) -> Result<Bitset, LogicError> {
    let mut memo: FxHashMap<*const FormulaKind, Rc<Bitset>> = FxHashMap::default();
    let result = eval_rec(model, formula, &mut memo, &mut Vec::new())?;
    drop(memo);
    // The memo is gone, so the root Rc is unique unless the root formula
    // shares a node with itself (impossible); unwrap without copying.
    Ok(Rc::try_unwrap(result).unwrap_or_else(|rc| (*rc).clone()))
}

/// Evaluates `formula` at every world of `model`, as one `bool` per
/// world.
///
/// Compatibility wrapper over [`evaluate_packed`]; prefer the packed
/// form in new code — it is what the evaluator computes natively.
///
/// # Errors
///
/// See [`evaluate_packed`].
///
/// # Examples
///
/// ```
/// use portnum_graph::generators;
/// use portnum_logic::{evaluate, Formula, Kripke, ModalIndex};
///
/// let k = Kripke::k_mm(&generators::path(3));
/// // "all my neighbours have degree 1" — true only at the middle node?
/// // No: the ends have a single degree-2 neighbour, the middle has two
/// // degree-1 neighbours.
/// let f = Formula::box_(ModalIndex::Any, &Formula::prop(1));
/// assert_eq!(evaluate(&k, &f)?, vec![false, true, false]);
/// # Ok::<(), portnum_logic::LogicError>(())
/// ```
pub fn evaluate(model: &Kripke, formula: &Formula) -> Result<Vec<bool>, LogicError> {
    Ok(evaluate_packed(model, formula)?.to_bools())
}

/// Evaluates `formula` at a single world.
///
/// # Errors
///
/// See [`evaluate_packed`].
pub fn satisfies(model: &Kripke, world: usize, formula: &Formula) -> Result<bool, LogicError> {
    Ok(evaluate_packed(model, formula)?.get(world))
}

/// The extension `‖formula‖` as a set of world ids, driven directly by
/// [`Bitset::iter_ones`] on the packed result (no intermediate
/// `Vec<bool>`).
///
/// # Errors
///
/// See [`evaluate_packed`].
pub fn extension(model: &Kripke, formula: &Formula) -> Result<Vec<usize>, LogicError> {
    Ok(evaluate_packed(model, formula)?.iter_ones().collect())
}

fn eval_rec(
    model: &Kripke,
    formula: &Formula,
    memo: &mut FxHashMap<*const FormulaKind, Rc<Bitset>>,
    env: &mut Vec<(Arc<str>, Rc<Bitset>)>,
) -> Result<Rc<Bitset>, LogicError> {
    let key = formula.kind() as *const FormulaKind;
    // Reading the memo is sound even under binders: an entry only exists
    // for a subformula that evaluated without any environment, i.e. a
    // closed one, whose value cannot depend on the variables in scope.
    if let Some(cached) = memo.get(&key) {
        return Ok(Rc::clone(cached));
    }
    let n = model.len();
    let result: Bitset = match formula.kind() {
        FormulaKind::Top => Bitset::ones(n),
        FormulaKind::Bottom => Bitset::zeros(n),
        FormulaKind::Prop(d) => Bitset::from_fn(n, |v| model.degree(v) == *d),
        FormulaKind::Not(a) => {
            let inner = eval_rec(model, a, memo, env)?;
            inner.not()
        }
        FormulaKind::And(a, b) => {
            let left = eval_rec(model, a, memo, env)?;
            let right = eval_rec(model, b, memo, env)?;
            left.and(&right)
        }
        FormulaKind::Or(a, b) => {
            let left = eval_rec(model, a, memo, env)?;
            let right = eval_rec(model, b, memo, env)?;
            left.or(&right)
        }
        FormulaKind::Var(name) => {
            return match env.iter().rev().find(|(v, _)| v == name) {
                Some((_, val)) => Ok(Rc::clone(val)),
                None => Err(LogicError::UnboundVariable { name: name.to_string() }),
            };
        }
        FormulaKind::Mu { var, body } | FormulaKind::Nu { var, body } => {
            // Naive Kleene iteration: re-evaluate the whole body against
            // the current approximation until it stabilises. Construction
            // guarantees the body monotone in `var`, so each world's bit
            // moves at most once and the loop ends within n + 1 rounds.
            let greatest = matches!(formula.kind(), FormulaKind::Nu { .. });
            let mut x = Rc::new(if greatest { Bitset::ones(n) } else { Bitset::zeros(n) });
            let mut rounds = 0usize;
            loop {
                env.push((var.clone(), Rc::clone(&x)));
                let next = eval_rec(model, body, memo, env);
                env.pop().expect("pushed above");
                let next = next?;
                if *next == *x {
                    break;
                }
                x = next;
                rounds += 1;
                assert!(rounds <= n + 1, "fixpoint failed to converge: body not monotone?");
            }
            if env.is_empty() {
                memo.insert(key, Rc::clone(&x));
            }
            return Ok(x);
        }
        FormulaKind::Diamond { index, grade, inner } => {
            if index.family() != model.variant().family() {
                return Err(LogicError::FamilyMismatch {
                    expected: model.variant().family(),
                    found: index.family(),
                });
            }
            let sat = eval_rec(model, inner, memo, env)?;
            if *grade == 0 {
                // ⟨α⟩≥0 φ is vacuously true, with or without a stored
                // relation.
                return cache(memo, key, Bitset::ones(n), env.is_empty());
            }
            // Resolve the relation once per diamond, not once per world,
            // and test successor bits on the raw words: the successor
            // loop is the evaluator's hottest code and `w` is already
            // range-checked by construction (CSR targets are world ids).
            let sat_words = sat.words();
            let test = |w: u32| sat_words[(w >> 6) as usize] >> (w & 63) & 1 == 1;
            match model.relation_id(*index) {
                None => Bitset::zeros(n),
                Some(r) => {
                    let (offsets, targets) = model.relation_rows(r);
                    // `from_fn` visits worlds in order, so the row start
                    // is carried instead of re-read each iteration.
                    let mut start = offsets[0];
                    Bitset::from_fn(n, |v| {
                        let end = offsets[v + 1];
                        let row = &targets[start..end];
                        start = end;
                        let mut count = 0usize;
                        // Early-exit once the grade is met: successors
                        // past the threshold cannot change the answer
                        // (for grade 1 — the common case — this stops at
                        // the first satisfying successor).
                        row.iter().any(|&w| {
                            count += test(w) as usize;
                            count >= *grade
                        })
                    })
                }
            }
        }
    };
    cache(memo, key, result, env.is_empty())
}

/// Wraps `result` in a shared handle, memoising it under `key` only when
/// `memoise` is set — entries written while fixpoint variables are in
/// scope could capture environment-dependent values, so the naive
/// reference simply recomputes inside binders.
fn cache(
    memo: &mut FxHashMap<*const FormulaKind, Rc<Bitset>>,
    key: *const FormulaKind,
    result: Bitset,
    memoise: bool,
) -> Result<Rc<Bitset>, LogicError> {
    let result = Rc::new(result);
    if memoise {
        memo.insert(key, Rc::clone(&result));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::ModalIndex;
    use portnum_graph::{generators, PortNumbering};

    #[test]
    fn propositional_connectives() {
        let k = Kripke::k_mm(&generators::star(2));
        let q2 = Formula::prop(2);
        let q1 = Formula::prop(1);
        assert_eq!(evaluate(&k, &q2).unwrap(), vec![true, false, false]);
        assert_eq!(evaluate(&k, &q2.not()).unwrap(), vec![false, true, true]);
        assert_eq!(evaluate(&k, &q2.or(&q1)).unwrap(), vec![true, true, true]);
        assert_eq!(evaluate(&k, &q2.and(&q1)).unwrap(), vec![false, false, false]);
        assert_eq!(evaluate(&k, &Formula::top()).unwrap(), vec![true; 3]);
        assert_eq!(evaluate(&k, &Formula::bottom()).unwrap(), vec![false; 3]);
    }

    #[test]
    fn graded_diamonds_count() {
        // Star with 3 leaves: the centre has 3 degree-1 successors.
        let k = Kripke::k_mm(&generators::star(3));
        let q1 = Formula::prop(1);
        for grade in 0..=4 {
            let f = Formula::diamond_geq(ModalIndex::Any, grade, &q1);
            let expected_centre = grade <= 3;
            assert_eq!(satisfies(&k, 0, &f).unwrap(), expected_centre, "grade {grade}");
        }
        // A leaf has one successor (the centre, degree 3), so ⟨⟩≥1 q1 fails.
        assert!(!satisfies(&k, 1, &Formula::diamond(ModalIndex::Any, &q1)).unwrap());
    }

    #[test]
    fn port_indexed_modalities() {
        let g = generators::path(3);
        let p = PortNumbering::consistent(&g);
        let k = Kripke::k_pp(&g, &p);
        // Node 0's in-port 0 is fed by node 1; which out-port node 1 uses
        // depends on the canonical numbering: edge (0,1) pairs port 0 with
        // port 0, so ⟨(0,0)⟩ q2 holds at node 0 (node 1 has degree 2).
        let f = Formula::diamond(ModalIndex::InOut(0, 0), &Formula::prop(2));
        assert!(satisfies(&k, 0, &f).unwrap());
        // Out-of-range ports give empty relations, never panics.
        let g5 = Formula::diamond(ModalIndex::InOut(5, 5), &Formula::top());
        assert_eq!(evaluate(&k, &g5).unwrap(), vec![false; 3]);
    }

    #[test]
    fn grade_zero_diamonds_hold_everywhere() {
        // ⟨α⟩≥0 φ is vacuously true, with or without a stored relation.
        let k = Kripke::k_mm(&generators::path(3));
        let f = Formula::diamond_geq(ModalIndex::Any, 0, &Formula::bottom());
        assert_eq!(evaluate(&k, &f).unwrap(), vec![true; 3]);
        let kp = Kripke::k_pp(&generators::path(3), &PortNumbering::consistent(&generators::path(3)));
        let g0 = Formula::diamond_geq(ModalIndex::InOut(9, 9), 0, &Formula::bottom());
        assert_eq!(evaluate(&kp, &g0).unwrap(), vec![true; 3]);
    }

    #[test]
    fn family_mismatch_is_an_error() {
        let k = Kripke::k_mm(&generators::cycle(3));
        let f = Formula::diamond(ModalIndex::Out(0), &Formula::top());
        assert!(matches!(
            evaluate(&k, &f),
            Err(LogicError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn extension_collects_worlds() {
        let k = Kripke::k_mm(&generators::star(3));
        let f = Formula::prop(1);
        assert_eq!(extension(&k, &f).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn packed_and_unpacked_agree() {
        let k = Kripke::k_mm(&generators::grid(3, 3));
        let f = Formula::box_(ModalIndex::Any, &Formula::prop(2))
            .or(&Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(3)).not());
        let packed = evaluate_packed(&k, &f).unwrap();
        assert_eq!(packed.to_bools(), evaluate(&k, &f).unwrap());
        assert_eq!(packed.len(), k.len());
        let ext = extension(&k, &f).unwrap();
        assert!(ext.iter().all(|&v| packed.get(v)));
        assert_eq!(ext.len(), packed.count_ones());
    }

    #[test]
    fn shared_subformulas_evaluate_once() {
        // Build a deeply shared formula: f_{n+1} = f_n & f_n. Without
        // memoisation this would take 2^40 steps.
        let mut f = Formula::prop(2);
        for _ in 0..40 {
            f = f.and(&f);
        }
        let k = Kripke::k_mm(&generators::cycle(5));
        assert_eq!(evaluate(&k, &f).unwrap(), vec![true; 5]);
    }

    #[test]
    fn plan_and_recursive_engines_agree() {
        let k = Kripke::k_mm(&generators::grid(3, 4));
        let f = Formula::box_(ModalIndex::Any, &Formula::prop(3))
            .or(&Formula::diamond_geq(ModalIndex::Any, 2, &Formula::prop(2)))
            .and(&Formula::diamond(ModalIndex::Any, &Formula::prop(4)).not());
        assert_eq!(
            evaluate_packed(&k, &f).unwrap(),
            evaluate_packed_recursive(&k, &f).unwrap()
        );
    }

    #[test]
    fn fixpoint_reachability_on_a_path() {
        // path(6): degrees are 1,2,2,2,2,1. µX. q1 ∨ ◇X = "some world of
        // degree 1 is reachable" — everywhere on a connected graph.
        let k = Kripke::k_mm(&generators::path(6));
        let reach = Formula::mu(
            "X",
            &Formula::prop(1).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        assert_eq!(evaluate(&k, &reach).unwrap(), vec![true; 6]);
        // µX. q7 ∨ ◇X with no q7 world: empty.
        let none = Formula::mu(
            "X",
            &Formula::prop(7).or(&Formula::diamond(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        assert_eq!(evaluate(&k, &none).unwrap(), vec![false; 6]);
        // νX. q2 ∧ ◻X = "every reachable world has degree 2" — false
        // everywhere (the endpoints are reachable from everywhere).
        let safe = Formula::nu(
            "X",
            &Formula::prop(2).and(&Formula::box_(ModalIndex::Any, &Formula::var("X"))),
        )
        .unwrap();
        assert_eq!(evaluate(&k, &safe).unwrap(), vec![false; 6]);
        // Degenerate binders.
        assert_eq!(
            evaluate(&k, &Formula::mu("X", &Formula::var("X")).unwrap()).unwrap(),
            vec![false; 6]
        );
        assert_eq!(
            evaluate(&k, &Formula::nu("X", &Formula::var("X")).unwrap()).unwrap(),
            vec![true; 6]
        );
    }

    #[test]
    fn fixpoint_nesting_and_unbound_errors() {
        let k = Kripke::k_mm(&generators::star(3));
        // νY. µX. (X ∨ Y-guarded): the inner µ sees the outer variable.
        let inner = Formula::var("X").or(&Formula::diamond(ModalIndex::Any, &Formula::var("Y")));
        let f = Formula::nu("Y", &Formula::mu("X", &inner).unwrap()).unwrap();
        // µX.(X ∨ ◇Y) = ◇Y, so the ν iterates ◇ to its greatest fixpoint:
        // on a connected graph with edges both ways, everything stays true.
        assert_eq!(evaluate(&k, &f).unwrap(), vec![true; 4]);
        // A free variable is a typed error, not a panic.
        assert_eq!(
            evaluate(&k, &Formula::var("Z")),
            Err(LogicError::UnboundVariable { name: "Z".into() })
        );
        let open = Formula::mu("X", &Formula::var("X").or(&Formula::var("Z"))).unwrap();
        assert!(matches!(
            evaluate_packed_recursive(&k, &open),
            Err(LogicError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn box_is_dual() {
        let g = generators::star(3);
        let k = Kripke::k_mm(&g);
        let f = Formula::box_(ModalIndex::Any, &Formula::prop(1));
        // Centre: all neighbours are leaves -> true. Leaf: neighbour is the
        // centre (degree 3) -> false.
        assert_eq!(evaluate(&k, &f).unwrap(), vec![true, false, false, false]);
    }
}
