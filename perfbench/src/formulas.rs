//! Seeded formula pools over `K₋,₋` models (the single `<*,*>`
//! modality).
//!
//! A formula's *shape* — which modal operators and connectives it uses —
//! is fixed by its position in the pool, and only its literals come from
//! the seed. Pools therefore hold the same mix of shapes under every
//! seed, and the work a pool costs varies little from seed to seed.
//! Degree atoms `q5`…`q11` sit around the mean degree 8 of the
//! benchmark's `G(n, p)` models, so truth vectors are neither empty nor
//! full.

use portnum_logic::{Formula, ModalIndex};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

const ANY: ModalIndex = ModalIndex::Any;

fn literal(rng: &mut StdRng) -> Formula {
    let atom = Formula::prop(rng.random_range(5..=11));
    if rng.random_bool(0.3) {
        atom.not()
    } else {
        atom
    }
}

/// `□`, `◇`, `◇≥2` or `◇≥3`, by the low two bits of `kind`.
fn modal(kind: usize, inner: &Formula) -> Formula {
    match kind % 4 {
        0 => Formula::box_(ANY, inner),
        grade => Formula::diamond_geq(ANY, grade, inner),
    }
}

fn combine(conjunction: bool, a: &Formula, b: &Formula) -> Formula {
    if conjunction {
        a.and(b)
    } else {
        a.or(b)
    }
}

/// Shape `s` (six bits) of `M₁(l₁ ∘₁ M₂(l₂ ∘₂ l₃))`: modal depth 2,
/// seven operators.
fn gml(shape: usize, rng: &mut StdRng) -> Formula {
    let (l1, l2, l3) = (literal(rng), literal(rng), literal(rng));
    let inner = modal(shape >> 2, &combine(shape & 16 != 0, &l2, &l3));
    modal(shape, &combine(shape & 32 != 0, &l1, &inner))
}

/// Shape `s` (two bits) of the µ/ν fixpoints over a modal-depth-1
/// guard `g`: reachability `µX. g ∨ ◇X`, attractor `µX. g ∨ □X`, graded
/// reachability `µX. g ∨ ◇≥2 X`, and safety `νX. g ∧ ◇X`.
fn fixpoint(shape: usize, rng: &mut StdRng) -> Formula {
    let (a, b, c) = (literal(rng), literal(rng), literal(rng));
    let guard = modal(1 + shape % 3, &a.and(&b)).or(&c);
    let x = Formula::var("X");
    let built = match shape % 4 {
        0 => Formula::mu("X", &guard.or(&Formula::diamond(ANY, &x))),
        1 => Formula::mu("X", &guard.or(&Formula::box_(ANY, &x))),
        2 => Formula::mu("X", &guard.or(&Formula::diamond_geq(ANY, 2, &x))),
        _ => Formula::nu("X", &guard.and(&Formula::diamond(ANY, &x))),
    };
    built.expect("every body is positive in X")
}

/// `count` pairwise distinct formulas; with `fixpoint_every` > 0, every
/// `fixpoint_every`-th one is a µ/ν fixpoint (0: none). The GML ones
/// cycle through all 64 shapes, a spread-out subset of them when fewer
/// than 64 are asked for.
pub fn pool(rng: &mut StdRng, count: usize, fixpoint_every: usize) -> Vec<Formula> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let (mut gmls, mut fixpoints) = (0usize, 0usize);
    while out.len() < count {
        let f = if fixpoint_every > 0 && out.len() % fixpoint_every == fixpoint_every - 1 {
            fixpoint(fixpoints, rng)
        } else {
            gml((gmls * 37) % 64, rng)
        };
        if seen.insert(f.to_string()) {
            if fixpoint_every > 0 && out.len() % fixpoint_every == fixpoint_every - 1 {
                fixpoints += 1;
            } else {
                gmls += 1;
            }
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pools_are_distinct_deterministic_and_round_trip() {
        let a = pool(&mut StdRng::seed_from_u64(7), 64, 8);
        let b = pool(&mut StdRng::seed_from_u64(7), 64, 8);
        assert_eq!(a, b);
        assert_eq!(
            a.iter()
                .map(ToString::to_string)
                .collect::<HashSet<_>>()
                .len(),
            64
        );
        for f in &a {
            assert_eq!(&portnum_logic::parse(&f.to_string()).unwrap(), f);
        }
        let fixpoints = a
            .iter()
            .filter(|f| f.to_string().starts_with("(mu") || f.to_string().starts_with("(nu"));
        assert_eq!(fixpoints.count(), 8);
    }
}
