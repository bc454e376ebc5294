//! Answer checks that share no code with the checker's plans: digests
//! of truth vectors (compared against `evaluate_packed_recursive`) and
//! a direct stability test of a refined partition.

use portnum_logic::Kripke;
use std::collections::HashMap;

/// A 64-bit digest of packed words (order- and length-sensitive).
pub fn digest(words: &[u64]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3_u64 ^ words.len() as u64;
    for &w in words {
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    h
}

/// One digest over several word slices, in order.
pub fn digest_all<'a>(vectors: impl IntoIterator<Item = &'a [u64]>) -> u64 {
    let mut h = 0x1319_8a2e_0370_7344_u64;
    for v in vectors {
        h = (h ^ digest(v)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 31;
    }
    h
}

/// Whether `classes` is a graded bisimulation of `model`: any two
/// worlds of one class carry the same degree atom and, per relation,
/// the same multiset of successor classes. (Checks stability, not that
/// the partition is the coarsest one.)
pub fn graded_stable(model: &Kripke, classes: &[usize]) -> bool {
    if classes.len() != model.len() {
        return false;
    }
    let mut seen: HashMap<usize, (usize, Vec<Vec<usize>>)> = HashMap::new();
    for v in 0..model.len() {
        let signature: Vec<Vec<usize>> = (0..model.relation_count())
            .map(|r| {
                let mut succ: Vec<usize> = model
                    .successors_dense(r, v)
                    .iter()
                    .map(|&w| classes[w as usize])
                    .collect();
                succ.sort_unstable();
                succ
            })
            .collect();
        let key = (model.degree(v), signature);
        match seen.get(&classes[v]) {
            Some(first) if *first != key => return false,
            Some(_) => {}
            None => {
                seen.insert(classes[v], key);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use portnum_graph::generators;

    #[test]
    fn stability_oracle_accepts_orbits_and_rejects_merges() {
        let k = Kripke::k_mm(&generators::path(4));
        // Ends {0, 3} and middles {1, 2} are graded-bisimilar.
        assert!(graded_stable(&k, &[0, 1, 1, 0]));
        // Merging an end with a middle breaks the degree atom.
        assert!(!graded_stable(&k, &[0, 0, 1, 1]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }
}
