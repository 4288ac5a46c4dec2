//! Exact Shapley value computation by subset enumeration.
//!
//! The Shapley value of player `u` in game `v` on player set `N` is
//!
//! ```text
//! φ_u(v) = Σ_{S ⊆ N∖{u}}  |S|! (|N|−|S|−1)! / |N|!  · (v(S ∪ {u}) − v(S))
//! ```
//!
//! (Equation 1 of the paper). Enumerating all `2^n` coalitions costs
//! `O(n·2^n)` value evaluations when values are cached, which is exactly the
//! `‖O‖·3^‖O‖`-style cost the paper quotes for its REF algorithm
//! (Proposition 3.4) and makes the fair-scheduling problem fixed-parameter
//! tractable in the number of organizations (Corollary 3.5).

use crate::{factorial, Coalition, Player};

/// Exact Shapley values of all `n` players, evaluating `v` once per
/// coalition (`2^n` evaluations, cached internally).
///
/// `v(Coalition::EMPTY)` is read but a proper characteristic function should
/// return 0 there; the result is correct either way because only marginal
/// differences are used together with the efficiency normalization.
///
/// # Panics
/// Panics if `n > 24` (value cache size) — the intended use is small player
/// counts, matching the paper's FPT setting.
pub fn shapley_exact(n: usize, mut v: impl FnMut(Coalition) -> f64) -> Vec<f64> {
    assert!(n <= 24, "exact Shapley supports at most 24 players");
    if n == 0 {
        return Vec::new();
    }
    let size = 1usize << n;
    let mut cache = Vec::with_capacity(size);
    for bits in 0..size as u64 {
        cache.push(v(Coalition::from_bits(bits)));
    }
    shapley_from_table(n, &cache)
}

/// Exact Shapley values from a precomputed dense value table indexed by
/// coalition bitmask (`table.len() == 2^n`).
pub fn shapley_from_table(n: usize, table: &[f64]) -> Vec<f64> {
    assert_eq!(table.len(), 1usize << n, "table length must be 2^n");
    let n_fact = factorial(n) as f64;
    // Precompute the permutation weights w(s) = s!(n-s-1)!/n! once.
    let weights: Vec<f64> =
        (0..n).map(|s| (factorial(s) * factorial(n - s - 1)) as f64 / n_fact).collect();
    let grand = Coalition::grand(n);
    let mut phi = vec![0.0; n];
    for (u, phi_u) in phi.iter_mut().enumerate() {
        let player = Player(u);
        let others = grand.remove(player);
        let mut acc = 0.0;
        for s in others.subsets() {
            let with_u = s.insert(player);
            acc += weights[s.len()]
                * (table[with_u.bits() as usize] - table[s.bits() as usize]);
        }
        *phi_u = acc;
    }
    phi
}

/// Exact integer Shapley values **scaled by `n!`**.
///
/// Returns `φ_u · n!` for every player, computed entirely in `i128`:
///
/// ```text
/// φ_u · n! = Σ_{S ⊆ N∖{u}} |S|! (n−|S|−1)! (v(S∪{u}) − v(S))
/// ```
///
/// This is the form the NP-hardness reduction of Theorem 5.1 needs — it
/// recovers `⌊(k+2)!·φ(a)/L⌋` exactly, which floating point cannot do once
/// the large job `L` dominates. It is also used by the scheduler so that
/// contribution comparisons are exact.
///
/// # Panics
/// Panics if `n > 24`, or on `i128` overflow in debug builds (the
/// fair-scheduling utilities fit comfortably; see docs/DESIGN.md §2).
pub fn shapley_exact_scaled(n: usize, mut v: impl FnMut(Coalition) -> i128) -> Vec<i128> {
    assert!(n <= 24, "exact Shapley supports at most 24 players");
    if n == 0 {
        return Vec::new();
    }
    let size = 1usize << n;
    let mut cache = Vec::with_capacity(size);
    for bits in 0..size as u64 {
        cache.push(v(Coalition::from_bits(bits)));
    }
    shapley_from_table_scaled(n, &cache)
}

/// Integer variant of [`shapley_from_table`]; returns `φ_u · n!`.
pub fn shapley_from_table_scaled(n: usize, table: &[i128]) -> Vec<i128> {
    assert_eq!(table.len(), 1usize << n, "table length must be 2^n");
    let weights: Vec<i128> =
        (0..n).map(|s| (factorial(s) * factorial(n - s - 1)) as i128).collect();
    let grand = Coalition::grand(n);
    let mut phi = vec![0i128; n];
    for (u, phi_u) in phi.iter_mut().enumerate() {
        let player = Player(u);
        let others = grand.remove(player);
        let mut acc: i128 = 0;
        for s in others.subsets() {
            let with_u = s.insert(player);
            acc += weights[s.len()]
                * (table[with_u.bits() as usize] - table[s.bits() as usize]);
        }
        *phi_u = acc;
    }
    phi
}

/// The Banzhaf index (normalized marginal-contribution count), a second
/// classical power index provided for comparison with the Shapley value.
///
/// `β_u = 2^{1−n} Σ_{S ⊆ N∖{u}} (v(S∪{u}) − v(S))`.
pub fn banzhaf(n: usize, mut v: impl FnMut(Coalition) -> f64) -> Vec<f64> {
    assert!(n <= 24, "banzhaf supports at most 24 players");
    if n == 0 {
        return Vec::new();
    }
    let size = 1usize << n;
    let mut cache = Vec::with_capacity(size);
    for bits in 0..size as u64 {
        cache.push(v(Coalition::from_bits(bits)));
    }
    let grand = Coalition::grand(n);
    let scale = 1.0 / (1u64 << (n - 1)) as f64;
    (0..n)
        .map(|u| {
            let player = Player(u);
            let others = grand.remove(player);
            let mut acc = 0.0;
            for s in others.subsets() {
                let with_u = s.insert(player);
                acc += cache[with_u.bits() as usize] - cache[s.bits() as usize];
            }
            acc * scale
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TabularGame;
    use proptest::prelude::*;

    fn additive_game(weights: &[f64]) -> impl FnMut(Coalition) -> f64 + '_ {
        move |c| c.members().map(|p| weights[p.0]).sum()
    }

    #[test]
    fn additive_game_gets_own_weight() {
        let w = [3.0, 1.0, 4.0, 1.5];
        let phi = shapley_exact(4, additive_game(&w));
        for (a, b) in phi.iter().zip(&w) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn gloves_game_splits_evenly() {
        let phi = shapley_exact(2, |c| if c.len() == 2 { 1.0 } else { 0.0 });
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((phi[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn majority_game_three_players() {
        // v = 1 iff |C| >= 2: classic symmetric majority game, phi = 1/3 each.
        let phi = shapley_exact(3, |c| if c.len() >= 2 { 1.0 } else { 0.0 });
        for p in phi {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ump_airport_game() {
        // Airport game with costs 1,2,3: v(C) = max cost in C.
        // Known Shapley values: 1/3, 1/3+1/2, 1/3+1/2+1 = (0.3333, 0.8333, 1.8333).
        let costs = [1.0, 2.0, 3.0];
        let phi =
            shapley_exact(3, |c| c.members().map(|p| costs[p.0]).fold(0.0, f64::max));
        assert!((phi[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((phi[1] - (1.0 / 3.0 + 0.5)).abs() < 1e-12);
        assert!((phi[2] - (1.0 / 3.0 + 0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn scaled_matches_float() {
        // Random-ish integer game; compare scaled/int against float.
        let v = |c: Coalition| (c.bits() as i128) * (c.len() as i128 + 1);
        let n = 5;
        let scaled = shapley_exact_scaled(n, v);
        let float = shapley_exact(n, |c| v(c) as f64);
        let n_fact = factorial(n) as f64;
        for (s, f) in scaled.iter().zip(&float) {
            assert!((*s as f64 / n_fact - f).abs() < 1e-9);
        }
    }

    #[test]
    fn scaled_efficiency_exact() {
        let v = |c: Coalition| (c.bits() as i128).pow(2) % 1000;
        let n = 6;
        let scaled = shapley_exact_scaled(n, v);
        let total: i128 = scaled.iter().sum();
        let vn = v(Coalition::grand(n)) - v(Coalition::EMPTY);
        assert_eq!(total, vn * factorial(n) as i128);
    }

    #[test]
    fn banzhaf_additive_game() {
        let w = [2.0, 5.0];
        let b = banzhaf(2, additive_game(&w));
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_players() {
        assert!(shapley_exact(0, |_| 0.0).is_empty());
        assert!(shapley_exact_scaled(0, |_| 0).is_empty());
    }

    proptest! {
        // Efficiency: Σφ = v(N) − v(∅) on random games.
        #[test]
        fn prop_efficiency(values in proptest::collection::vec(-100.0f64..100.0, 16)) {
            let mut values = values;
            values[0] = 0.0;
            let g = TabularGame::from_values(values);
            let phi = shapley_exact(4, |c| g.value(c));
            let total: f64 = phi.iter().sum();
            prop_assert!((total - g.value(Coalition::grand(4))).abs() < 1e-9);
        }

        // Dummy: a player with zero marginal contribution everywhere gets 0.
        #[test]
        fn prop_dummy_player(values in proptest::collection::vec(0.0f64..50.0, 8)) {
            // Build a 4-player game where player 3 is dummy: value depends
            // only on the first three players.
            let mut base = values;
            base[0] = 0.0;
            let g = TabularGame::from_fn(4, |c| {
                base[(c.bits() & 0b111) as usize]
            });
            let phi = shapley_exact(4, |c| g.value(c));
            prop_assert!(phi[3].abs() < 1e-9);
        }

        // Symmetry: permuting two symmetric players leaves values equal.
        #[test]
        fn prop_symmetry(seed in 0u64..10_000) {
            // A game that depends only on coalition size is symmetric in all
            // players; perturb deterministically by seed.
            let g = TabularGame::from_fn(5, |c| {
                ((c.len() as u64 * 7919 + seed) % 1000) as f64
            });
            let phi = shapley_exact(5, |c| g.value(c));
            for w in phi.windows(2) {
                prop_assert!((w[0] - w[1]).abs() < 1e-9);
            }
        }

        // Additivity: φ(v+w) = φ(v) + φ(w).
        #[test]
        fn prop_additivity(
            a in proptest::collection::vec(-10.0f64..10.0, 8),
            b in proptest::collection::vec(-10.0f64..10.0, 8),
        ) {
            let (mut a, mut b) = (a, b);
            a[0] = 0.0;
            b[0] = 0.0;
            let ga = TabularGame::from_values(a);
            let gb = TabularGame::from_values(b);
            let gsum = ga.sum(&gb);
            let pa = shapley_exact(3, |c| ga.value(c));
            let pb = shapley_exact(3, |c| gb.value(c));
            let ps = shapley_exact(3, |c| gsum.value(c));
            for i in 0..3 {
                prop_assert!((ps[i] - pa[i] - pb[i]).abs() < 1e-9);
            }
        }
    }
}
