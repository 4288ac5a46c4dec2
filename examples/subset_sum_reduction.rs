//! The NP-hardness reduction of Theorem 5.1, executed for real.
//!
//! Computing an organization's Shapley contribution in the fair-scheduling
//! game is NP-hard: the paper encodes SUBSETSUM into a scheduling instance
//! where the contribution `φ(a)` of a jobless one-machine organization `a`
//! satisfies `⌊(k+2)!·φ(a)/L⌋ = n_{<x}(S)` — a count of small-sum subsets.
//! Comparing the counts for `x` and `x+1` answers whether some subset of
//! `S` sums to exactly `x`.
//!
//! This example runs the whole pipeline — build the instance, schedule
//! every coalition with the fair rule, compute the exact integer Shapley
//! value, recover the count, decide SUBSETSUM — and cross-checks against
//! brute force. It also demonstrates a **reproduction finding**: the
//! proof's assumption that organization `b` always wins the scheduling
//! decision at `t = 2x+4` is not robust under the literal REF rule; when
//! it fails, `φ(a)` goes negative, which the extractor detects and
//! reports rather than returning a wrong count.
//!
//! `cargo run --release --example subset_sum_reduction`

use fairsched::core::reduction::{
    build_instance, count_small_subsets, count_via_contribution, subset_sum_brute,
};

fn main() {
    // Cases within the reduction's domain 1 <= x < sum(S).
    let cases: Vec<(Vec<u64>, u64)> = vec![
        (vec![1, 2], 1),
        (vec![1, 2], 2),
        (vec![2, 4], 3), // no subset sums to 3
        (vec![2, 4], 2),
        (vec![1, 2, 3], 3),
        (vec![1, 3, 5], 4), // the proof's priority assumption fails here
    ];

    println!("SUBSETSUM via fair-scheduling contributions (Theorem 5.1)\n");
    println!(
        "{:<12}{:>4}{:>14}{:>14}{:>12}{:>12}",
        "S", "x", "n<x (φ)", "n<x (comb.)", "reduction", "brute force"
    );

    let mut extracted = 0;
    let mut detected = 0;
    for (s, x) in cases {
        let comb_x = count_small_subsets(&s, x);
        let brute = subset_sum_brute(&s, x);
        let via_x = count_via_contribution(&build_instance(&s, x));
        let via_x1 = count_via_contribution(&build_instance(&s, x + 1));
        match (via_x, via_x1) {
            (Some(cx), Some(cx1)) => {
                assert_eq!(cx, comb_x, "extracted count must match combinatorics");
                assert_eq!(cx1, count_small_subsets(&s, x + 1));
                let answer = cx1 > cx;
                assert_eq!(answer, brute, "reduction answer must match brute force");
                println!(
                    "{:<12}{:>4}{:>14}{:>14}{:>12}{:>12}",
                    format!("{s:?}"),
                    x,
                    cx,
                    comb_x,
                    answer,
                    brute
                );
                extracted += 1;
            }
            _ => {
                println!(
                    "{:<12}{:>4}{:>14}{:>14}{:>12}{:>12}",
                    format!("{s:?}"),
                    x,
                    "φ(a) < 0",
                    comb_x,
                    "n/a",
                    brute
                );
                detected += 1;
            }
        }
    }

    println!(
        "\n{extracted} instances: the contribution-derived count matched the combinatorial"
    );
    println!("count exactly and the SUBSETSUM answer matched brute force ✓");
    println!(
        "{detected} instance(s): the proof's idealized 'b is prioritized at 2x+4' schedule"
    );
    println!(
        "did not arise under the literal REF rule — detected (φ(a) < 0) and reported,"
    );
    println!("never silently wrong. See docs/DESIGN.md §2 for the analysis.");
}
