//! Helpers shared by the root differential tests.

use mlf_core::MaxMinSolution;

/// Assert an optimized solve and a frozen-reference solve agree bit for
/// bit: iteration counts, freeze reasons, and every rate by `to_bits`.
pub fn assert_bitwise(label: &str, optimized: &MaxMinSolution, reference: &MaxMinSolution) {
    // PartialEq on MaxMinSolution compares f64 rates by value; spell the
    // bit-level comparison out so -0.0/0.0 or NaN drift cannot hide.
    assert_eq!(
        optimized.iterations, reference.iterations,
        "{label}: iteration counts diverged"
    );
    assert_eq!(optimized.reasons, reference.reasons, "{label}: reasons");
    let a = optimized.allocation.rates();
    let b = reference.allocation.rates();
    assert_eq!(a.len(), b.len(), "{label}: session count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{label}: receiver count of s{i}");
        for (k, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: r{i},{k} differs: {x} vs {y}"
            );
        }
    }
}
