//! Per-link packet-loss processes.
//!
//! Section 4 models loss (equivalently, ECN congestion marking) as a
//! **Bernoulli** process per link, arguing this is accurate when links carry
//! many flows so one flow's rate barely moves the link's loss rate
//! (Yajnik et al.). We implement that model plus a **Gilbert–Elliott**
//! two-state burst-loss process as a clearly-flagged extension: the paper's
//! related-work section points at temporal loss correlation as exactly the
//! thing its Bernoulli model abstracts away, and the Figure 8 ablation
//! benches quantify how much burstiness moves the redundancy curves.

use crate::rng::SimRng;

/// A packet-loss process for one link.
#[derive(Debug, Clone, PartialEq)]
pub enum LossProcess {
    /// Independent loss with fixed probability `p` (the paper's model).
    Bernoulli {
        /// Loss probability per packet.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) burst loss. The chain moves
    /// between a Good and a Bad state; each state has its own loss rate.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_good_to_bad: f64,
        /// P(Bad → Good) per packet.
        p_bad_to_good: f64,
        /// Loss probability while Good (usually ≈ 0).
        loss_good: f64,
        /// Loss probability while Bad (usually large).
        loss_bad: f64,
        /// Current state: `true` = Bad.
        in_bad: bool,
    },
}

impl LossProcess {
    /// A Bernoulli process with per-packet loss probability `p`.
    pub fn bernoulli(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        LossProcess::Bernoulli { p }
    }

    /// A Gilbert–Elliott process started in the Good state.
    pub(crate) fn gilbert_elliott(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for p in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        LossProcess::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// A Gilbert–Elliott process with the same *average* loss rate as a
    /// Bernoulli process of rate `p`, with mean burst length `burst` (in
    /// packets) and lossless Good state. Useful for like-for-like ablations.
    ///
    /// Stationary Bad probability `π_b = p / loss_bad`; with `loss_bad = 1`
    /// and mean Bad dwell `burst = 1/p_bg`, we need `π_b = p`, i.e.
    /// `p_gb = p_bg · p / (1 − p)`.
    pub fn bursty_with_average(p: f64, burst: f64) -> Self {
        assert!((0.0..1.0).contains(&p) && burst >= 1.0);
        let p_bg = 1.0 / burst;
        let p_gb = (p_bg * p / (1.0 - p)).min(1.0);
        Self::gilbert_elliott(p_gb, p_bg, 0.0, 1.0)
    }

    /// Draw the fate of one packet: `true` = lost. Advances internal state
    /// for the Markov variant.
    pub fn sample(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LossProcess::Bernoulli { p } => rng.bernoulli(*p),
            LossProcess::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                in_bad,
            } => {
                // Transition first, then draw loss in the new state; the
                // order is a modelling convention, fixed for determinism.
                if *in_bad {
                    if rng.bernoulli(*p_bad_to_good) {
                        *in_bad = false;
                    }
                } else if rng.bernoulli(*p_good_to_bad) {
                    *in_bad = true;
                }
                let p = if *in_bad { *loss_bad } else { *loss_good };
                rng.bernoulli(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_empirical_rate() {
        let mut lp = LossProcess::bernoulli(0.05);
        let mut rng = SimRng::seed_from_u64(1);
        let n = 100_000;
        let losses = (0..n).filter(|_| lp.sample(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_matches_target_average() {
        let mut lp = LossProcess::bursty_with_average(0.05, 10.0);
        let mut rng = SimRng::seed_from_u64(2);
        let n = 400_000;
        let losses = (0..n).filter(|_| lp.sample(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Measure mean run length of consecutive losses; must exceed the
        // Bernoulli expectation (~1/(1-p) ≈ 1.05) by a wide margin.
        let mut lp = LossProcess::bursty_with_average(0.05, 10.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut runs = 0usize;
        let mut losses = 0usize;
        let mut in_run = false;
        for _ in 0..200_000 {
            if lp.sample(&mut rng) {
                losses += 1;
                if !in_run {
                    runs += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        let mean_run = losses as f64 / runs as f64;
        assert!(mean_run > 3.0, "mean burst length {mean_run}");
    }

    #[test]
    fn zero_and_one_probabilities() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut never = LossProcess::bernoulli(0.0);
        let mut always = LossProcess::bernoulli(1.0);
        for _ in 0..100 {
            assert!(!never.sample(&mut rng));
            assert!(always.sample(&mut rng));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_probability() {
        let _ = LossProcess::bernoulli(1.5);
    }
}
