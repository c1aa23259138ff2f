//! The output checks behind `error_rate`: every check is one attempted
//! comparison, and `failed / attempted` is the run's error rate.

use crate::util::Json;

/// A ledger of output checks.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` names it in the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// `failed / attempted` (0 when nothing was checked).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// The run-record form: counts plus the first few failure messages.
    pub fn record(&self) -> Json {
        Json::obj([
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed())),
            ("error_rate", Json::Num(self.error_rate())),
            (
                "failures",
                Json::Arr(self.failures.iter().take(20).map(Json::str).collect()),
            ),
        ])
    }
}

/// Bitwise float equality (`0.0` and `-0.0` differ; equal NaNs agree).
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_failures_against_attempts() {
        let mut c = Checks::default();
        c.check(true, || "never".into());
        c.check(false, || "bad point".into());
        c.check(true, || "never".into());
        c.check(false, || "bad digest".into());
        assert_eq!((c.attempted(), c.failed()), (4, 2));
        assert_eq!(c.error_rate(), 0.5);
        assert_eq!(Checks::default().error_rate(), 0.0);
        assert!(c.record().render().contains("\"bad point\""));
    }

    #[test]
    fn float_comparison_is_bitwise() {
        assert!(same_bits(1.5, 1.5));
        assert!(!same_bits(0.0, -0.0));
        assert!(same_bits(f64::NAN, f64::NAN));
        assert!(!same_bits(0.1 + 0.2, 0.3));
    }
}
