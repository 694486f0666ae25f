//! Synopsis error metrics (Sections 2.2 and 2.3 of the paper).
//!
//! A synopsis approximates every item frequency `g_i` by an estimate `ĝ_i`.
//! The per-item *point error* `err(g_i, ĝ_i)` is combined either cumulatively
//! (`Σ_i E_W[err(g_i, ĝ_i)]`) or as a maximum (`max_i E_W[err(g_i, ĝ_i)]`).
//! The metrics considered by the paper are:
//!
//! | metric | point error |
//! |---|---|
//! | SSE  (sum squared error)           | `(g − ĝ)²` |
//! | SSRE (sum squared relative error)  | `(g − ĝ)² / max(c, |g|)²` |
//! | SAE  (sum absolute error)          | `|g − ĝ|` |
//! | SARE (sum absolute relative error) | `|g − ĝ| / max(c, |g|)` |
//! | MAE  (maximum absolute error)      | `|g − ĝ|`, combined with `max` |
//! | MARE (maximum absolute relative error) | `|g − ĝ| / max(c, |g|)`, combined with `max` |
//!
//! `c > 0` is the usual *sanity bound* preventing tiny frequencies from
//! dominating relative errors.

use serde::{Deserialize, Serialize};

use crate::model::ValuePdf;

/// Default sanity bound used when none is specified.
pub const DEFAULT_SANITY_BOUND: f64 = 1.0;

/// A synopsis error metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ErrorMetric {
    /// Sum squared error.
    Sse,
    /// Sum squared relative error with sanity bound `c`.
    Ssre {
        /// Sanity bound.
        c: f64,
    },
    /// Sum absolute error.
    Sae,
    /// Sum absolute relative error with sanity bound `c`.
    Sare {
        /// Sanity bound.
        c: f64,
    },
    /// Maximum (over items) of the per-item expected absolute error.
    Mae,
    /// Maximum (over items) of the per-item expected absolute relative error.
    Mare {
        /// Sanity bound.
        c: f64,
    },
}

impl ErrorMetric {
    /// Whether per-item errors are combined by summation (`true`) or by
    /// taking the maximum (`false`).
    pub fn is_cumulative(&self) -> bool {
        !matches!(self, ErrorMetric::Mae | ErrorMetric::Mare { .. })
    }

    /// The sanity bound `c`, if the metric is relative.
    pub fn sanity_bound(&self) -> Option<f64> {
        match *self {
            ErrorMetric::Ssre { c } | ErrorMetric::Sare { c } | ErrorMetric::Mare { c } => Some(c),
            _ => None,
        }
    }

    /// The point error `err(actual, estimate)` of approximating frequency
    /// `actual` by `estimate`.
    pub fn point_error(&self, actual: f64, estimate: f64) -> f64 {
        let diff = actual - estimate;
        match *self {
            ErrorMetric::Sse => diff * diff,
            ErrorMetric::Ssre { c } => {
                let d = c.max(actual.abs());
                diff * diff / (d * d)
            }
            ErrorMetric::Sae | ErrorMetric::Mae => diff.abs(),
            ErrorMetric::Sare { c } | ErrorMetric::Mare { c } => diff.abs() / c.max(actual.abs()),
        }
    }

    /// The relative-error weight `w(g)` of the paper's Section 3.2/3.4:
    /// `1/max(c, |g|)²` for squared-relative metrics, `1/max(c, |g|)` for
    /// absolute-relative metrics and `1` otherwise.
    pub fn weight(&self, actual: f64) -> f64 {
        match *self {
            ErrorMetric::Sse | ErrorMetric::Sae | ErrorMetric::Mae => 1.0,
            ErrorMetric::Ssre { c } => {
                let d = c.max(actual.abs());
                1.0 / (d * d)
            }
            ErrorMetric::Sare { c } | ErrorMetric::Mare { c } => 1.0 / c.max(actual.abs()),
        }
    }

    /// The expected point error `E[err(g, estimate)]` of an item with
    /// frequency pdf `pdf`.
    pub fn expected_point_error(&self, pdf: &ValuePdf, estimate: f64) -> f64 {
        pdf.expect(|g| self.point_error(g, estimate))
    }

    /// Combines per-item (expected) errors into the overall synopsis error:
    /// summation for cumulative metrics, maximum for max-error metrics.
    pub fn combine(&self, per_item_errors: impl IntoIterator<Item = f64>) -> f64 {
        if self.is_cumulative() {
            per_item_errors.into_iter().sum()
        } else {
            per_item_errors.into_iter().fold(0.0, f64::max)
        }
    }

    /// Short machine-readable name (used in benchmark output and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorMetric::Sse => "sse",
            ErrorMetric::Ssre { .. } => "ssre",
            ErrorMetric::Sae => "sae",
            ErrorMetric::Sare { .. } => "sare",
            ErrorMetric::Mae => "mae",
            ErrorMetric::Mare { .. } => "mare",
        }
    }

    /// Parses a metric from its [`name`](ErrorMetric::name) plus a sanity
    /// bound (ignored for non-relative metrics).
    pub fn from_name(name: &str, c: f64) -> Option<ErrorMetric> {
        match name.to_ascii_lowercase().as_str() {
            "sse" => Some(ErrorMetric::Sse),
            "ssre" => Some(ErrorMetric::Ssre { c }),
            "sae" => Some(ErrorMetric::Sae),
            "sare" => Some(ErrorMetric::Sare { c }),
            "mae" => Some(ErrorMetric::Mae),
            "mare" => Some(ErrorMetric::Mare { c }),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.sanity_bound() {
            Some(c) => write!(f, "{}(c={})", self.name(), c),
            None => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_errors_match_definitions() {
        assert_eq!(ErrorMetric::Sse.point_error(3.0, 1.0), 4.0);
        assert_eq!(ErrorMetric::Sae.point_error(3.0, 1.0), 2.0);
        assert_eq!(ErrorMetric::Mae.point_error(1.0, 3.0), 2.0);
        let ssre = ErrorMetric::Ssre { c: 0.5 };
        assert!((ssre.point_error(2.0, 1.0) - 0.25).abs() < 1e-12);
        // Sanity bound kicks in for small frequencies.
        assert!((ssre.point_error(0.0, 1.0) - 1.0 / 0.25).abs() < 1e-12);
        let sare = ErrorMetric::Sare { c: 1.0 };
        assert!((sare.point_error(4.0, 1.0) - 0.75).abs() < 1e-12);
        assert!((sare.point_error(0.5, 1.0) - 0.5).abs() < 1e-12);
        let mare = ErrorMetric::Mare { c: 2.0 };
        assert!((mare.point_error(1.0, 5.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weights_match_point_errors() {
        for metric in [
            ErrorMetric::Sse,
            ErrorMetric::Ssre { c: 0.5 },
            ErrorMetric::Sae,
            ErrorMetric::Sare { c: 0.5 },
            ErrorMetric::Mae,
            ErrorMetric::Mare { c: 0.5 },
        ] {
            for actual in [0.0, 0.3, 1.0, 4.0] {
                for est in [0.0, 1.5, 3.0] {
                    let diff = match metric {
                        ErrorMetric::Sse | ErrorMetric::Ssre { .. } => {
                            (actual - est) * (actual - est)
                        }
                        _ => (actual - est_abs(est, actual)).abs(),
                    };
                    // weight * unweighted error == point error
                    let unweighted =
                        if matches!(metric, ErrorMetric::Sse | ErrorMetric::Ssre { .. }) {
                            diff
                        } else {
                            (actual - est).abs()
                        };
                    assert!(
                        (metric.weight(actual) * unweighted - metric.point_error(actual, est))
                            .abs()
                            < 1e-12
                    );
                }
            }
        }
        fn est_abs(est: f64, _actual: f64) -> f64 {
            est
        }
    }

    #[test]
    fn cumulative_vs_max_combination() {
        assert!(ErrorMetric::Sse.is_cumulative());
        assert!(ErrorMetric::Sare { c: 1.0 }.is_cumulative());
        assert!(!ErrorMetric::Mae.is_cumulative());
        assert!(!ErrorMetric::Mare { c: 1.0 }.is_cumulative());
        let errs = [1.0, 4.0, 2.0];
        assert_eq!(ErrorMetric::Sae.combine(errs), 7.0);
        assert_eq!(ErrorMetric::Mae.combine(errs), 4.0);
        assert_eq!(ErrorMetric::Mae.combine(std::iter::empty()), 0.0);
    }

    #[test]
    fn expected_point_error_uses_full_pdf() {
        let pdf = ValuePdf::new([(1.0, 0.5), (3.0, 0.25)]).unwrap();
        // Remaining 0.25 mass at zero.
        let expected_sae = 0.25 * 2.0 + 0.5 * 1.0 + 0.25 * 1.0;
        assert!((ErrorMetric::Sae.expected_point_error(&pdf, 2.0) - expected_sae).abs() < 1e-12);
        let expected_sse = 0.25 * 4.0 + 0.5 * 1.0 + 0.25 * 1.0;
        assert!((ErrorMetric::Sse.expected_point_error(&pdf, 2.0) - expected_sse).abs() < 1e-12);
    }

    #[test]
    fn names_round_trip() {
        for metric in [
            ErrorMetric::Sse,
            ErrorMetric::Ssre { c: 0.5 },
            ErrorMetric::Sae,
            ErrorMetric::Sare { c: 0.5 },
            ErrorMetric::Mae,
            ErrorMetric::Mare { c: 0.5 },
        ] {
            let parsed = ErrorMetric::from_name(metric.name(), 0.5).unwrap();
            assert_eq!(parsed, metric);
        }
        assert!(ErrorMetric::from_name("bogus", 1.0).is_none());
        assert_eq!(format!("{}", ErrorMetric::Ssre { c: 0.5 }), "ssre(c=0.5)");
        assert_eq!(format!("{}", ErrorMetric::Sse), "sse");
    }
}
