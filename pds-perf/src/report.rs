//! Estimators, and JSON text through the workspace's vendored `serde_json`
//! for the result line, the results file and `BENCHMARK.json`.

use serde::{Deserialize, Serialize, Value};

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The pooled `p`-th percentile (nearest rank).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Throughput of a phase from the rates of its equal-work slices: their
/// upper quartile.  Interference on a shared box only ever slows a slice, so
/// the faster slices say what the program sustains; over ten runs of the
/// writer alone the upper quartile moved 4.1 % (quartile distance over
/// median), the median slice 8.8 %, the fastest slice 6.2 %.
pub fn sustained(rates: &[f64]) -> f64 {
    quartiles(rates).1
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

// ------------------------------------------------------------------ JSON
/// A [`Value`] as itself: the vendored `serde` converts types to and from
/// its `Value` tree, but has no impl for the tree.
struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Tree {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Tree(value.clone()))
    }
}

pub fn parse_json(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Tree>(text)
        .map(|tree| tree.0)
        .map_err(|e| e.to_string())
}

/// Compact JSON text; floats keep every digit (shortest round-trip form).
/// Fails on a number that is not finite.
pub fn to_json(value: Value) -> Result<String, String> {
    serde_json::to_string(&Tree(value)).map_err(|e| e.to_string())
}

/// An object from `(key, value)` pairs, in that order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// The string field `key` of an object.
pub fn str_field<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match value.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(
            percentile(&(1..=200).map(f64::from).collect::<Vec<_>>(), 99.0),
            198.0
        );
    }
}
