//! The Haar discrete wavelet transform and its error-tree structure
//! (Section 2.2 of the paper).
//!
//! Two conventions are provided:
//!
//! * the **unnormalised** transform used by the error-tree dynamic programs
//!   (`c_0` is the overall average, every detail coefficient is half the
//!   difference of its children's averages, and a data value is reconstructed
//!   by adding/subtracting the coefficients on its root-to-leaf path);
//! * the **orthonormal** transform (each pairwise average/difference is
//!   scaled by `1/√2`) under which the sum of squared coefficients equals the
//!   sum of squared data values (Parseval), so greedy thresholding by
//!   absolute normalised value is SSE-optimal.
//!
//! Inputs whose length is not a power of two are implicitly padded with
//! zeros, as is customary for Haar synopses.

use serde::{Deserialize, Serialize};

/// The Haar transform of a data vector, carrying both coefficient
/// conventions and the padded length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HaarTransform {
    original_len: usize,
    padded_len: usize,
    normalised: Vec<f64>,
    unnormalised: Vec<f64>,
}

/// Rounds `n` up to the next power of two (minimum 1).
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

impl HaarTransform {
    /// Computes the Haar transform of `data` (padding with zeros to the next
    /// power of two).
    pub fn forward(data: &[f64]) -> Self {
        let original_len = data.len();
        let padded_len = next_power_of_two(original_len);
        let mut padded = data.to_vec();
        padded.resize(padded_len, 0.0);

        let normalised = transform(&padded, 1.0 / std::f64::consts::SQRT_2);
        let unnormalised = transform(&padded, 0.5);

        HaarTransform {
            original_len,
            padded_len,
            normalised,
            unnormalised,
        }
    }

    /// The orthonormal coefficients (Parseval: `Σ c_i² = Σ g_i²`).
    pub fn normalised(&self) -> &[f64] {
        &self.normalised
    }

    /// The unnormalised error-tree coefficients (`c_0` = overall average).
    pub fn unnormalised(&self) -> &[f64] {
        &self.unnormalised
    }

    /// Reconstructs the full data vector from the unnormalised coefficients,
    /// truncated back to the original length.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut data = reconstruct_unnormalised(&self.unnormalised);
        data.truncate(self.original_len);
        data
    }
}

/// One level-by-level Haar decomposition with the given detail scale
/// (`1/√2` for the orthonormal transform, `1/2` for the unnormalised one).
fn transform(padded: &[f64], scale: f64) -> Vec<f64> {
    let n = padded.len();
    let mut coeffs = vec![0.0; n];
    let mut current = padded.to_vec();
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        let mut next = vec![0.0; half];
        for i in 0..half {
            let a = current[2 * i];
            let b = current[2 * i + 1];
            next[i] = (a + b) * scale;
            // Detail coefficients of this level live at indices half..len of
            // the coefficient array (standard Haar layout: index h + i holds
            // the detail whose support is the 2^(log n − level) sized block i).
            coeffs[half + i] = (a - b) * scale;
        }
        current = next;
        len = half;
    }
    coeffs[0] = current[0];
    coeffs
}

/// Inverse of the unnormalised transform.
fn reconstruct_unnormalised(coeffs: &[f64]) -> Vec<f64> {
    let n = coeffs.len();
    assert!(
        n.is_power_of_two(),
        "coefficient vectors are power-of-two sized"
    );
    let mut current = vec![coeffs[0]];
    let mut len = 1;
    while len < n {
        let mut next = vec![0.0; len * 2];
        for i in 0..len {
            let avg = current[i];
            let detail = coeffs[len + i];
            next[2 * i] = avg + detail;
            next[2 * i + 1] = avg - detail;
        }
        current = next;
        len *= 2;
    }
    current
}

/// Inverse of the orthonormal transform.
pub fn reconstruct_normalised(coeffs: &[f64]) -> Vec<f64> {
    let n = coeffs.len();
    assert!(
        n.is_power_of_two(),
        "coefficient vectors are power-of-two sized"
    );
    let s = std::f64::consts::SQRT_2;
    let mut current = vec![coeffs[0]];
    let mut len = 1;
    while len < n {
        let mut next = vec![0.0; len * 2];
        for i in 0..len {
            let avg = current[i];
            let detail = coeffs[len + i];
            next[2 * i] = (avg + detail) / s;
            next[2 * i + 1] = (avg - detail) / s;
        }
        current = next;
        len *= 2;
    }
    current
}

/// Reconstructs data from a sparse set of unnormalised coefficients
/// (`(index, value)` pairs); all other coefficients are zero.
pub fn reconstruct_sparse_unnormalised(n: usize, retained: &[(usize, f64)]) -> Vec<f64> {
    let padded = next_power_of_two(n);
    let mut coeffs = vec![0.0; padded];
    for &(i, v) in retained {
        coeffs[i] = v;
    }
    let mut data = reconstruct_unnormalised(&coeffs);
    data.truncate(n);
    data
}

/// Error-tree navigation helpers for a coefficient vector of (power-of-two)
/// length `n`.
///
/// Coefficient `0` is the overall average whose only child is coefficient
/// `1`; coefficient `i ≥ 1` has children `2i` and `2i + 1`, where indices
/// `≥ n` denote data leaves (`n + j` is item `j`).  The *support* of a
/// coefficient is the dyadic range of items it participates in
/// reconstructing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorTree {
    n: usize,
}

impl ErrorTree {
    /// Builds the navigation helper for `n` coefficients (`n` a power of
    /// two).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "the error tree is defined for power-of-two n"
        );
        ErrorTree { n }
    }

    /// Number of coefficients / leaves.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether tree index `idx` denotes a data leaf.
    pub fn is_leaf(&self, idx: usize) -> bool {
        idx >= self.n
    }

    /// The data item of a leaf index.
    pub fn leaf_item(&self, idx: usize) -> usize {
        debug_assert!(self.is_leaf(idx));
        idx - self.n
    }

    /// The children of coefficient `idx` (`idx < n`), as tree indices.
    pub fn children(&self, idx: usize) -> (usize, usize) {
        if idx == 0 {
            // The root average has a single child (the top detail
            // coefficient), or the lone data leaf when n == 1.
            if self.n == 1 {
                (self.n, self.n)
            } else {
                (1, 1)
            }
        } else {
            (2 * idx, 2 * idx + 1)
        }
    }

    /// The inclusive item range (support) reconstructed using coefficient
    /// `idx`.
    pub fn support(&self, idx: usize) -> (usize, usize) {
        if idx == 0 {
            return (0, self.n - 1);
        }
        // Coefficient idx sits at level floor(log2 idx); its support has size
        // n / 2^level and is the idx-th dyadic block of that size.
        let level = usize::BITS as usize - 1 - idx.leading_zeros() as usize;
        let size = self.n >> level;
        let offset = (idx - (1 << level)) * size;
        (offset, offset + size - 1)
    }

    /// The signed contribution (`+1`/`-1`) of coefficient `idx` to the
    /// reconstruction of item `item`, or `0` if the item is outside the
    /// coefficient's support.
    pub fn sign(&self, idx: usize, item: usize) -> f64 {
        let (lo, hi) = self.support(idx);
        if item < lo || item > hi {
            return 0.0;
        }
        if idx == 0 {
            return 1.0;
        }
        let mid = lo + (hi - lo) / 2;
        if item <= mid {
            1.0
        } else {
            -1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of Figure 1 in the paper:
    /// A = [2, 2, 0, 2, 3, 5, 4, 4].
    const PAPER_DATA: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn unnormalised_coefficients_match_figure_1() {
        let t = HaarTransform::forward(&PAPER_DATA);
        let c = t.unnormalised();
        // Figure 1: c0 = 11/4, c1 = -5/4, c2 = 1/2, c3 = 0, c4 = 0, c5 = -1,
        // c6 = -1, c7 = 0.
        let expected = [11.0 / 4.0, -5.0 / 4.0, 0.5, 0.0, 0.0, -1.0, -1.0, 0.0];
        for (i, &e) in expected.iter().enumerate() {
            assert!((c[i] - e).abs() < 1e-12, "c{i}: {} vs {e}", c[i]);
        }
    }

    #[test]
    fn parseval_holds_for_the_normalised_transform() {
        let t = HaarTransform::forward(&PAPER_DATA);
        let data_energy: f64 = PAPER_DATA.iter().map(|x| x * x).sum();
        let coeff_energy: f64 = t.normalised().iter().map(|x| x * x).sum();
        assert!((data_energy - coeff_energy).abs() < 1e-9);
    }

    #[test]
    fn round_trips_recover_the_data() {
        let t = HaarTransform::forward(&PAPER_DATA);
        let back = t.reconstruct();
        for (a, b) in PAPER_DATA.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        let back_norm = reconstruct_normalised(t.normalised());
        for (a, b) in PAPER_DATA.iter().zip(&back_norm) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn non_power_of_two_inputs_are_zero_padded() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let t = HaarTransform::forward(&data);
        assert_eq!(t.original_len, 5);
        assert_eq!(t.padded_len, 8);
        let back = t.reconstruct();
        assert_eq!(back.len(), 5);
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_reconstruction_matches_dense_with_zeroed_coefficients() {
        let t = HaarTransform::forward(&PAPER_DATA);
        let c = t.unnormalised();
        // Keep only the three largest-magnitude unnormalised coefficients.
        let mut idx: Vec<usize> = (0..8).collect();
        idx.sort_by(|&a, &b| c[b].abs().partial_cmp(&c[a].abs()).unwrap());
        let retained: Vec<(usize, f64)> = idx[..3].iter().map(|&i| (i, c[i])).collect();
        let sparse = reconstruct_sparse_unnormalised(8, &retained);
        let mut dense_coeffs = vec![0.0; 8];
        for &(i, v) in &retained {
            dense_coeffs[i] = v;
        }
        let dense = reconstruct_unnormalised(&dense_coeffs);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn error_tree_supports_match_figure_1() {
        let tree = ErrorTree::new(8);
        assert_eq!(tree.support(0), (0, 7));
        assert_eq!(tree.support(1), (0, 7));
        assert_eq!(tree.support(2), (0, 3));
        assert_eq!(tree.support(3), (4, 7));
        assert_eq!(tree.support(5), (2, 3));
        assert_eq!(tree.support(7), (6, 7));
        assert_eq!(tree.children(0), (1, 1));
        assert_eq!(tree.children(1), (2, 3));
        assert_eq!(tree.children(4), (8, 9));
        assert!(tree.is_leaf(8));
        assert_eq!(tree.leaf_item(11), 3);
    }

    #[test]
    fn path_reconstruction_matches_the_inverse_transform() {
        // Reconstructing every item by summing the signed coefficients on its
        // root-to-leaf path must agree with the inverse transform.
        let t = HaarTransform::forward(&PAPER_DATA);
        let c = t.unnormalised();
        let tree = ErrorTree::new(8);
        for (item, &expected) in PAPER_DATA.iter().enumerate() {
            let mut value = 0.0;
            for (i, &coef) in c.iter().enumerate() {
                value += tree.sign(i, item) * coef;
            }
            assert!((value - expected).abs() < 1e-12, "item {item}: {value}");
        }
    }

    #[test]
    fn signs_are_zero_outside_the_support() {
        let tree = ErrorTree::new(8);
        assert_eq!(tree.sign(5, 0), 0.0);
        assert_eq!(tree.sign(5, 2), 1.0);
        assert_eq!(tree.sign(5, 3), -1.0);
        assert_eq!(tree.sign(0, 7), 1.0);
    }

    #[test]
    fn single_item_transform() {
        let t = HaarTransform::forward(&[5.0]);
        assert_eq!(t.padded_len, 1);
        assert_eq!(t.unnormalised(), &[5.0]);
        assert_eq!(t.reconstruct(), vec![5.0]);
        let tree = ErrorTree::new(1);
        assert_eq!(tree.children(0), (1, 1));
        assert!(tree.is_leaf(1));
    }
}
