//! Dense `f64` matrices and vector helpers.
//!
//! The AMP compressed-sensing solver and the crossbar simulator need exactly
//! four things from linear algebra: matrix–vector products, transpose
//! products, elementwise vector arithmetic and norms. [`Matrix`] provides
//! them with a row-major `Vec<f64>` backing store; free functions under
//! [`self`] cover the vector side. Nothing here allocates during the hot
//! product loops beyond the output vector.
//!
//! # Example
//!
//! ```
//! use cim_simkit::linalg::{dot, Matrix};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
//! assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![4.0, 6.0]);
//! assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
//! ```

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a closure mapping `(row, col) → value`.
    /// The closure is called once per element in row-major order.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            data.extend((0..cols).map(|j| f(i, j)));
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix taking ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `(row, col)` element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Writes the `(row, col)` element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The raw row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the raw row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in A·x");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
        y
    }

    /// Transpose matrix–vector product `Aᵀ·y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch in Aᵀ·y");
        let mut x = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (xj, a) in x.iter_mut().zip(row) {
                *xj += a * yi;
            }
        }
        x
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch in A·B");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        out
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        let max_rows = self.rows.min(6);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = self.cols.min(8);
            for j in 0..max_cols {
                write!(f, "{:9.4}", self.get(i, j))?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

// --- free vector helpers ---------------------------------------------------

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (ℓ₂) norm.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// ℓ₁ norm (sum of absolute values).
pub fn norm1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// ℓ∞ norm (largest absolute value).
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Elementwise `a + b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Elementwise `a - b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// `v` scaled by `s`.
pub fn scale(v: &[f64], s: f64) -> Vec<f64> {
    v.iter().map(|x| x * s).collect()
}

/// `a + s·b` (axpy).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(a: &[f64], s: f64, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    a.iter().zip(b).map(|(x, y)| x + s * y).collect()
}

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Number of nonzero entries (|x| > tol).
pub fn count_nonzero(v: &[f64], tol: f64) -> usize {
    v.iter().filter(|x| x.abs() > tol).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_noop() {
        let id = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(id.matvec(&x), x);
        assert_eq!(id.matvec_t(&x), x);
    }

    #[test]
    fn matvec_small_example() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_t_equals_transpose_matvec() {
        let a = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64 * 0.1 - 1.0);
        let y: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let direct = a.matvec_t(&y);
        let via_transpose = a.transpose().matvec(&y);
        for (d, t) in direct.iter().zip(&via_transpose) {
            assert!((d - t).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + 2 * j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_against_identity_and_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[4.0, 3.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm1(&[1.0, -2.0, 3.0]), 6.0);
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, 2.0], 2.0), vec![2.0, 4.0]);
        assert_eq!(axpy(&[1.0, 1.0], 2.0, &[1.0, 2.0]), vec![3.0, 5.0]);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(count_nonzero(&[0.0, 1e-9, 0.5], 1e-6), 1);
    }

    #[test]
    fn scale_and_map_inplace() {
        let mut a = Matrix::from_rows(&[&[1.0, -2.0]]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[2.0, -4.0]);
        a.map_inplace(f64::abs);
        assert_eq!(a.row(0), &[2.0, 4.0]);
    }

    #[test]
    fn from_vec_and_slices() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let mut m = m;
        m.as_mut_slice()[0] = 9.0;
        assert_eq!(m.get(0, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_dimension_checked() {
        let a = Matrix::zeros(2, 3);
        let _ = a.matvec(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::zeros(2, 2)).is_empty());
        // Large matrices truncate rather than flooding the terminal.
        let big = Matrix::zeros(100, 100);
        assert!(format!("{big:?}").len() < 2000);
    }
}
