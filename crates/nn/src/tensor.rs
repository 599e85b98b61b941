//! Flat row-major `f32` matrices and the small set of kernels the models use.
//!
//! Following the perf-book idioms used across this workspace: one contiguous
//! allocation per matrix, no per-element boxing, and all hot loops written
//! over slices so they bound-check once per row.

use serde::{Deserialize, Error, Serialize, Value};

/// A dense row-major matrix of `f32`.
///
/// `rows` is the batch dimension throughout this crate: a batch of `B`
/// feature vectors of width `d` is a `B × d` matrix. Serializes as
/// `{"rows": r, "cols": c, "bits": "…"}`, the values as a bit string
/// ([`serde::f32_bits`]): exact, and 8 bytes a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Serialize for Matrix {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("rows".to_string(), self.rows.serialize()),
            ("cols".to_string(), self.cols.serialize()),
            ("bits".to_string(), serde::f32_bits(&self.data)),
        ])
    }
}

impl Deserialize for Matrix {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let map = v.expect_map("Matrix")?;
        let rows: usize = serde::get_field(map, "rows", "Matrix")?;
        let cols: usize = serde::get_field(map, "cols", "Matrix")?;
        let len = rows.checked_mul(cols).ok_or_else(|| {
            Error::msg(format!("Matrix rows {rows} × cols {cols} overflow usize"))
        })?;
        let data = serde::f32s_from_bits(serde::get_str_field(map, "bits", "Matrix")?)
            .map_err(|e| Error::msg(format!("Matrix {e}")))?;
        if data.len() != len {
            return Err(Error::msg(format!(
                "Matrix bits hold {} values, not rows {rows} × cols {cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// A `1 × d` row matrix wrapping one feature vector.
    pub fn from_row(row: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Builds a `rows × cols` matrix by stacking equal-length rows.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to from_rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Consumes the matrix, returning its backing buffer (used by
    /// [`crate::scratch::Scratch`] to recycle allocations).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// `self · otherᵀ` where `other` is `n × cols`: the core kernel for a
    /// dense layer whose weight matrix stores one output unit per row.
    ///
    /// Result is `rows × n`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a caller-owned output matrix
    /// (shape `rows × other.rows`) — the allocation-free inference kernel.
    /// Dispatches to the register-blocked kernel in [`crate::gemm`] for
    /// non-trivial shapes.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "inner dimensions differ in matmul_nt"
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_nt output shape mismatch"
        );
        crate::gemm::matmul_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// `selfᵀ · other`, producing `cols × other.cols`. Used for weight
    /// gradients: `dW = dYᵀ · X` arranged as `[out, in]`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "outer dimensions differ in matmul_tn"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::gemm::matmul_tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Plain `self · other` (`rows × other.cols`). Used for input gradients:
    /// `dX = dY · W` with `W` stored `[out, in]`.
    pub fn matmul_nn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions differ in matmul_nn"
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::gemm::matmul_nn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// Adds `bias` (length `cols`) to every row in place.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Concatenates matrices with equal row counts along the column axis.
    ///
    /// # Panics
    /// Panics if `parts` is empty (the row count would be unknowable) or if
    /// the parts disagree on row count — including when some parts have
    /// zero rows. Zero-row inputs are otherwise valid and produce a
    /// `0 × Σcols` result that preserves the column shape.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        let (rows, cols) = Self::hconcat_shape(parts);
        let mut out = Matrix::zeros(rows, cols);
        Self::hconcat_into(parts, &mut out);
        out
    }

    /// Validated output shape of [`Matrix::hconcat`]; shared with the
    /// scratch-buffer variant so both check ragged inputs up front.
    // A zero-part hconcat has no shape: a documented, regression-tested panic.
    #[allow(clippy::panic)]
    fn hconcat_shape(parts: &[&Matrix]) -> (usize, usize) {
        let rows = parts
            .first()
            // cardest-lint: allow(serving-panic-reachability): zero-part hconcat has no shape; documented panic, regression-tested
            .unwrap_or_else(|| panic!("hconcat of zero matrices has no defined shape"))
            .rows;
        for m in parts {
            assert_eq!(m.rows, rows, "hconcat requires equal row counts");
        }
        (rows, parts.iter().map(|m| m.cols).sum())
    }

    /// [`Matrix::hconcat`] writing into a caller-owned output matrix of
    /// shape `rows × Σcols` (the batch hot path reuses scratch buffers).
    pub fn hconcat_into(parts: &[&Matrix], out: &mut Matrix) {
        let (rows, cols) = Self::hconcat_shape(parts);
        assert_eq!(
            (out.rows, out.cols),
            (rows, cols),
            "hconcat output shape mismatch"
        );
        for r in 0..rows {
            let mut off = 0;
            let orow = out.row_mut(r);
            for m in parts {
                orow[off..off + m.cols].copy_from_slice(m.row(r));
                off += m.cols;
            }
        }
    }

    /// Splits columns back into widths `widths` (inverse of [`Matrix::hconcat`]).
    ///
    /// # Panics
    /// Panics if `widths` is empty or does not sum to the column count.
    /// Zero-row matrices split into zero-row parts of the requested widths.
    pub fn hsplit(&self, widths: &[usize]) -> Vec<Matrix> {
        assert!(
            !widths.is_empty(),
            "hsplit into zero parts has no defined shape"
        );
        assert_eq!(
            widths.iter().sum::<usize>(),
            self.cols,
            "hsplit widths mismatch"
        );
        let mut out: Vec<Matrix> = widths
            .iter()
            .map(|&w| Matrix::zeros(self.rows, w))
            .collect();
        for r in 0..self.rows {
            let mut off = 0;
            let row = self.row(r);
            for (m, &w) in out.iter_mut().zip(widths) {
                m.row_mut(r).copy_from_slice(&row[off..off + w]);
                off += w;
            }
        }
        out
    }

    /// Sums all rows into a single `1 × cols` matrix (sum pooling over a set
    /// of embeddings, §4 of the paper).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        let orow = out.row_mut(0);
        for r in 0..self.rows {
            for (o, x) in orow.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Gathers the given rows into a new matrix (used by the join router to
    /// select the member queries assigned to one data segment).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (o, &i) in (0..idx.len()).zip(idx) {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
        out
    }

    /// Frobenius-norm of the matrix; handy for grad-clipping and tests.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }
}

/// Dot product over equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Eight independent accumulators break the sequential FP dependency
    // chain so the loop vectorizes; the tail is folded in scalar order.
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (
            &a[i * LANES..(i + 1) * LANES],
            &b[i * LANES..(i + 1) * LANES],
        );
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut s = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        s += x * y;
    }
    s
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_nt_matches_hand_computation() {
        // a = [[1,2],[3,4]], b = [[5,6],[7,8]] (rows are b's rows)
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        // a · bᵀ = [[1*5+2*6, 1*7+2*8], [3*5+4*6, 3*7+4*8]]
        let c = a.matmul_nt(&b);
        assert_eq!(c.as_slice(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn matmul_nn_matches_hand_computation() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, 1.0]);
        let c = a.matmul_nn(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 4.0, 3.0, 4.0, 10.0]);
    }

    #[test]
    fn matmul_tn_is_transpose_of_nt_path() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 0.0, 0.0, 3.0]);
        // aᵀ·b = [[1*1+3*2+5*0, 1*1+3*0+5*3],[2*1+4*2+6*0, 2*1+4*0+6*3]]
        let c = a.matmul_tn(&b);
        assert_eq!(c.as_slice(), &[7.0, 16.0, 10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "zero matrices")]
    fn hconcat_empty_input_panics() {
        let _ = Matrix::hconcat(&[]);
    }

    #[test]
    #[should_panic(expected = "equal row counts")]
    fn hconcat_ragged_rows_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 1);
        let _ = Matrix::hconcat(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "equal row counts")]
    fn hconcat_zero_row_ragged_panics_before_writing() {
        // A 0-row part mixed with non-empty parts is ragged, not "empty";
        // the shape check must reject it up front.
        let a = Matrix::zeros(0, 2);
        let b = Matrix::zeros(4, 2);
        let _ = Matrix::hconcat(&[&a, &b]);
    }

    #[test]
    fn hconcat_of_zero_row_parts_keeps_column_shape() {
        let a = Matrix::zeros(0, 2);
        let b = Matrix::zeros(0, 5);
        let c = Matrix::hconcat(&[&a, &b]);
        assert_eq!((c.rows(), c.cols()), (0, 7));
        let parts = c.hsplit(&[2, 5]);
        assert_eq!((parts[0].rows(), parts[0].cols()), (0, 2));
        assert_eq!((parts[1].rows(), parts[1].cols()), (0, 5));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn hconcat_into_wrong_output_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let mut out = Matrix::zeros(2, 4);
        Matrix::hconcat_into(&[&a], &mut out);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn hsplit_empty_widths_panics() {
        let m = Matrix::zeros(2, 3);
        let _ = m.hsplit(&[]);
    }

    #[test]
    #[should_panic(expected = "widths mismatch")]
    fn hsplit_mismatched_widths_panic() {
        let m = Matrix::zeros(2, 3);
        let _ = m.hsplit(&[2, 2]);
    }

    #[test]
    fn hconcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![9.0, 8.0]);
        let c = Matrix::hconcat(&[&a, &b]);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        let parts = c.hsplit(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn sum_rows_and_gather() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum_rows().as_slice(), &[9.0, 12.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn add_bias_applies_per_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    /// Bit patterns a decimal round trip would lose or canonicalize:
    /// signed zeros, subnormals, infinities and NaNs with distinct payloads.
    const SPECIAL_BITS: [u32; 12] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0x7fc0_1234,
        0xffa0_0001,
        0x7f80_0001,
        0x3dcc_cccd,
        0xbfc0_0000,
    ];

    #[test]
    fn serde_round_trips_every_bit_pattern() {
        let m = Matrix::from_vec(3, 4, SPECIAL_BITS.map(f32::from_bits).to_vec());
        let v = m.serialize();
        let map = v.expect_map("matrix").unwrap();
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["rows", "cols", "bits"]);
        assert_eq!(
            serde::get_str_field(map, "bits", "Matrix").unwrap()[..24],
            *"000000008000000000000001"
        );
        let back = Matrix::deserialize(&v).unwrap();
        assert_eq!((back.rows(), back.cols()), (3, 4));
        let bits: Vec<u32> = back.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, SPECIAL_BITS);
        let empty = Matrix::deserialize(&Matrix::zeros(0, 5).serialize()).unwrap();
        assert_eq!(
            (empty.rows(), empty.cols(), empty.as_slice().len()),
            (0, 5, 0)
        );
    }

    #[test]
    fn serde_decode_errors_are_typed() {
        let doc = |rows: u64, cols: u64, bits: &str| {
            Value::Map(vec![
                ("rows".to_string(), Value::UInt(rows)),
                ("cols".to_string(), Value::UInt(cols)),
                ("bits".to_string(), Value::Str(bits.to_string())),
            ])
        };
        let one = "3f800000";
        for (v, msg) in [
            (
                doc(1, 1, "3f80000"),
                "Matrix bits hold 7 bytes, not a multiple of 8",
            ),
            (
                doc(1, 1, "3f80000G"),
                "Matrix bits: value 0 holds a byte 0x47 that is not a lowercase hex digit",
            ),
            (
                doc(1, 2, one),
                "Matrix bits hold 1 values, not rows 1 × cols 2",
            ),
            (
                doc(2, 0, one),
                "Matrix bits hold 1 values, not rows 2 × cols 0",
            ),
            (
                doc(1 << 32, 1 << 32, one),
                "Matrix rows 4294967296 × cols 4294967296 overflow usize",
            ),
            (
                doc(u64::MAX, 2, one),
                "Matrix rows 18446744073709551615 × cols 2 overflow usize",
            ),
            (
                Value::Map(vec![
                    ("rows".to_string(), Value::UInt(1)),
                    ("cols".to_string(), Value::UInt(1)),
                    ("data".to_string(), Value::Seq(vec![Value::Float(1.0)])),
                ]),
                "missing field `bits` for Matrix",
            ),
            (
                Value::Map(vec![
                    ("rows".to_string(), Value::UInt(1)),
                    ("cols".to_string(), Value::UInt(1)),
                    ("bits".to_string(), Value::Seq(vec![Value::Float(1.0)])),
                ]),
                "expected a string for Matrix bits",
            ),
        ] {
            let err = Matrix::deserialize(&v).expect_err(msg);
            assert!(err.to_string().contains(msg), "{err}");
        }
        assert_eq!(Matrix::deserialize(&doc(1, 1, one)).unwrap().get(0, 0), 1.0);
    }
}
