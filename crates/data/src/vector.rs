//! Vector storage: dense row-major `f32` collections and bit-packed binary
//! collections with popcount-based distance kernels.
//!
//! The paper's six datasets split into dense ones (GloVe300, YouTube) and
//! binary ones (BMS baskets, ImageNET hash codes, Aminer/DBLP token
//! vectors). Binary data is stored one `u64` word per 64 dimensions so that
//! Hamming/Jaccard ground-truth labelling runs at popcount speed.

use serde::{Deserialize, Error, Serialize, Value};

/// Dense row-major `f32` vector collection (`n × dim`).
///
/// Serializes as `{"dim": d, "bits": "…"}`, the values in row-major
/// order as a bit string ([`serde::f32_bits`]): each value's `f32` bit
/// pattern as 8 lowercase hex digits, most significant first. The
/// encoding is exact for every value, `-0.0` and NaN payloads included,
/// and costs 8 bytes per value.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseData {
    dim: usize,
    values: Vec<f32>,
}

impl Serialize for DenseData {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("dim".to_string(), self.dim.serialize()),
            ("bits".to_string(), serde::f32_bits(&self.values)),
        ])
    }
}

impl Deserialize for DenseData {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let map = v.expect_map("DenseData")?;
        let dim: usize = serde::get_field(map, "dim", "DenseData")?;
        let hex = serde::get_str_field(map, "bits", "DenseData")?;
        if dim == 0 {
            return Err(Error::msg("DenseData dim must be positive"));
        }
        // `dim` comes from the input, so `8 * dim` may overflow.
        if hex.len() % 8 != 0 || (hex.len() / 8) % dim != 0 {
            return Err(Error::msg(format!(
                "DenseData bits hold {} bytes, not a multiple of 8 × dim {dim}",
                hex.len()
            )));
        }
        let values =
            serde::f32s_from_bits(hex).map_err(|e| Error::msg(format!("DenseData {e}")))?;
        Ok(DenseData { dim, values })
    }
}

impl DenseData {
    pub fn new(dim: usize) -> Self {
        DenseData {
            dim,
            values: Vec::new(),
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, values: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(values.len() % dim, 0, "flat buffer not a multiple of dim");
        DenseData { dim, values }
    }

    pub fn len(&self) -> usize {
        self.values.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.values[i * self.dim..(i + 1) * self.dim]
    }

    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row width mismatch");
        self.values.extend_from_slice(row);
    }
}

/// Bit-packed binary vector collection (`n × dim` bits, 64 bits per word).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BinaryData {
    dim: usize,
    words_per_vec: usize,
    words: Vec<u64>,
}

impl Deserialize for BinaryData {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let map = v.expect_map("BinaryData")?;
        let dim: usize = serde::get_field(map, "dim", "BinaryData")?;
        let words_per_vec: usize = serde::get_field(map, "words_per_vec", "BinaryData")?;
        let words: Vec<u64> = serde::get_field(map, "words", "BinaryData")?;
        if dim == 0 {
            return Err(Error::msg("BinaryData dim must be positive"));
        }
        if words_per_vec != dim.div_ceil(64) {
            return Err(Error::msg(format!(
                "BinaryData words_per_vec {words_per_vec} does not match dim {dim}"
            )));
        }
        if words.len() % words_per_vec != 0 {
            return Err(Error::msg(format!(
                "BinaryData holds {} words, not whole rows of {words_per_vec}",
                words.len()
            )));
        }
        Ok(BinaryData {
            dim,
            words_per_vec,
            words,
        })
    }
}

impl BinaryData {
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        BinaryData {
            dim,
            words_per_vec: dim.div_ceil(64),
            words: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.words.len() / self.words_per_vec
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_vec..(i + 1) * self.words_per_vec]
    }

    /// Appends a vector given as set-bit indices (duplicates are idempotent;
    /// indices must be `< dim`).
    pub fn push_indices(&mut self, on: &[usize]) {
        let start = self.words.len();
        self.words.resize(start + self.words_per_vec, 0);
        for &i in on {
            assert!(
                i < self.dim,
                "bit index {i} out of range for dim {}",
                self.dim
            );
            self.words[start + i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Appends a vector given as a bool slice of length `dim`.
    pub fn push_bools(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.dim, "row width mismatch");
        let start = self.words.len();
        self.words.resize(start + self.words_per_vec, 0);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                self.words[start + i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    /// Reads bit `j` of vector `i`.
    #[inline]
    pub fn bit(&self, i: usize, j: usize) -> bool {
        (self.row(i)[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Number of set bits in vector `i`.
    pub fn popcount(&self, i: usize) -> u32 {
        self.row(i).iter().map(|w| w.count_ones()).sum()
    }
}

/// Borrowed view of one vector, dense or binary.
#[derive(Debug, Clone, Copy)]
pub enum VectorView<'a> {
    Dense(&'a [f32]),
    /// Bit-packed words plus the true bit dimension (the last word may be
    /// partially used).
    Binary {
        words: &'a [u64],
        dim: usize,
    },
}

impl<'a> VectorView<'a> {
    /// Logical dimensionality of the vector.
    pub fn dim(&self) -> usize {
        match self {
            VectorView::Dense(v) => v.len(),
            VectorView::Binary { dim, .. } => *dim,
        }
    }

    /// Expands the vector into an `f32` buffer (binary bits become 0.0/1.0).
    /// Used to build NN feature vectors; `buf` is reused across calls.
    pub fn write_dense(&self, buf: &mut Vec<f32>) {
        buf.clear();
        match self {
            VectorView::Dense(v) => buf.extend_from_slice(v),
            VectorView::Binary { words, dim } => {
                buf.reserve(*dim);
                for j in 0..*dim {
                    let bit = (words[j / 64] >> (j % 64)) & 1;
                    buf.push(bit as f32);
                }
            }
        }
    }
}

/// A vector collection, dense or binary, behind one interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum VectorData {
    Dense(DenseData),
    Binary(BinaryData),
}

impl VectorData {
    pub fn len(&self) -> usize {
        match self {
            VectorData::Dense(d) => d.len(),
            VectorData::Binary(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dim(&self) -> usize {
        match self {
            VectorData::Dense(d) => d.dim(),
            VectorData::Binary(b) => b.dim(),
        }
    }

    /// Borrow vector `i`.
    #[inline]
    pub fn view(&self, i: usize) -> VectorView<'_> {
        match self {
            VectorData::Dense(d) => VectorView::Dense(d.row(i)),
            VectorData::Binary(b) => VectorView::Binary {
                words: b.row(i),
                dim: b.dim(),
            },
        }
    }

    /// Copies the selected rows into a new collection (used to materialize
    /// query sets out of a dataset).
    pub fn gather(&self, idx: &[usize]) -> VectorData {
        match self {
            VectorData::Dense(d) => {
                let mut out = DenseData::new(d.dim());
                for &i in idx {
                    out.push(d.row(i));
                }
                VectorData::Dense(out)
            }
            VectorData::Binary(b) => {
                let mut out = BinaryData::new(b.dim());
                for &i in idx {
                    let start = out.words.len();
                    out.words.extend_from_slice(b.row(i));
                    debug_assert_eq!(out.words.len(), start + out.words_per_vec);
                }
                VectorData::Binary(out)
            }
        }
    }

    /// Appends one vector given as a borrowed view (the online-insert hot
    /// path: WAL replay and `POST /insert` both append row by row without
    /// materializing a single-row collection first).
    ///
    /// # Panics
    /// Panics if the view's representation or dimension does not match.
    // Mixing representations is a caller-contract violation with no
    // recoverable meaning.
    #[allow(clippy::panic)]
    pub fn push_view(&mut self, v: VectorView<'_>) {
        match (self, v) {
            (VectorData::Dense(a), VectorView::Dense(row)) => a.push(row),
            (VectorData::Binary(a), VectorView::Binary { words, dim }) => {
                assert_eq!(a.dim(), dim, "dimension mismatch");
                assert_eq!(words.len(), a.words_per_vec, "word count mismatch");
                a.words.extend_from_slice(words);
            }
            // cardest-lint: allow(serving-panic-reachability): mixing representations is a caller-contract violation with no recoverable meaning
            _ => panic!("cannot push a mismatched vector representation"),
        }
    }

    /// Appends all rows of `other` (same layout required).
    ///
    /// # Panics
    /// Panics if the kinds or dimensions differ.
    // Mixing representations is a caller-contract violation with no
    // recoverable meaning.
    #[allow(clippy::panic)]
    pub fn extend_from(&mut self, other: &VectorData) {
        match (self, other) {
            (VectorData::Dense(a), VectorData::Dense(b)) => {
                assert_eq!(a.dim(), b.dim(), "dimension mismatch");
                a.values.extend_from_slice(&b.values);
            }
            (VectorData::Binary(a), VectorData::Binary(b)) => {
                assert_eq!(a.dim(), b.dim(), "dimension mismatch");
                a.words.extend_from_slice(&b.words);
            }
            _ => panic!("cannot mix dense and binary collections"),
        }
    }

    /// Computes the (fractional) mean of the rows in `idx` — the centroid
    /// used by data segmentation. Binary rows average to values in `[0,1]`.
    pub fn centroid(&self, idx: &[usize]) -> Vec<f32> {
        let dim = self.dim();
        let mut acc = vec![0.0f64; dim];
        for &i in idx {
            match self.view(i) {
                VectorView::Dense(v) => {
                    for (a, x) in acc.iter_mut().zip(v) {
                        *a += *x as f64;
                    }
                }
                VectorView::Binary { words, dim } => {
                    for j in 0..dim {
                        if (words[j / 64] >> (j % 64)) & 1 == 1 {
                            acc[j] += 1.0;
                        }
                    }
                }
            }
        }
        let n = idx.len().max(1) as f64;
        acc.iter().map(|a| (a / n) as f32).collect()
    }

    /// Approximate heap size in bytes (Table 5 compares model sizes against
    /// sample sizes; sampling baselines are "sized" by this).
    pub fn heap_bytes(&self) -> usize {
        match self {
            VectorData::Dense(d) => d.values.len() * std::mem::size_of::<f32>(),
            VectorData::Binary(b) => b.words.len() * std::mem::size_of::<u64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_push_and_bit_roundtrip() {
        let mut b = BinaryData::new(70); // crosses a word boundary
        b.push_indices(&[0, 63, 64, 69]);
        b.push_indices(&[1]);
        assert_eq!(b.len(), 2);
        assert!(b.bit(0, 0) && b.bit(0, 63) && b.bit(0, 64) && b.bit(0, 69));
        assert!(!b.bit(0, 1));
        assert!(b.bit(1, 1));
        assert_eq!(b.popcount(0), 4);
    }

    #[test]
    fn push_bools_matches_push_indices() {
        let mut a = BinaryData::new(10);
        a.push_indices(&[2, 7]);
        let mut bits = vec![false; 10];
        bits[2] = true;
        bits[7] = true;
        let mut b = BinaryData::new(10);
        b.push_bools(&bits);
        assert_eq!(a, b);
    }

    #[test]
    fn view_write_dense_expands_binary() {
        let mut b = BinaryData::new(5);
        b.push_indices(&[0, 4]);
        let data = VectorData::Binary(b);
        let mut buf = Vec::new();
        data.view(0).write_dense(&mut buf);
        assert_eq!(buf, vec![1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn gather_preserves_rows() {
        let d = DenseData::from_flat(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let data = VectorData::Dense(d);
        let g = data.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        match g.view(0) {
            VectorView::Dense(v) => assert_eq!(v, &[5.0, 6.0]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn centroid_of_binary_rows_is_fractional() {
        let mut b = BinaryData::new(3);
        b.push_indices(&[0]);
        b.push_indices(&[0, 1]);
        let data = VectorData::Binary(b);
        let c = data.centroid(&[0, 1]);
        assert_eq!(c, vec![1.0, 0.5, 0.0]);
    }

    #[test]
    fn extend_from_appends_rows() {
        let mut a = VectorData::Dense(DenseData::from_flat(2, vec![1.0, 2.0]));
        let b = VectorData::Dense(DenseData::from_flat(2, vec![3.0, 4.0]));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn push_view_appends_dense_and_binary_rows() {
        let mut d = VectorData::Dense(DenseData::from_flat(2, vec![1.0, 2.0]));
        d.push_view(VectorView::Dense(&[3.0, 4.0]));
        assert_eq!(d.len(), 2);
        match d.view(1) {
            VectorView::Dense(v) => assert_eq!(v, &[3.0, 4.0]),
            _ => unreachable!(),
        }
        let mut b = BinaryData::new(70);
        b.push_indices(&[0, 69]);
        let words: Vec<u64> = b.row(0).to_vec();
        let mut data = VectorData::Binary(b);
        data.push_view(VectorView::Binary {
            words: &words,
            dim: 70,
        });
        assert_eq!(data.len(), 2);
        match (data.view(0), data.view(1)) {
            (VectorView::Binary { words: a, .. }, VectorView::Binary { words: b, .. }) => {
                assert_eq!(a, b)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn dense_json_round_trips_bit_patterns() {
        let specials = [
            -0.0f32,
            f32::from_bits(1),
            f32::MAX,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            0.1,
            -1.5,
        ];
        let d = DenseData::from_flat(1, specials.to_vec());
        let json = serde_json::to_string(&d).unwrap();
        assert!(
            json.contains("\"bits\":\"80000000000000017f7fffff7fc01234"),
            "{json}"
        );
        let back: DenseData = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dim(), 1);
        let bits = |d: &DenseData| d.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&d));
        let empty: DenseData = serde_json::from_str(r#"{"dim":3,"bits":""}"#).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn dense_json_rejects_malformed_bits() {
        for (doc, msg) in [
            (
                r#"{"dim":1,"bits":"3f80000"}"#,
                "not a multiple of 8 × dim 1",
            ),
            (
                r#"{"dim":1,"bits":"3f8000000"}"#,
                "not a multiple of 8 × dim 1",
            ),
            (
                r#"{"dim":2,"bits":"3f800000"}"#,
                "not a multiple of 8 × dim 2",
            ),
            (r#"{"dim":1,"bits":"3f80000g"}"#, "byte 0x67"),
            (r#"{"dim":1,"bits":"3F800000"}"#, "byte 0x46"),
            (r#"{"dim":1,"bits":"+f800000"}"#, "byte 0x2b"),
            (r#"{"dim":1,"bits":"3f8000é"}"#, "byte 0xc3"),
            (r#"{"dim":1,"bits":"3f80é00"}"#, "byte 0xc3"),
            (r#"{"dim":0,"bits":""}"#, "dim must be positive"),
            (r#"{"dim":0,"bits":"3f800000"}"#, "dim must be positive"),
            (
                r#"{"dim":4611686018427387904,"bits":"3f800000"}"#,
                "not a multiple of 8 × dim 4611686018427387904",
            ),
            (r#"{"dim":1,"bits":[1.0]}"#, "expected a string"),
            (r#"{"dim":1,"values":[1.0]}"#, "missing field `bits`"),
        ] {
            let err = serde_json::from_str::<DenseData>(doc).expect_err(doc);
            assert!(err.to_string().contains(msg), "{doc}: {err}");
        }
    }

    #[test]
    fn binary_json_rejects_malformed_rows() {
        for (doc, msg) in [
            (
                r#"{"dim":0,"words_per_vec":0,"words":[]}"#,
                "dim must be positive",
            ),
            (
                r#"{"dim":70,"words_per_vec":1,"words":[1,2,3]}"#,
                "words_per_vec 1 does not match dim 70",
            ),
            (
                r#"{"dim":70,"words_per_vec":2,"words":[1,2,3]}"#,
                "3 words, not whole rows of 2",
            ),
            (
                r#"{"dim":18446744073709551615,"words_per_vec":288230376151711744,"words":[1]}"#,
                "1 words, not whole rows of 288230376151711744",
            ),
        ] {
            let err = serde_json::from_str::<BinaryData>(doc).expect_err(doc);
            assert!(err.to_string().contains(msg), "{doc}: {err}");
        }
        let ok: BinaryData =
            serde_json::from_str(r#"{"dim":70,"words_per_vec":2,"words":[1,2]}"#).unwrap();
        assert_eq!((ok.len(), ok.row(0)), (1, &[1u64, 2][..]));
    }

    #[test]
    #[should_panic(expected = "cannot push a mismatched")]
    fn push_view_rejects_repr_mismatch() {
        let mut d = VectorData::Dense(DenseData::new(2));
        d.push_view(VectorView::Binary {
            words: &[0],
            dim: 2,
        });
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn extend_from_rejects_kind_mismatch() {
        let mut a = VectorData::Dense(DenseData::new(2));
        let b = VectorData::Binary(BinaryData::new(2));
        a.extend_from(&b);
    }
}
