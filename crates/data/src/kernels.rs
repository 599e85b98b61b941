// The kernels are IEEE-exact: an `as` cast that can lose precision needs
// a fn-level allow that states why it is exact.
#![cfg_attr(not(test), warn(clippy::as_conversions))]

//! Shared slice-level distance kernels.
//!
//! Every metric in [`crate::metric`] reduces to a handful of dense `f32`
//! reductions (dot, squared L2, L1, L∞, min/max sums) plus popcount
//! reductions over bit-packed words. This module is the single home for
//! those loops: the metric dispatcher picks a kernel *once per pair* (or
//! once per batch) instead of matching on the storage kind at every
//! coordinate, and other crates (k-means, PCA, the NN feature builders)
//! reuse the same kernels instead of carrying private copies.
//!
//! The dense reductions use eight independent accumulator lanes folded in
//! a fixed order, which breaks the sequential FP dependency chain so LLVM
//! autovectorizes the loop; the fold order is a pure function of the slice
//! length, so results are deterministic and independent of any batching or
//! threading at the call site.

use std::cell::RefCell;

const LANES: usize = 8;

/// Folds eight lane accumulators in a fixed tree order (pairs of strided
/// lanes, then two halves). Keeping one canonical fold means every kernel
/// in this module rounds identically for a given length.
#[inline(always)]
fn fold(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Dot product `Σ aᵢ·bᵢ` over equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
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
    let mut s = fold(acc);
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        s += x * y;
    }
    s
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²`.
#[inline]
pub fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (
            &a[i * LANES..(i + 1) * LANES],
            &b[i * LANES..(i + 1) * LANES],
        );
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut s = fold(acc);
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Manhattan sum `Σ |aᵢ−bᵢ|` (unnormalized; the metric layer divides by
/// the dimension).
#[inline]
pub fn l1_sum(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (
            &a[i * LANES..(i + 1) * LANES],
            &b[i * LANES..(i + 1) * LANES],
        );
        for l in 0..LANES {
            acc[l] += (xa[l] - xb[l]).abs();
        }
    }
    let mut s = fold(acc);
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        s += (x - y).abs();
    }
    s
}

/// Chebyshev distance `max |aᵢ−bᵢ|` (max is associative, so lane order
/// cannot change the result).
#[inline]
pub fn linf(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (
            &a[i * LANES..(i + 1) * LANES],
            &b[i * LANES..(i + 1) * LANES],
        );
        for l in 0..LANES {
            acc[l] = acc[l].max((xa[l] - xb[l]).abs());
        }
    }
    let mut m = acc.iter().fold(0.0f32, |x, &y| x.max(y));
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        m = m.max((x - y).abs());
    }
    m
}

/// One-pass `(Σ aᵢbᵢ, Σ aᵢ², Σ bᵢ²)` for cosine/angular distances.
#[inline]
pub fn dot_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    let mut accd = [0.0f32; LANES];
    let mut acca = [0.0f32; LANES];
    let mut accb = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (
            &a[i * LANES..(i + 1) * LANES],
            &b[i * LANES..(i + 1) * LANES],
        );
        for l in 0..LANES {
            accd[l] += xa[l] * xb[l];
            acca[l] += xa[l] * xa[l];
            accb[l] += xb[l] * xb[l];
        }
    }
    let (mut d, mut na, mut nb) = (fold(accd), fold(acca), fold(accb));
    for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        d += x * y;
        na += x * x;
        nb += y * y;
    }
    (d, na, nb)
}

/// One-pass `(Σ min(aᵢ,bᵢ), Σ max(aᵢ,bᵢ))` for the Ruzicka (generalized
/// Jaccard) distance.
#[inline]
pub fn minmax_sums(a: &[f32], b: &[f32]) -> (f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    let mut accn = [0.0f32; LANES];
    let mut accx = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (
            &a[i * LANES..(i + 1) * LANES],
            &b[i * LANES..(i + 1) * LANES],
        );
        for l in 0..LANES {
            accn[l] += xa[l].min(xb[l]);
            accx[l] += xa[l].max(xb[l]);
        }
    }
    let (mut mins, mut maxs) = (fold(accn), fold(accx));
    for (&x, &y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
        mins += x.min(y);
        maxs += x.max(y);
    }
    (mins, maxs)
}

/// Number of differing bits `Σ popcount(uᵢ ⊕ vᵢ)`.
#[inline]
pub fn hamming_words(u: &[u64], v: &[u64]) -> u32 {
    debug_assert_eq!(u.len(), v.len());
    u.iter().zip(v).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// One-pass `(|u ∩ v|, |u ∪ v|)` popcounts.
#[inline]
pub fn inter_union_words(u: &[u64], v: &[u64]) -> (u32, u32) {
    debug_assert_eq!(u.len(), v.len());
    let (mut inter, mut union) = (0u32, 0u32);
    for (x, y) in u.iter().zip(v) {
        inter += (x & y).count_ones();
        union += (x | y).count_ones();
    }
    (inter, union)
}

/// Number of set bits.
#[inline]
pub fn popcount_words(u: &[u64]) -> u32 {
    u.iter().map(|w| w.count_ones()).sum()
}

/// Expands `dim` packed bits into 0.0/1.0 floats, reusing `buf`.
// Each `bit` is 0 or 1, so the u64→f32 cast is exact.
#[allow(clippy::as_conversions)]
pub fn expand_bits_into(words: &[u64], dim: usize, buf: &mut Vec<f32>) {
    buf.clear();
    buf.reserve(dim);
    for j in 0..dim {
        let bit = (words[j / 64] >> (j % 64)) & 1;
        buf.push(bit as f32);
    }
}

thread_local! {
    /// Scratch buffer for expanding one binary operand to dense floats so
    /// mixed binary×dense pairs run the dense kernels without allocating
    /// per call.
    static EXPAND_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Scratch distance buffer for count-style batched entry points.
    static DIST_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the thread-local bit-expansion buffer.
pub fn with_expand_buf<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    EXPAND_BUF.with(|b| f(&mut b.borrow_mut()))
}

/// Runs `f` with the thread-local distance scratch buffer.
pub fn with_dist_buf<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    DIST_BUF.with(|b| f(&mut b.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos()).collect();
        (a, b)
    }

    #[test]
    fn kernels_match_naive_loops_across_tail_lengths() {
        for n in [0, 1, 7, 8, 9, 16, 33, 100] {
            let (a, b) = vecs(n);
            let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let naive_sq: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_l1: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            let naive_linf = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!((dot(&a, &b) - naive_dot).abs() < 1e-4, "dot n={n}");
            assert!((sq_l2(&a, &b) - naive_sq).abs() < 1e-4, "sq_l2 n={n}");
            assert!((l1_sum(&a, &b) - naive_l1).abs() < 1e-4, "l1 n={n}");
            assert_eq!(linf(&a, &b), naive_linf, "linf n={n}");
            let (d, na, nb) = dot_norms(&a, &b);
            assert!((d - naive_dot).abs() < 1e-4);
            assert!((na - dot(&a, &a)).abs() < 1e-4);
            assert!((nb - dot(&b, &b)).abs() < 1e-4);
            let (mins, maxs) = minmax_sums(&a, &b);
            let nm: f32 = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).sum();
            let nx: f32 = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).sum();
            assert!((mins - nm).abs() < 1e-4 && (maxs - nx).abs() < 1e-4);
        }
    }

    #[test]
    fn bit_kernels_match_bit_loops() {
        let u = [0b1011u64, u64::MAX, 0];
        let v = [0b1101u64, 0, u64::MAX];
        assert_eq!(hamming_words(&u, &v), 2 + 64 + 64);
        let (i, un) = inter_union_words(&u, &v);
        assert_eq!(i, 2);
        assert_eq!(un, 4 + 64 + 64);
        assert_eq!(popcount_words(&u), 3 + 64);
        let mut buf = Vec::new();
        expand_bits_into(&[0b101u64], 3, &mut buf);
        assert_eq!(buf, vec![1.0, 0.0, 1.0]);
    }
}
