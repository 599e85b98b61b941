//! The three layer kinds the paper's models are assembled from.
//!
//! * [`Dense`] — fully-connected layer. With a [`WeightConstraint`] it
//!   becomes the positivity-constrained layer used by the threshold
//!   embedding `E2`/`E5` to make the τ-path monotone (§5.1).
//! * [`Conv1d`] — 1-D convolution with shared weights per layer plus a
//!   built-in pooling stage. With `kernel = stride = segment length` the
//!   first layer evaluates one filter per query segment — exactly the
//!   query-segmentation module `f()`/`g()` of §3.2 and Fig. 7.
//! * [`ShiftSigmoid`] — `σ(s − t)` with a learnable per-output threshold
//!   `t`: the "added learnable threshold before the Sigmoid activator" of
//!   the global model (§5.1).
//!
//! Layers are enum variants rather than trait objects so models serialize
//! with serde and dispatch statically.

use crate::activation::Activation;
use crate::init;
use crate::scratch::Scratch;
use crate::tensor::{axpy, dot, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A mutable view over one parameter tensor and its gradient accumulator.
/// The optimizer iterates these in a deterministic order.
pub struct ParamSlice<'a> {
    pub values: &'a mut [f32],
    pub grads: &'a mut [f32],
}

/// Positivity constraints on a dense layer's weights, enforced by clamping
/// after every optimizer step (standard monotone-network practice).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum WeightConstraint {
    /// Unconstrained weights.
    #[default]
    None,
    /// Every weight is clamped to `≥ 0`. Used by the threshold embedding.
    NonNegative,
    /// Only weights reading the flagged input columns are clamped to `≥ 0`.
    /// Used in `strict_monotonic` mode for the first layer of `F`, whose
    /// input concatenates `z_q ⊕ z_τ ⊕ z_D`: only the `z_τ` block must be
    /// positive for the τ-path to stay monotone.
    NonNegativeCols(Vec<bool>),
}

/// Pooling operator inside a [`Conv1d`] layer — the paper tunes this as the
/// hyperparameter `θ_op ∈ {MAX, AVG, SUM}` (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolOp {
    Max,
    Avg,
    Sum,
}

/// Fully-connected layer `y = act(x·Wᵀ + b)` with `W` stored `[out, in]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Matrix,
    b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    activation: Activation,
    constraint: WeightConstraint,
    #[serde(skip)]
    cache_input: Option<Matrix>,
    #[serde(skip)]
    cache_output: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with activation-appropriate initialization.
    pub fn new<R: Rng>(rng: &mut R, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        let w = match activation {
            Activation::Relu => init::he_uniform(rng, in_dim, in_dim * out_dim),
            _ => init::xavier_uniform(rng, in_dim, out_dim, in_dim * out_dim),
        };
        Dense {
            in_dim,
            out_dim,
            w: Matrix::from_vec(out_dim, in_dim, w),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(out_dim, in_dim),
            gb: vec![0.0; out_dim],
            activation,
            constraint: WeightConstraint::None,
            cache_input: None,
            cache_output: None,
        }
    }

    /// Creates a positivity-constrained dense layer (monotone in every
    /// input): weights are initialized non-negative and clamped after each
    /// step. This is the building block of the threshold embedding `E2`.
    pub fn new_nonneg<R: Rng>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        let w = init::nonneg_uniform(rng, in_dim, out_dim, in_dim * out_dim);
        Dense {
            in_dim,
            out_dim,
            w: Matrix::from_vec(out_dim, in_dim, w),
            b: vec![0.0; out_dim],
            gw: Matrix::zeros(out_dim, in_dim),
            gb: vec![0.0; out_dim],
            activation,
            constraint: WeightConstraint::NonNegative,
            cache_input: None,
            cache_output: None,
        }
    }

    /// Restricts positivity to the weights reading the flagged input columns.
    pub fn with_nonneg_cols(mut self, cols: Vec<bool>) -> Self {
        assert_eq!(cols.len(), self.in_dim, "column mask length mismatch");
        // Make the constraint hold immediately.
        for o in 0..self.out_dim {
            for (i, &flag) in cols.iter().enumerate() {
                if flag && self.w.get(o, i) < 0.0 {
                    let v = -self.w.get(o, i);
                    self.w.set(o, i, v);
                }
            }
        }
        self.constraint = WeightConstraint::NonNegativeCols(cols);
        self
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Read-only view of the weight matrix (used by tests and the
    /// monotonicity checker).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "dense input width mismatch");
        let mut y = x.matmul_nt(&self.w);
        y.add_bias(&self.b);
        self.activation.apply(y.as_mut_slice());
        self.cache_input = Some(x.clone());
        self.cache_output = Some(y.clone());
        y
    }

    /// Immutable forward pass: same math as [`Dense::forward`] (any batch
    /// size), but no caches are written, so the layer can be shared across
    /// threads. Temporaries come from the caller's [`Scratch`].
    fn infer(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(x.cols(), self.in_dim, "dense input width mismatch");
        let mut y = scratch.take(x.rows(), self.out_dim);
        x.matmul_nt_into(&self.w, &mut y);
        y.add_bias(&self.b);
        self.activation.apply(y.as_mut_slice());
        y
    }

    // Calling backward before forward is an API-contract violation; the
    // cache `expect`s make that a panic rather than a silent wrong gradient.
    #[allow(clippy::expect_used)]
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // cardest-lint: allow(serving-panic-reachability): backward before forward is a Layer API-contract violation; abort beats a silent wrong gradient
        let x = self.cache_input.as_ref().expect("backward before forward");
        // cardest-lint: allow(serving-panic-reachability): backward before forward is a Layer API-contract violation; abort beats a silent wrong gradient
        let y = self.cache_output.as_ref().expect("backward before forward");
        // Pre-activation gradient.
        let mut g = grad_out.clone();
        for (gi, yi) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gi *= self.activation.derivative_from_output(*yi);
        }
        // Accumulate parameter gradients.
        let dw = g.matmul_tn(x); // [out, in]
        for (a, b) in self.gw.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *a += b;
        }
        for r in 0..g.rows() {
            for (gb, gi) in self.gb.iter_mut().zip(g.row(r)) {
                *gb += gi;
            }
        }
        // Input gradient: dx = g · W.
        g.matmul_nn(&self.w)
    }

    fn apply_constraints(&mut self) {
        match &self.constraint {
            WeightConstraint::None => {}
            WeightConstraint::NonNegative => {
                for w in self.w.as_mut_slice() {
                    if *w < 0.0 {
                        *w = 0.0;
                    }
                }
            }
            WeightConstraint::NonNegativeCols(cols) => {
                let out_dim = self.out_dim;
                for o in 0..out_dim {
                    for (i, &flag) in cols.iter().enumerate() {
                        if flag && self.w.get(o, i) < 0.0 {
                            self.w.set(o, i, 0.0);
                        }
                    }
                }
            }
        }
    }
}

/// 1-D convolution with shared weights, built-in activation and pooling.
///
/// Input is `[batch, in_channels × in_len]` laid out channel-major per
/// sample. Output is `[batch, out_channels × pool_len]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1d {
    in_channels: usize,
    in_len: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    pool: PoolOp,
    pool_size: usize,
    activation: Activation,
    /// Weights `[out_c, in_c, k]`, flattened.
    w: Vec<f32>,
    b: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    #[serde(skip)]
    cache_input: Option<Matrix>,
    #[serde(skip)]
    cache_conv: Option<Matrix>,
    #[serde(skip)]
    cache_argmax: Option<Vec<usize>>,
}

/// Static description of a conv layer — the tuple `Θ` of tunable
/// hyperparameters from §5.2 (Algorithm 3 searches over these).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvSpec {
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    pub pool_size: usize,
    pub pool: PoolOp,
}

impl Conv1d {
    /// Creates a conv layer for input `[in_channels × in_len]`.
    ///
    /// # Panics
    /// Panics if the configuration produces an empty output.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        in_len: usize,
        spec: ConvSpec,
        activation: Activation,
    ) -> Self {
        let conv_len = Self::conv_len_for(in_len, &spec);
        assert!(
            conv_len >= 1,
            "conv configuration {spec:?} yields empty output for len {in_len}"
        );
        let fan_in = in_channels * spec.kernel;
        let n = spec.out_channels * in_channels * spec.kernel;
        let w = match activation {
            Activation::Relu => init::he_uniform(rng, fan_in, n),
            _ => init::xavier_uniform(rng, fan_in, spec.out_channels, n),
        };
        Conv1d {
            in_channels,
            in_len,
            out_channels: spec.out_channels,
            kernel: spec.kernel,
            stride: spec.stride,
            padding: spec.padding,
            pool: spec.pool,
            pool_size: spec.pool_size.max(1),
            activation,
            w,
            b: vec![0.0; spec.out_channels],
            gw: vec![0.0; n],
            gb: vec![0.0; spec.out_channels],
            cache_input: None,
            cache_conv: None,
            cache_argmax: None,
        }
    }

    fn conv_len_for(in_len: usize, spec: &ConvSpec) -> usize {
        let padded = in_len + 2 * spec.padding;
        if padded < spec.kernel {
            0
        } else {
            (padded - spec.kernel) / spec.stride.max(1) + 1
        }
    }

    /// Whether `spec` is applicable to an input of length `in_len`.
    pub fn spec_fits(in_len: usize, spec: &ConvSpec) -> bool {
        Self::conv_len_for(in_len, spec) >= 1
    }

    /// Convolution output length before pooling.
    pub fn conv_len(&self) -> usize {
        let spec = ConvSpec {
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            pool_size: self.pool_size,
            pool: self.pool,
        };
        Self::conv_len_for(self.in_len, &spec)
    }

    /// Output length after pooling (`ceil(conv_len / pool_size)`).
    pub fn pool_len(&self) -> usize {
        self.conv_len().div_ceil(self.pool_size)
    }

    pub fn in_dim(&self) -> usize {
        self.in_channels * self.in_len
    }

    pub fn out_dim(&self) -> usize {
        self.out_channels * self.pool_len()
    }

    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    #[inline]
    fn w_at(&self, oc: usize, ic: usize, k: usize) -> f32 {
        self.w[(oc * self.in_channels + ic) * self.kernel + k]
    }

    /// Convolution + activation into `conv` (`[batch, out_c × conv_len]`).
    ///
    /// The kernel window is clipped to the valid input range once per tap,
    /// so the inner product runs over contiguous slices with no per-element
    /// boundary branch.
    fn conv_into(&self, x: &Matrix, conv: &mut Matrix) {
        let batch = x.rows();
        let conv_len = self.conv_len();
        if self.stride == 1 {
            // Unit stride: for each weight tap the valid outputs form one
            // contiguous run (`t + k − padding ∈ [0, in_len)`), so the
            // whole tap is a single `axpy` over the output row — much
            // faster than per-output dots when the kernel is short.
            for s in 0..batch {
                let xin = x.row(s);
                let orow = conv.row_mut(s);
                for oc in 0..self.out_channels {
                    let seg = &mut orow[oc * conv_len..(oc + 1) * conv_len];
                    seg.fill(self.b[oc]);
                    for ic in 0..self.in_channels {
                        let xrow = &xin[ic * self.in_len..(ic + 1) * self.in_len];
                        for k in 0..self.kernel {
                            let t_lo = self.padding.saturating_sub(k);
                            let t_hi = (self.in_len + self.padding).saturating_sub(k).min(conv_len);
                            if t_lo < t_hi {
                                let x0 = t_lo + k - self.padding;
                                axpy(
                                    self.w_at(oc, ic, k),
                                    &xrow[x0..x0 + (t_hi - t_lo)],
                                    &mut seg[t_lo..t_hi],
                                );
                            }
                        }
                    }
                }
            }
            self.activation.apply(conv.as_mut_slice());
            return;
        }
        let in_len = self.in_len as isize;
        for s in 0..batch {
            let xin = x.row(s);
            let orow = conv.row_mut(s);
            for oc in 0..self.out_channels {
                let wb = oc * self.in_channels * self.kernel;
                for t in 0..conv_len {
                    let start = (t * self.stride) as isize - self.padding as isize;
                    let k_lo = (-start).max(0) as usize;
                    let k_hi = (in_len - start).clamp(0, self.kernel as isize) as usize;
                    let mut acc = self.b[oc];
                    if k_hi > k_lo {
                        let x0 = (start + k_lo as isize) as usize;
                        for ic in 0..self.in_channels {
                            let xs = &xin[ic * self.in_len + x0..][..k_hi - k_lo];
                            let ws = &self.w[wb + ic * self.kernel + k_lo..][..k_hi - k_lo];
                            acc += dot(ws, xs);
                        }
                    }
                    orow[oc * conv_len + t] = acc;
                }
            }
        }
        self.activation.apply(conv.as_mut_slice());
    }

    /// Pooling into `out` (`[batch, out_c × pool_len]`); `argmax`, when
    /// provided, records the winning position per max-pool window for
    /// backward. Inference passes `None` and skips the bookkeeping.
    fn pool_into(&self, conv: &Matrix, out: &mut Matrix, mut argmax: Option<&mut [usize]>) {
        let batch = conv.rows();
        let conv_len = self.conv_len();
        let pool_len = self.pool_len();
        for s in 0..batch {
            let crow = conv.row(s);
            let orow = out.row_mut(s);
            for oc in 0..self.out_channels {
                for p in 0..pool_len {
                    let lo = p * self.pool_size;
                    let hi = ((p + 1) * self.pool_size).min(conv_len);
                    let window = &crow[oc * conv_len + lo..oc * conv_len + hi];
                    let oi = oc * pool_len + p;
                    match self.pool {
                        PoolOp::Max => {
                            let (ami, amv) = window.iter().enumerate().fold(
                                (0usize, f32::NEG_INFINITY),
                                |(bi, bv), (i, &v)| {
                                    if v > bv {
                                        (i, v)
                                    } else {
                                        (bi, bv)
                                    }
                                },
                            );
                            orow[oi] = amv;
                            if let Some(am) = argmax.as_deref_mut() {
                                am[(s * self.out_channels + oc) * pool_len + p] = lo + ami;
                            }
                        }
                        PoolOp::Avg => {
                            orow[oi] = window.iter().sum::<f32>() / window.len() as f32;
                        }
                        PoolOp::Sum => {
                            orow[oi] = window.iter().sum::<f32>();
                        }
                    }
                }
            }
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "conv input width mismatch");
        let batch = x.rows();
        let mut conv = Matrix::zeros(batch, self.out_channels * self.conv_len());
        self.conv_into(x, &mut conv);
        let mut out = Matrix::zeros(batch, self.out_channels * self.pool_len());
        let mut argmax = vec![0usize; batch * self.out_channels * self.pool_len()];
        self.pool_into(&conv, &mut out, Some(&mut argmax));
        self.cache_input = Some(x.clone());
        self.cache_conv = Some(conv);
        self.cache_argmax = Some(argmax);
        out
    }

    /// Immutable forward pass over a full batch: identical math to
    /// [`Conv1d::forward`] but no caches (max-pool argmax bookkeeping is
    /// skipped — it only feeds backward).
    fn infer(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "conv input width mismatch");
        let batch = x.rows();
        let mut conv = scratch.take(batch, self.out_channels * self.conv_len());
        self.conv_into(x, &mut conv);
        let mut out = scratch.take(batch, self.out_channels * self.pool_len());
        self.pool_into(&conv, &mut out, None);
        scratch.recycle(conv);
        out
    }

    // Backward before forward is an API-contract violation (see Dense).
    #[allow(clippy::expect_used)]
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // cardest-lint: allow(serving-panic-reachability): backward before forward is a Layer API-contract violation; abort beats a silent wrong gradient
        let x = self.cache_input.as_ref().expect("backward before forward");
        // cardest-lint: allow(serving-panic-reachability): backward before forward is a Layer API-contract violation; abort beats a silent wrong gradient
        let conv = self.cache_conv.as_ref().expect("backward before forward");
        // cardest-lint: allow(serving-panic-reachability): backward before forward is a Layer API-contract violation; abort beats a silent wrong gradient
        let argmax = self.cache_argmax.as_ref().expect("backward before forward");
        let batch = x.rows();
        let conv_len = self.conv_len();
        let pool_len = self.pool_len();
        // Un-pool into gradient w.r.t. post-activation conv output, then fold
        // in the activation derivative.
        let mut gconv = Matrix::zeros(batch, self.out_channels * conv_len);
        for s in 0..batch {
            let grow = grad_out.row(s);
            let crow = gconv.row_mut(s);
            for oc in 0..self.out_channels {
                for p in 0..pool_len {
                    let g = grow[oc * pool_len + p];
                    let lo = p * self.pool_size;
                    let hi = ((p + 1) * self.pool_size).min(conv_len);
                    match self.pool {
                        PoolOp::Max => {
                            let am = argmax[(s * self.out_channels + oc) * pool_len + p];
                            crow[oc * conv_len + am] += g;
                        }
                        PoolOp::Avg => {
                            let inv = 1.0 / (hi - lo) as f32;
                            for t in lo..hi {
                                crow[oc * conv_len + t] += g * inv;
                            }
                        }
                        PoolOp::Sum => {
                            for t in lo..hi {
                                crow[oc * conv_len + t] += g;
                            }
                        }
                    }
                }
            }
        }
        for (g, y) in gconv.as_mut_slice().iter_mut().zip(conv.as_slice()) {
            *g *= self.activation.derivative_from_output(*y);
        }
        // Parameter and input gradients.
        let mut gx = Matrix::zeros(batch, self.in_dim());
        for s in 0..batch {
            let xin = x.row(s);
            let grow = gconv.row(s);
            let gxrow = gx.row_mut(s);
            for oc in 0..self.out_channels {
                for t in 0..conv_len {
                    let g = grow[oc * conv_len + t];
                    // cardest-lint: allow(float-total-order): exact IEEE zero test to skip no-op axpy work, not a tolerance check
                    if g == 0.0 {
                        continue;
                    }
                    self.gb[oc] += g;
                    let start = (t * self.stride) as isize - self.padding as isize;
                    for ic in 0..self.in_channels {
                        let base = ic * self.in_len;
                        for k in 0..self.kernel {
                            let pos = start + k as isize;
                            if pos >= 0 && (pos as usize) < self.in_len {
                                let pos = pos as usize;
                                self.gw[(oc * self.in_channels + ic) * self.kernel + k] +=
                                    g * xin[base + pos];
                                gxrow[base + pos] += g * self.w_at(oc, ic, k);
                            }
                        }
                    }
                }
            }
        }
        gx
    }
}

/// `p = σ(s − t)` with a learnable per-output threshold vector `t`.
///
/// The global model emits one selection probability per data segment; the
/// learned shift keeps the probability monotone in the query threshold
/// while letting each segment pick its own operating point (§5.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShiftSigmoid {
    dim: usize,
    t: Vec<f32>,
    gt: Vec<f32>,
    #[serde(skip)]
    cache_output: Option<Matrix>,
}

impl ShiftSigmoid {
    pub fn new(dim: usize) -> Self {
        ShiftSigmoid {
            dim,
            t: vec![0.0; dim],
            gt: vec![0.0; dim],
            cache_output: None,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim, "shift-sigmoid input width mismatch");
        let mut y = x.clone();
        for r in 0..y.rows() {
            for (v, t) in y.row_mut(r).iter_mut().zip(&self.t) {
                *v -= t;
            }
        }
        Activation::Sigmoid.apply(y.as_mut_slice());
        self.cache_output = Some(y.clone());
        y
    }

    /// Immutable forward pass (no cache): `σ(x − t)` element-wise.
    fn infer(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(x.cols(), self.dim, "shift-sigmoid input width mismatch");
        let mut y = scratch.take(x.rows(), x.cols());
        y.as_mut_slice().copy_from_slice(x.as_slice());
        for r in 0..y.rows() {
            for (v, t) in y.row_mut(r).iter_mut().zip(&self.t) {
                *v -= t;
            }
        }
        Activation::Sigmoid.apply(y.as_mut_slice());
        y
    }

    // Backward before forward is an API-contract violation (see Dense).
    #[allow(clippy::expect_used)]
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // cardest-lint: allow(serving-panic-reachability): backward before forward is a Layer API-contract violation; abort beats a silent wrong gradient
        let y = self.cache_output.as_ref().expect("backward before forward");
        let mut gx = grad_out.clone();
        for (g, p) in gx.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *g *= p * (1.0 - p);
        }
        for r in 0..gx.rows() {
            for (gt, g) in self.gt.iter_mut().zip(gx.row(r)) {
                *gt -= g;
            }
        }
        gx
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`, so evaluation
/// needs no rescaling. Exp-9 credits part of GL+'s speed to "the dropout
/// for DNN" — only a part of the parameters participating per query.
///
/// The layer is a no-op until [`Dropout::set_training`] turns training
/// mode on; estimators run inference with the mask disabled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    dim: usize,
    p: f32,
    #[serde(skip)]
    training: bool,
    /// Deterministic per-forward mask seed, advanced each call.
    seed: u64,
    #[serde(skip)]
    cache_mask: Option<Vec<f32>>,
}

impl Dropout {
    pub fn new(dim: usize, p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            dim,
            p,
            training: false,
            seed,
            cache_mask: None,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Enables/disables the training-time mask.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim, "dropout input width mismatch");
        // cardest-lint: allow(float-total-order): p == 0.0 is an exact sentinel for "dropout disabled", set only from the literal
        if !self.training || self.p == 0.0 {
            self.cache_mask = None;
            return x.clone();
        }
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let scale = 1.0 / (1.0 - self.p);
        let mask: Vec<f32> = (0..x.as_slice().len())
            .map(|_| {
                if rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    scale
                }
            })
            .collect();
        let mut y = x.clone();
        for (v, m) in y.as_mut_slice().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.cache_mask = Some(mask);
        y
    }

    /// Immutable forward pass: inference-mode dropout is the identity.
    fn infer(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(x.cols(), self.dim, "dropout input width mismatch");
        let mut y = scratch.take(x.rows(), x.cols());
        y.as_mut_slice().copy_from_slice(x.as_slice());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match &self.cache_mask {
            None => grad_out.clone(),
            Some(mask) => {
                let mut g = grad_out.clone();
                for (v, m) in g.as_mut_slice().iter_mut().zip(mask) {
                    *v *= m;
                }
                g
            }
        }
    }
}

/// A network layer. Enum-based so models are serde-serializable and layer
/// dispatch is static.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    Dense(Dense),
    Conv1d(Conv1d),
    ShiftSigmoid(ShiftSigmoid),
    Dropout(Dropout),
}

impl Layer {
    /// Runs the layer on a batch, caching what backward needs.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        match self {
            Layer::Dense(l) => l.forward(x),
            Layer::Conv1d(l) => l.forward(x),
            Layer::ShiftSigmoid(l) => l.forward(x),
            Layer::Dropout(l) => l.forward(x),
        }
    }

    /// Runs the layer on a batch without mutating it: the shared-model
    /// inference path. Identical math to [`Layer::forward`] (dropout is the
    /// identity at inference either way); temporaries are drawn from the
    /// caller's [`Scratch`].
    pub fn infer(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        match self {
            Layer::Dense(l) => l.infer(x, scratch),
            Layer::Conv1d(l) => l.infer(x, scratch),
            Layer::ShiftSigmoid(l) => l.infer(x, scratch),
            Layer::Dropout(l) => l.infer(x, scratch),
        }
    }

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the layer input.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self {
            Layer::Dense(l) => l.backward(grad_out),
            Layer::Conv1d(l) => l.backward(grad_out),
            Layer::ShiftSigmoid(l) => l.backward(grad_out),
            Layer::Dropout(l) => l.backward(grad_out),
        }
    }

    /// Flattened output width for a given input width.
    pub fn out_dim(&self) -> usize {
        match self {
            Layer::Dense(l) => l.out_dim(),
            Layer::Conv1d(l) => l.out_dim(),
            Layer::ShiftSigmoid(l) => l.dim(),
            Layer::Dropout(l) => l.dim(),
        }
    }

    /// Flattened input width the layer expects.
    pub fn in_dim(&self) -> usize {
        match self {
            Layer::Dense(l) => l.in_dim(),
            Layer::Conv1d(l) => l.in_dim(),
            Layer::ShiftSigmoid(l) => l.dim(),
            Layer::Dropout(l) => l.dim(),
        }
    }

    /// Visits every `(values, grads)` parameter pair in deterministic order.
    pub fn params_mut(&mut self) -> Vec<ParamSlice<'_>> {
        match self {
            Layer::Dense(l) => vec![
                ParamSlice {
                    values: l.w.as_mut_slice(),
                    grads: l.gw.as_mut_slice(),
                },
                ParamSlice {
                    values: &mut l.b,
                    grads: &mut l.gb,
                },
            ],
            Layer::Conv1d(l) => vec![
                ParamSlice {
                    values: &mut l.w,
                    grads: &mut l.gw,
                },
                ParamSlice {
                    values: &mut l.b,
                    grads: &mut l.gb,
                },
            ],
            Layer::ShiftSigmoid(l) => {
                vec![ParamSlice {
                    values: &mut l.t,
                    grads: &mut l.gt,
                }]
            }
            Layer::Dropout(_) => Vec::new(),
        }
    }

    /// Read-only parameter views in the same order as
    /// [`params_mut`](Self::params_mut) (used for snapshots and replica
    /// synchronization in the data-parallel trainer).
    pub fn param_values(&self) -> Vec<&[f32]> {
        match self {
            Layer::Dense(l) => vec![l.w.as_slice(), &l.b],
            Layer::Conv1d(l) => vec![&l.w, &l.b],
            Layer::ShiftSigmoid(l) => vec![&l.t],
            Layer::Dropout(_) => Vec::new(),
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(l) => l.w.as_slice().len() + l.b.len(),
            Layer::Conv1d(l) => l.w.len() + l.b.len(),
            Layer::ShiftSigmoid(l) => l.t.len(),
            Layer::Dropout(_) => 0,
        }
    }

    /// Re-establishes weight constraints after an optimizer step.
    pub fn apply_constraints(&mut self) {
        if let Layer::Dense(l) = self {
            l.apply_constraints();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check over every parameter and the input,
    /// for an arbitrary layer under a quadratic loss L = 0.5·Σ y².
    fn grad_check(layer: &mut Layer, x: &Matrix, tol: f32) {
        let loss = |layer: &mut Layer, x: &Matrix| -> f32 {
            let y = layer.forward(x);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        // Analytic gradients.
        let y = layer.forward(x);
        let gx = layer.backward(&y);
        let analytic: Vec<Vec<f32>> = layer
            .params_mut()
            .iter()
            .map(|p| p.grads.to_vec())
            .collect();
        // Numeric parameter gradients.
        let h = 2e-3f32;
        for (pi, grads) in analytic.iter().enumerate() {
            for (wi, &an) in grads.iter().enumerate() {
                let orig = layer.params_mut()[pi].values[wi];
                layer.params_mut()[pi].values[wi] = orig + h;
                let lp = loss(layer, x);
                layer.params_mut()[pi].values[wi] = orig - h;
                let lm = loss(layer, x);
                layer.params_mut()[pi].values[wi] = orig;
                let fd = (lp - lm) / (2.0 * h);
                let denom = fd.abs().max(an.abs()).max(1.0);
                assert!(
                    (fd - an).abs() / denom < tol,
                    "param[{pi}][{wi}]: fd={fd} analytic={an}"
                );
            }
        }
        // Numeric input gradients.
        let mut xm = x.clone();
        for i in 0..xm.as_slice().len() {
            let orig = xm.as_slice()[i];
            xm.as_mut_slice()[i] = orig + h;
            let lp = loss(layer, &xm);
            xm.as_mut_slice()[i] = orig - h;
            let lm = loss(layer, &xm);
            xm.as_mut_slice()[i] = orig;
            let fd = (lp - lm) / (2.0 * h);
            let an = gx.as_slice()[i];
            let denom = fd.abs().max(an.abs()).max(1.0);
            assert!(
                (fd - an).abs() / denom < tol,
                "input[{i}]: fd={fd} analytic={an}"
            );
        }
    }

    fn batch(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        use rand::Rng;
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    /// Probe loss L = 0.5·Σ y² accumulated in f64, so finite-difference
    /// noise comes only from the f32 forward pass (~1e-7 per output) and a
    /// 1e-3 tolerance has real margin.
    fn tight_loss(layer: &mut Layer, x: &Matrix) -> f64 {
        let y = layer.forward(x);
        0.5 * y
            .as_slice()
            .iter()
            .map(|&v| v as f64 * v as f64)
            .sum::<f64>()
    }

    /// Finite-difference gradient check at tolerance 1e-3 over every
    /// parameter and every input entry. Callers must keep the layer away
    /// from non-smooth points (ReLU kinks, max-pool ties) by more than `h`
    /// worth of perturbation — see the margin assertions in the tests.
    fn grad_check_tight(layer: &mut Layer, x: &Matrix) {
        const TOL: f64 = 1e-3;
        const H: f64 = 5e-3;
        let y = layer.forward(x);
        let gx = layer.backward(&y);
        let analytic: Vec<Vec<f32>> = layer
            .params_mut()
            .iter()
            .map(|p| p.grads.to_vec())
            .collect();
        for (pi, grads) in analytic.iter().enumerate() {
            for (wi, &an) in grads.iter().enumerate() {
                let orig = layer.params_mut()[pi].values[wi];
                layer.params_mut()[pi].values[wi] = orig + H as f32;
                let lp = tight_loss(layer, x);
                layer.params_mut()[pi].values[wi] = orig - H as f32;
                let lm = tight_loss(layer, x);
                layer.params_mut()[pi].values[wi] = orig;
                let fd = (lp - lm) / (2.0 * H);
                let an = an as f64;
                let denom = fd.abs().max(an.abs()).max(1.0);
                assert!(
                    (fd - an).abs() / denom < TOL,
                    "param[{pi}][{wi}]: fd={fd} analytic={an}"
                );
            }
        }
        let mut xm = x.clone();
        for i in 0..xm.as_slice().len() {
            let orig = xm.as_slice()[i];
            xm.as_mut_slice()[i] = orig + H as f32;
            let lp = tight_loss(layer, &xm);
            xm.as_mut_slice()[i] = orig - H as f32;
            let lm = tight_loss(layer, &xm);
            xm.as_mut_slice()[i] = orig;
            let fd = (lp - lm) / (2.0 * H);
            let an = gx.as_slice()[i] as f64;
            let denom = fd.abs().max(an.abs()).max(1.0);
            assert!(
                (fd - an).abs() / denom < TOL,
                "input[{i}]: fd={fd} analytic={an}"
            );
        }
    }

    /// Smallest absolute pre-activation of a dense layer over a batch —
    /// the ReLU kink margin the tight checks need.
    fn dense_preact_margin(seed: u64, x: &Matrix, in_dim: usize, out_dim: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut probe = Dense::new(&mut rng, in_dim, out_dim, Activation::Identity);
        let z = probe.forward(x);
        z.as_slice()
            .iter()
            .fold(f32::INFINITY, |m, v| m.min(v.abs()))
    }

    #[test]
    fn dense_gradients_check_out_at_tight_tolerance_every_activation() {
        let seed = 31;
        for act in [
            Activation::Identity,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Relu,
        ] {
            let mut data_rng = StdRng::seed_from_u64(77);
            let x = batch(&mut data_rng, 3, 5);
            if act == Activation::Relu {
                // ±H perturbations move a pre-activation by at most
                // H·max(|x|, |w|) ≈ 5e-3; a 0.03 margin keeps the central
                // difference on one side of the kink.
                let margin = dense_preact_margin(seed, &x, 5, 4);
                assert!(margin > 0.03, "ReLU kink margin too small: {margin}");
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut l = Layer::Dense(Dense::new(&mut rng, 5, 4, act));
            grad_check_tight(&mut l, &x);
        }
    }

    #[test]
    fn conv1d_gradients_check_out_at_tight_tolerance_every_pool() {
        for pool in [PoolOp::Avg, PoolOp::Sum, PoolOp::Max] {
            let spec = ConvSpec {
                out_channels: 2,
                kernel: 3,
                stride: 2,
                padding: 1,
                pool_size: 2,
                pool,
            };
            let mut data_rng = StdRng::seed_from_u64(88);
            let x = batch(&mut data_rng, 2, 16);
            if pool == PoolOp::Max {
                // Assert every max-pool window has a unique winner with
                // margin, so ±H perturbations cannot flip the argmax. The
                // probe re-runs the conv with pool_size 1 (raw activated
                // conv outputs) from the same weight seed.
                let probe_spec = ConvSpec {
                    pool_size: 1,
                    pool: PoolOp::Avg,
                    ..spec
                };
                let mut probe = Conv1d::new(
                    &mut StdRng::seed_from_u64(32),
                    2,
                    8,
                    probe_spec,
                    Activation::Tanh,
                );
                let raw = probe.forward(&x);
                let conv_len = probe.conv_len();
                let channels = raw.cols() / conv_len;
                let mut margin = f32::INFINITY;
                for r in 0..raw.rows() {
                    for c in 0..channels {
                        for w0 in (0..conv_len).step_by(spec.pool_size) {
                            let w1 = (w0 + spec.pool_size).min(conv_len);
                            let mut vals: Vec<f32> =
                                (w0..w1).map(|t| raw.get(r, c * conv_len + t)).collect();
                            vals.sort_by(|a, b| b.total_cmp(a));
                            if vals.len() > 1 {
                                margin = margin.min(vals[0] - vals[1]);
                            }
                        }
                    }
                }
                assert!(margin > 0.05, "max-pool tie margin too small: {margin}");
            }
            let mut rng = StdRng::seed_from_u64(32);
            let mut l = Layer::Conv1d(Conv1d::new(&mut rng, 2, 8, spec, Activation::Tanh));
            grad_check_tight(&mut l, &x);
        }
    }

    #[test]
    fn descending_total_cmp_sort_survives_nan() {
        // Regression for the max-pool margin probe above: sorting with
        // `partial_cmp(..).unwrap()` aborted the whole test harness when
        // an activation was NaN. `total_cmp` orders NaN deterministically
        // (+NaN above +inf, -NaN below -inf), so a poisoned probe now
        // fails its margin assertion instead of panicking mid-sort.
        let mut vals = [0.3f32, f32::NAN, 0.7, -f32::NAN, 0.1];
        vals.sort_by(|a, b| b.total_cmp(a));
        assert!(vals[0].is_nan() && vals[0].is_sign_positive());
        assert_eq!(vals[1..4], [0.7, 0.3, 0.1]);
        assert!(vals[4].is_nan() && vals[4].is_sign_negative());
        // A NaN margin can never satisfy the probe's `margin > eps` gate.
        let margin = vals[0] - vals[1];
        assert!(margin.is_nan());
    }

    #[test]
    fn shift_sigmoid_gradients_check_out_at_tight_tolerance() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut l = Layer::ShiftSigmoid(ShiftSigmoid::new(4));
        let x = batch(&mut rng, 3, 4);
        grad_check_tight(&mut l, &x);
    }

    #[test]
    fn dropout_gradients_check_out_at_tight_tolerance() {
        // Inference-mode dropout is the identity; the check still exercises
        // its backward against finite differences like every other layer.
        let mut rng = StdRng::seed_from_u64(34);
        let mut l = Layer::Dropout(Dropout::new(6, 0.5, 9));
        let x = batch(&mut rng, 3, 6);
        grad_check_tight(&mut l, &x);
    }

    #[test]
    fn dense_gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(3);
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut l = Layer::Dense(Dense::new(&mut rng, 5, 4, act));
            let x = batch(&mut rng, 3, 5);
            grad_check(&mut l, &x, 2e-2);
        }
    }

    #[test]
    fn nonneg_dense_stays_nonneg_after_constraint() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Dense::new_nonneg(&mut rng, 4, 3, Activation::Relu);
        // Push weights negative, then re-apply the constraint.
        for w in l.w.as_mut_slice() {
            *w -= 10.0;
        }
        l.apply_constraints();
        assert!(l.weights().as_slice().iter().all(|w| *w >= 0.0));
    }

    #[test]
    fn nonneg_cols_only_clamps_masked_columns() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Dense::new(&mut rng, 3, 2, Activation::Identity)
            .with_nonneg_cols(vec![false, true, false]);
        // Masked column (index 1) must already be non-negative.
        for o in 0..2 {
            assert!(l.weights().get(o, 1) >= 0.0);
        }
    }

    #[test]
    fn conv1d_gradients_check_out_all_pools() {
        let mut rng = StdRng::seed_from_u64(6);
        for pool in [PoolOp::Avg, PoolOp::Sum, PoolOp::Max] {
            let spec = ConvSpec {
                out_channels: 2,
                kernel: 3,
                stride: 2,
                padding: 1,
                pool_size: 2,
                pool,
            };
            let mut l = Layer::Conv1d(Conv1d::new(&mut rng, 2, 8, spec, Activation::Tanh));
            let x = batch(&mut rng, 2, 16);
            // Max pooling is piecewise-linear; a slightly looser tolerance
            // absorbs ties near window boundaries.
            grad_check(&mut l, &x, 3e-2);
        }
    }

    #[test]
    fn conv1d_segment_layout_evaluates_one_filter_per_segment() {
        // kernel = stride = segment length: output t-th position only sees
        // the t-th query segment — the f() layout of §3.2.
        let mut rng = StdRng::seed_from_u64(7);
        let spec = ConvSpec {
            out_channels: 1,
            kernel: 4,
            stride: 4,
            padding: 0,
            pool_size: 1,
            pool: PoolOp::Avg,
        };
        let mut l = Conv1d::new(&mut rng, 1, 8, spec, Activation::Identity);
        assert_eq!(l.conv_len(), 2);
        let x1 = Matrix::from_row(&[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
        let x2 = Matrix::from_row(&[1.0, 2.0, 3.0, 4.0, 9.0, 9.0, 9.0, 9.0]);
        let y1 = l.forward(&x1);
        let y2 = l.forward(&x2);
        // Changing segment 2 must not change the output for segment 1.
        assert!((y1.get(0, 0) - y2.get(0, 0)).abs() < 1e-6);
        assert!((y1.get(0, 1) - y2.get(0, 1)).abs() > 1e-6);
    }

    #[test]
    fn shift_sigmoid_gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut l = Layer::ShiftSigmoid(ShiftSigmoid::new(4));
        let x = batch(&mut rng, 3, 4);
        grad_check(&mut l, &x, 2e-2);
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = batch(&mut rng, 3, 6);
        let mut l = Dropout::new(6, 0.5, 1);
        let y = l.forward(&x);
        assert_eq!(y, x, "inference-mode dropout must pass through");
        // Backward is likewise the identity.
        let g = l.backward(&x);
        assert_eq!(g, x);
    }

    #[test]
    fn dropout_training_zeroes_and_rescales() {
        let mut l = Dropout::new(64, 0.5, 2);
        l.set_training(true);
        let x = Matrix::from_vec(4, 64, vec![1.0; 256]);
        let y = l.forward(&x);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let twos = y
            .as_slice()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(zeros + twos, 256, "survivors must be scaled by 1/(1-p)");
        assert!(
            zeros > 64 && zeros < 192,
            "~half the units should drop, got {zeros}"
        );
        // Expectation is preserved: mean stays ≈ 1.
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 256.0;
        assert!((mean - 1.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn dropout_backward_uses_the_same_mask() {
        let mut l = Dropout::new(32, 0.3, 3);
        l.set_training(true);
        let x = Matrix::from_vec(2, 32, vec![1.0; 64]);
        let y = l.forward(&x);
        let g = l.backward(&Matrix::from_vec(2, 32, vec![1.0; 64]));
        // Gradient is zero exactly where the activation was dropped.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn infer_matches_forward_for_every_layer_kind() {
        let mut rng = StdRng::seed_from_u64(11);
        let spec = ConvSpec {
            out_channels: 2,
            kernel: 3,
            stride: 2,
            padding: 1,
            pool_size: 2,
            pool: PoolOp::Max,
        };
        let mut layers = vec![
            Layer::Dense(Dense::new(&mut rng, 6, 4, Activation::Tanh)),
            Layer::Conv1d(Conv1d::new(&mut rng, 2, 3, spec, Activation::Relu)),
            Layer::ShiftSigmoid(ShiftSigmoid::new(6)),
            Layer::Dropout(Dropout::new(6, 0.5, 1)),
        ];
        let mut scratch = Scratch::new();
        for layer in &mut layers {
            let x = batch(&mut rng, 5, layer.in_dim());
            let y_train = layer.forward(&x);
            let y_infer = layer.infer(&x, &mut scratch);
            assert_eq!(
                y_train.as_slice(),
                y_infer.as_slice(),
                "infer must be bitwise identical to forward"
            );
            scratch.recycle(y_infer);
        }
    }

    #[test]
    fn pool_len_covers_remainder_window() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = ConvSpec {
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
            pool_size: 4,
            pool: PoolOp::Sum,
        };
        // conv_len = 6, pool_size 4 → windows [0,4) and [4,6).
        let l = Conv1d::new(&mut rng, 1, 7, spec, Activation::Identity);
        assert_eq!(l.conv_len(), 6);
        assert_eq!(l.pool_len(), 2);
        assert_eq!(l.out_dim(), 2);
    }
}
