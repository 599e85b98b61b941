//! One forward pass for many nets of one architecture, each net a lane.
//!
//! The GL family's local models all come from one `build_regressor` call:
//! they share every layer shape and differ only in their weights. A
//! [`LaneNet`] packs them so that lane `s` of the pack is net `s`. Every
//! weight is stored `[out][in][lane]` over [`LANES`] lanes, so one query's
//! forward pass runs up to [`LANES`] nets at once: each multiply-add of a
//! single net becomes one fixed-width vector operation over the lanes,
//! which the compiler vectorizes with no intrinsics. Nets beyond the first
//! [`LANES`] fill further groups; the last group's unused lanes are
//! zero-padded, so any number of nets packs.
//!
//! Each branch's input is broadcast to every lane once, so every layer
//! reads activations stored `[unit][lane]`. Each dense output sums its
//! inputs from zero in ascending order and then adds its bias (the order
//! of the blocked GEMM); a conv output starts from its bias and sums in
//! `(in channel, tap)` order (the order of `Conv1d`'s stride-1 path), one
//! accumulator chain per output. Outputs therefore match
//! [`BranchNet::infer`] up to rounding, and one query's outputs do not
//! depend on any other query.
//!
//! A group costs the same however many of its lanes the caller needs, so
//! a caller that needs only a few of them may do better with those nets'
//! own forward passes; [`LaneNet::infer_group`] runs one group at a time
//! to leave that choice to it.
//!
//! The pass is reachable from serving, so it never panics: [`LaneNet::pack`]
//! checks every shape up front and returns a typed [`LaneError`], and
//! [`LaneNet::infer_group`] writes NaN rather than read inputs of the
//! wrong width.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::activation::Activation;
use crate::layers::{Layer, PoolOp};
use crate::net::BranchNet;
use std::fmt;

/// Nets per lane group: one 512-bit vector of `f32`s, or two 256-bit ones.
pub const LANES: usize = 16;

/// One value per lane.
type Lanes = [f32; LANES];

/// Why a set of nets does not pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneError {
    /// There is no net to pack.
    Empty,
    /// Net `net` has a layer with no lane kernel: the shift-sigmoid, which
    /// only the global model's head uses.
    Unsupported { net: usize },
    /// Net `net` is inconsistent in itself: a layer has a zero extent,
    /// consecutive widths do not chain, or its output is not one value.
    Malformed { net: usize },
    /// Net `net` differs from net 0 in shape: layer kinds, widths, conv
    /// geometry or activations.
    Mismatch { net: usize },
}

impl fmt::Display for LaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneError::Empty => write!(f, "no nets to pack"),
            LaneError::Unsupported { net } => {
                write!(f, "net {net} has a layer the lane pass cannot run")
            }
            LaneError::Malformed { net } => write!(
                f,
                "net {net} is malformed: a zero extent, widths that do not chain, or more than one output"
            ),
            LaneError::Mismatch { net } => write!(f, "net {net} differs from net 0 in shape"),
        }
    }
}

impl std::error::Error for LaneError {}

/// `n` as an `f32`, for an average pool's divisor (windows are a few
/// positions wide, so the conversion is exact).
#[allow(clippy::as_conversions)]
fn count_f32(n: usize) -> f32 {
    n as f32
}

/// A dense layer over all lanes: weights `[out][in]`, biases `[out]`,
/// each a [`Lanes`] unit.
#[derive(Debug, Clone)]
struct LaneDense {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    w: Vec<Lanes>,
    b: Vec<Lanes>,
}

impl LaneDense {
    /// `out[o] = act(Σ_i w[o][i]·x[i] + b[o])` per lane. Each output sums
    /// from zero in ascending input order, then adds its bias.
    fn apply(&self, x: &[Lanes], out: &mut [Lanes]) {
        let out = &mut out[..self.out_dim];
        let rows = self.w.chunks_exact(self.in_dim);
        for ((w, b), y) in rows.zip(&self.b).zip(out.iter_mut()) {
            let mut acc = [0.0f32; LANES];
            for (w, x) in w.iter().zip(x) {
                for ((a, w), x) in acc.iter_mut().zip(w).zip(x) {
                    *a += w * x;
                }
            }
            for ((y, a), b) in y.iter_mut().zip(acc).zip(b) {
                *y = a + b;
            }
        }
        self.activation.apply(out.as_flattened_mut());
    }
}

/// A conv layer with its pooling over all lanes: weights
/// `[out_c][in_c][k]`, biases `[out_c]`, each a [`Lanes`] unit.
#[derive(Debug, Clone)]
struct LaneConv {
    in_channels: usize,
    in_len: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    pool: PoolOp,
    pool_size: usize,
    conv_len: usize,
    pool_len: usize,
    activation: Activation,
    w: Vec<Lanes>,
    b: Vec<Lanes>,
}

impl LaneConv {
    /// Convolution and activation into `conv` (`[out_c × conv_len]`), then
    /// pooling into `out` (`[out_c × pool_len]`), on `x` (`[in_c ×
    /// in_len]`). Each output starts from its bias and sums in `(in
    /// channel, tap)` order over the taps whose input position
    /// `t·stride + k − padding` lies inside the row.
    fn apply(&self, x: &[Lanes], conv: &mut [Lanes], out: &mut [Lanes]) {
        let conv = &mut conv[..self.out_channels * self.conv_len];
        let filters = self.w.chunks_exact(self.in_channels * self.kernel);
        for ((w, b), c) in filters
            .zip(&self.b)
            .zip(conv.chunks_exact_mut(self.conv_len))
        {
            for (t, c) in c.iter_mut().enumerate() {
                let start = t * self.stride;
                let k_lo = self.padding.saturating_sub(start).min(self.kernel);
                let k_hi = (self.in_len + self.padding)
                    .saturating_sub(start)
                    .min(self.kernel);
                let mut acc = *b;
                if k_lo < k_hi {
                    let x0 = start + k_lo - self.padding;
                    for (ic, w) in w.chunks_exact(self.kernel).enumerate() {
                        let x = &x[ic * self.in_len + x0..];
                        for (w, x) in w[k_lo..k_hi].iter().zip(x) {
                            for ((a, w), x) in acc.iter_mut().zip(w).zip(x) {
                                *a += w * x;
                            }
                        }
                    }
                }
                *c = acc;
            }
        }
        self.activation.apply(conv.as_flattened_mut());
        let out = &mut out[..self.out_channels * self.pool_len];
        for (c, o) in conv
            .chunks_exact(self.conv_len)
            .zip(out.chunks_exact_mut(self.pool_len))
        {
            for (p, o) in o.iter_mut().enumerate() {
                let lo = p * self.pool_size;
                let hi = ((p + 1) * self.pool_size).min(self.conv_len);
                let window = &c[lo..hi];
                match self.pool {
                    PoolOp::Max => {
                        *o = [f32::NEG_INFINITY; LANES];
                        for v in window {
                            for (m, &v) in o.iter_mut().zip(v) {
                                if v > *m {
                                    *m = v;
                                }
                            }
                        }
                    }
                    PoolOp::Avg | PoolOp::Sum => {
                        // `Iterator::sum`'s order and start value.
                        *o = [-0.0; LANES];
                        for v in window {
                            for (s, v) in o.iter_mut().zip(v) {
                                *s += v;
                            }
                        }
                        if self.pool == PoolOp::Avg {
                            let n = count_f32(hi - lo);
                            for s in o.iter_mut() {
                                *s /= n;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One layer of the pack.
#[derive(Debug, Clone)]
enum LaneLayer {
    Dense(LaneDense),
    Conv(LaneConv),
}

impl LaneLayer {
    /// The all-zero lane layer shaped like net `net`'s `layer`.
    fn shaped_like(layer: &Layer, net: usize) -> Result<Self, LaneError> {
        let malformed = LaneError::Malformed { net };
        match layer {
            Layer::Dense(d) => {
                if d.in_dim == 0 {
                    return Err(malformed);
                }
                Ok(LaneLayer::Dense(LaneDense {
                    in_dim: d.in_dim,
                    out_dim: d.out_dim,
                    activation: d.activation,
                    w: vec![[0.0; LANES]; d.out_dim * d.in_dim],
                    b: vec![[0.0; LANES]; d.out_dim],
                }))
            }
            Layer::Conv1d(c) => {
                if c.in_channels == 0 || c.kernel == 0 || c.pool_size == 0 || c.conv_len() == 0 {
                    return Err(malformed);
                }
                Ok(LaneLayer::Conv(LaneConv {
                    in_channels: c.in_channels,
                    in_len: c.in_len,
                    out_channels: c.out_channels,
                    kernel: c.kernel,
                    stride: c.stride,
                    padding: c.padding,
                    pool: c.pool,
                    pool_size: c.pool_size,
                    conv_len: c.conv_len(),
                    pool_len: c.pool_len(),
                    activation: c.activation,
                    w: vec![[0.0; LANES]; c.out_channels * c.in_channels * c.kernel],
                    b: vec![[0.0; LANES]; c.out_channels],
                }))
            }
            Layer::ShiftSigmoid(_) => Err(LaneError::Unsupported { net }),
        }
    }

    fn in_dim(&self) -> usize {
        match self {
            LaneLayer::Dense(d) => d.in_dim,
            LaneLayer::Conv(c) => c.in_channels * c.in_len,
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            LaneLayer::Dense(d) => d.out_dim,
            LaneLayer::Conv(c) => c.out_channels * c.pool_len,
        }
    }

    /// Width of the conv buffer before pooling (0 for a dense layer).
    fn conv_dim(&self) -> usize {
        match self {
            LaneLayer::Dense(_) => 0,
            LaneLayer::Conv(c) => c.out_channels * c.conv_len,
        }
    }

    /// Copies `layer`'s weights into lane `lane`. `false`, with nothing
    /// written, if `layer` is not shaped like this one. A layer's
    /// constructor and its decoder both check that its parameters fill
    /// its shape.
    fn set_lane(&mut self, lane: usize, layer: &Layer) -> bool {
        let (w, b, src_w, src_b) = match (self, layer) {
            (LaneLayer::Dense(d), Layer::Dense(l)) => {
                if (l.in_dim, l.out_dim, l.activation) != (d.in_dim, d.out_dim, d.activation) {
                    return false;
                }
                (&mut d.w, &mut d.b, l.w.as_slice(), &l.b[..])
            }
            (LaneLayer::Conv(c), Layer::Conv1d(l)) => {
                let channels = (l.in_channels, l.in_len, l.out_channels, l.kernel);
                let window = (l.stride, l.padding, l.pool, l.pool_size, l.activation);
                if channels != (c.in_channels, c.in_len, c.out_channels, c.kernel)
                    || window != (c.stride, c.padding, c.pool, c.pool_size, c.activation)
                {
                    return false;
                }
                (&mut c.w, &mut c.b, &l.w[..], &l.b[..])
            }
            _ => return false,
        };
        for (dst, &v) in w.iter_mut().zip(src_w) {
            dst[lane] = v;
        }
        for (dst, &v) in b.iter_mut().zip(src_b) {
            dst[lane] = v;
        }
        true
    }

    /// Runs the layer on `x`; returns its output width.
    fn apply(&self, x: &[Lanes], out: &mut [Lanes], conv: &mut [Lanes]) -> usize {
        match self {
            LaneLayer::Dense(d) => d.apply(x, out),
            LaneLayer::Conv(c) => c.apply(x, conv, out),
        }
        self.out_dim()
    }
}

/// Output width of `layers` on an input `in_width` wide, if their widths
/// chain.
fn stack_width(layers: &[LaneLayer], in_width: usize) -> Option<usize> {
    layers
        .iter()
        .try_fold(in_width, |w, l| (l.in_dim() == w).then(|| l.out_dim()))
}

/// Up to [`LANES`] nets as the lanes of one net.
#[derive(Debug, Clone)]
struct LaneGroup {
    branches: Vec<Vec<LaneLayer>>,
    head: Vec<LaneLayer>,
}

impl LaneGroup {
    /// One query through every lane: each branch on its input, broadcast
    /// to every lane, the branch outputs concatenated, the head on the
    /// concatenation.
    fn run(&self, inputs: &[&[f32]], s: &mut LaneScratch) -> Lanes {
        let mut off = 0;
        for (branch, x) in self.branches.iter().zip(inputs) {
            for (v, &x) in s.input.iter_mut().zip(*x) {
                *v = [x; LANES];
            }
            let width = run_stack(branch, &s.input[..x.len()], &mut s.stack);
            s.concat[off..off + width].copy_from_slice(&s.stack.cur[..width]);
            off += width;
        }
        run_stack(&self.head, &s.concat[..off], &mut s.stack);
        s.stack.cur[0]
    }

    /// Copies `net`'s weights into lane `lane`; `false` if `net` is not
    /// shaped like the group.
    fn set_lane(&mut self, lane: usize, net: &BranchNet, in_dims: &[usize]) -> bool {
        let fill = |layers: &mut [LaneLayer], src: &[Layer]| {
            layers.len() == src.len()
                && layers.iter_mut().zip(src).all(|(l, s)| l.set_lane(lane, s))
        };
        net.in_dims() == in_dims
            && net.branches().len() == self.branches.len()
            && self
                .branches
                .iter_mut()
                .zip(net.branches())
                .all(|(b, src)| fill(b, src.layers()))
            && fill(&mut self.head, net.head().layers())
    }
}

/// Runs `layers` on `x`, leaving the output in `s.cur`; returns its width.
/// An empty stack passes its input through.
fn run_stack(layers: &[LaneLayer], x: &[Lanes], s: &mut Stack) -> usize {
    let Some((first, rest)) = layers.split_first() else {
        s.cur[..x.len()].copy_from_slice(x);
        return x.len();
    };
    let mut width = first.apply(x, &mut s.cur, &mut s.conv);
    for layer in rest {
        width = layer.apply(&s.cur[..width], &mut s.next, &mut s.conv);
        std::mem::swap(&mut s.cur, &mut s.next);
    }
    width
}

/// Activation buffers of one stack: the current and next layer outputs,
/// and a conv layer's output before pooling.
#[derive(Debug, Default)]
struct Stack {
    cur: Vec<Lanes>,
    next: Vec<Lanes>,
    conv: Vec<Lanes>,
}

/// Reusable buffers for [`LaneNet::infer_group`]; any pack sizes them on
/// use.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// A branch's input, broadcast to every lane.
    input: Vec<Lanes>,
    stack: Stack,
    concat: Vec<Lanes>,
}

impl LaneScratch {
    fn fit(&mut self, net: &LaneNet) {
        let grow = |buf: &mut Vec<Lanes>, units: usize| {
            if buf.len() < units {
                buf.resize(units, [0.0; LANES]);
            }
        };
        grow(&mut self.input, net.width);
        grow(&mut self.stack.cur, net.width);
        grow(&mut self.stack.next, net.width);
        grow(&mut self.stack.conv, net.conv_width);
        grow(&mut self.concat, net.concat_width);
    }
}

/// Nets of one architecture packed as lanes (module docs). Built once from
/// the nets, it is plain data: [`LaneNet::infer_group`] takes `&self`.
#[derive(Debug, Clone, Default)]
pub struct LaneNet {
    /// Width of each branch's input.
    in_dims: Vec<usize>,
    /// Net `s` is lane `s % LANES` of group `s / LANES`.
    groups: Vec<LaneGroup>,
    /// Widest activation, in units.
    width: usize,
    /// Widest conv output before pooling, in units.
    conv_width: usize,
    /// Width of the head's input, in units.
    concat_width: usize,
}

impl LaneNet {
    /// Packs `nets`, which must share net 0's architecture: the same
    /// branches, layers, widths, conv geometry and activations. Each must
    /// end in one output. Weight constraints do not matter to inference
    /// and are ignored.
    pub fn pack(nets: &[BranchNet]) -> Result<Self, LaneError> {
        let first = nets.first().ok_or(LaneError::Empty)?;
        let shaped = |layers: &[Layer]| -> Result<Vec<LaneLayer>, LaneError> {
            layers
                .iter()
                .map(|l| LaneLayer::shaped_like(l, 0))
                .collect()
        };
        let branches = first
            .branches()
            .iter()
            .map(|b| shaped(b.layers()))
            .collect::<Result<Vec<_>, _>>()?;
        let head = shaped(first.head().layers())?;
        let in_dims = first.in_dims().to_vec();

        let malformed = LaneError::Malformed { net: 0 };
        if branches.len() != in_dims.len() {
            return Err(malformed);
        }
        let mut concat_width = 0;
        for (branch, &d) in branches.iter().zip(&in_dims) {
            concat_width += stack_width(branch, d).ok_or(malformed)?;
        }
        if stack_width(&head, concat_width) != Some(1) {
            return Err(malformed);
        }
        let layers = || branches.iter().flatten().chain(&head);
        let width = layers()
            .map(LaneLayer::out_dim)
            .chain(in_dims.iter().copied())
            .chain([concat_width])
            .max()
            .unwrap_or(0);
        let conv_width = layers().map(LaneLayer::conv_dim).max().unwrap_or(0);

        let template = LaneGroup { branches, head };
        let mut groups = Vec::with_capacity(nets.len().div_ceil(LANES));
        for (g, chunk) in nets.chunks(LANES).enumerate() {
            let mut group = template.clone();
            for (lane, net) in chunk.iter().enumerate() {
                let s = g * LANES + lane;
                if !group.set_lane(lane, net, &in_dims) {
                    return Err(LaneError::Mismatch { net: s });
                }
            }
            groups.push(group);
        }
        Ok(LaneNet {
            in_dims,
            groups,
            width,
            conv_width,
            concat_width,
        })
    }

    /// Width of each branch's input.
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// Runs one query through group `g`'s nets: `inputs[i]` feeds branch
    /// `i` of every net, and the output of net `g·LANES + l` lands in
    /// `out[l]`, for as many lanes as `out` holds. If `g` is not a group
    /// or an input has the wrong width, `out` is NaN.
    pub fn infer_group(
        &self,
        g: usize,
        inputs: &[&[f32]],
        out: &mut [f32],
        scratch: &mut LaneScratch,
    ) {
        let fits = inputs.len() == self.in_dims.len()
            && inputs.iter().zip(&self.in_dims).all(|(x, &d)| x.len() == d);
        match self.groups.get(g) {
            Some(group) if fits => {
                scratch.fit(self);
                for (o, y) in out.iter_mut().zip(group.run(inputs, scratch)) {
                    *o = y;
                }
            }
            _ => out.fill(f32::NAN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv1d, ConvSpec, Dense, ShiftSigmoid};
    use crate::net::Sequential;
    use crate::scratch::Scratch;
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ACTIVATIONS: [Activation; 4] = [
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];

    /// A three-branch net: a conv stack on a 24-wide query, a dense stack
    /// on a 3-wide threshold, an identity branch on a 2-wide feature, and
    /// a two-layer head.
    fn net(rng: &mut StdRng, convs: &[ConvSpec], act: Activation) -> BranchNet {
        let mut query = Vec::new();
        let (mut ch, mut len) = (1, 24);
        for spec in convs {
            let conv = Conv1d::new(rng, ch, len, *spec, act);
            (ch, len) = (spec.out_channels, conv.pool_len());
            query.push(Layer::Conv1d(conv));
        }
        query.push(Layer::Dense(Dense::new(rng, ch * len, 5, act)));
        let tau = vec![
            Layer::Dense(Dense::new_nonneg(rng, 3, 4, act)),
            Layer::Dense(Dense::new(rng, 4, 4, Activation::Relu)),
        ];
        let head = vec![
            Layer::Dense(Dense::new(rng, 11, 6, act)),
            Layer::Dense(Dense::new(rng, 6, 1, Activation::Identity)),
        ];
        BranchNet::new(
            vec![
                Sequential::new(query),
                Sequential::new(tau),
                Sequential::identity(),
            ],
            vec![24, 3, 2],
            Sequential::new(head),
        )
    }

    fn row(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Every net's output for one query, group by group.
    fn infer_all(pack: &LaneNet, inputs: &[&[f32]], n: usize, s: &mut LaneScratch) -> Vec<f32> {
        let mut out = vec![f32::NAN; n];
        for (g, out) in out.chunks_mut(LANES).enumerate() {
            pack.infer_group(g, inputs, out, s);
        }
        out
    }

    /// Packs `n` nets built by `build` and checks every lane against the
    /// net's own `infer` on random queries, within 1e-5 relative.
    fn assert_lanes_match(n: usize, build: impl Fn(&mut StdRng) -> BranchNet) {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let nets: Vec<BranchNet> = (0..n).map(|_| build(&mut rng)).collect();
        let pack = LaneNet::pack(&nets).unwrap();
        let mut scratch = Scratch::new();
        let mut lanes = LaneScratch::default();
        for _ in 0..4 {
            let (xq, xt, xa) = (row(&mut rng, 24), row(&mut rng, 3), row(&mut rng, 2));
            let out = infer_all(&pack, &[&xq, &xt, &xa], n, &mut lanes);
            for (s, net) in nets.iter().enumerate() {
                let m = |x: &[f32]| Matrix::from_row(x);
                let want = net
                    .infer(&[&m(&xq), &m(&xt), &m(&xa)], &mut scratch)
                    .get(0, 0);
                let got = out[s];
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "net {s} of {n}: lanes {got}, infer {want}"
                );
            }
        }
    }

    fn spec(kernel: usize, stride: usize, padding: usize, pool: PoolOp) -> ConvSpec {
        ConvSpec {
            out_channels: 3,
            kernel,
            stride,
            padding,
            pool_size: 2,
            pool,
        }
    }

    #[test]
    fn dense_lanes_match_infer_for_every_activation() {
        for act in ACTIVATIONS {
            assert_lanes_match(5, |rng| net(rng, &[], act));
        }
    }

    #[test]
    fn conv_lanes_match_infer_for_every_geometry_and_pool() {
        for pool in [PoolOp::Max, PoolOp::Avg, PoolOp::Sum] {
            for convs in [
                // Stride 1 with padding, then a segment-style layer.
                vec![spec(3, 1, 1, pool), spec(2, 2, 0, pool)],
                // Stride > 1 with padding wider than the stride.
                vec![spec(5, 2, 2, pool)],
                // The segmentation layout: kernel = stride, no padding.
                vec![spec(4, 4, 0, pool)],
            ] {
                for act in ACTIVATIONS {
                    assert_lanes_match(3, |rng| net(rng, &convs, act));
                }
            }
        }
    }

    #[test]
    fn any_net_count_packs_into_padded_groups() {
        for n in [1, 5, 16, 17, 33] {
            assert_lanes_match(n, |rng| {
                net(rng, &[spec(3, 1, 1, PoolOp::Max)], Activation::Relu)
            });
        }
    }

    #[test]
    fn wrong_input_widths_and_missing_groups_read_as_nan() {
        let mut rng = StdRng::seed_from_u64(4);
        let nets = vec![net(&mut rng, &[], Activation::Relu)];
        let pack = LaneNet::pack(&nets).unwrap();
        let mut s = LaneScratch::default();
        let short = [0.5; 23];
        let mut out = [0.0];
        pack.infer_group(0, &[&short, &[0.1; 3], &[0.2; 2]], &mut out, &mut s);
        assert!(out[0].is_nan());
        let mut out = [0.0];
        pack.infer_group(1, &[&[0.5; 24], &[0.1; 3], &[0.2; 2]], &mut out, &mut s);
        assert!(out[0].is_nan());
        pack.infer_group(0, &[&[0.5; 24], &[0.1; 3], &[0.2; 2]], &mut out, &mut s);
        assert!(out[0].is_finite());
    }

    #[test]
    fn nets_that_cannot_share_lanes_are_typed_errors() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(LaneNet::pack(&[]).unwrap_err(), LaneError::Empty);
        let a = net(&mut rng, &[], Activation::Relu);
        let wider = net(&mut rng, &[spec(3, 1, 1, PoolOp::Max)], Activation::Relu);
        let other_act = net(&mut rng, &[], Activation::Tanh);
        for odd in [wider, other_act] {
            let nets = vec![a.clone(), a.clone(), odd];
            assert_eq!(
                LaneNet::pack(&nets).unwrap_err(),
                LaneError::Mismatch { net: 2 }
            );
        }
        let sigmoid_head = BranchNet::new(
            vec![Sequential::identity()],
            vec![1],
            Sequential::new(vec![Layer::ShiftSigmoid(ShiftSigmoid::new(1))]),
        );
        assert_eq!(
            LaneNet::pack(&[sigmoid_head]).unwrap_err(),
            LaneError::Unsupported { net: 0 }
        );
        let two_outputs = BranchNet::new(
            vec![Sequential::identity()],
            vec![2],
            Sequential::new(vec![Layer::Dense(Dense::new(
                &mut rng,
                2,
                2,
                Activation::Relu,
            ))]),
        );
        assert_eq!(
            LaneNet::pack(&[two_outputs]).unwrap_err(),
            LaneError::Malformed { net: 0 }
        );
    }
}
