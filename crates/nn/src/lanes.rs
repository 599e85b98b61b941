//! One forward kernel for nets of one architecture, run as the lanes of
//! one vectorized pass.
//!
//! The GL family's local models all come from one `build_regressor` call:
//! they share every layer shape and differ only in their weights. A
//! [`LaneNet`] keeps their shared shapes and each net's weights twice: each
//! net's own, and packed so that lane `l` of a group of [`LANES`] nets
//! holds net `l`'s weight (the last group's unused lanes are zero, so any
//! number of nets packs). One kernel runs every pass. It is generic over
//! its lane width (1, 2, 4, 8 or [`LANES`]) and over where lane `l` reads
//! its weights:
//!
//! - the **16-local pass** ([`LaneNet::infer_group`]) runs one query
//!   through a group of nets: the query's input is broadcast to every lane,
//!   and lane `l` reads net `l`'s weights from the pack;
//! - **query lanes** ([`LaneNet::infer_rows`]) run one net over up to
//!   [`LANES`] queries a pass: lane `l` reads query `l`'s input, and the
//!   net's own weights are broadcast to every lane. A lone query is a
//!   1-wide pass.
//!
//! Every multiply-add of a single net becomes one vector operation over
//! the lanes, or over a block of outputs where the pass is narrow; the
//! compiler vectorizes both with no intrinsics. Every lane sums in one
//! order on every pass: a dense output sums its inputs from zero in
//! ascending order and then adds its bias; a conv output starts from its
//! bias and sums in `(in channel, tap)` order. A block of outputs keeps one
//! accumulator chain per output, which moves no output's order, and Rust
//! never fuses a multiply with an add. So a (query, net) pair gives the
//! same bits on every pass, at every width and in every lane, whatever else
//! the pass runs. The outputs match [`BranchNet::infer`] up to rounding.
//!
//! The pass is reachable from serving, so it never panics: [`LaneNet::pack`]
//! checks every shape up front and returns a typed [`LaneError`], and each
//! entry point writes NaN rather than read inputs of the wrong width.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::activation::Activation;
use crate::layers::{Layer, PoolOp};
use crate::net::BranchNet;
use crate::tensor::Matrix;
use std::fmt;

/// Nets per lane group, and queries per query-lane pass: one 512-bit
/// vector of `f32`s, or two 256-bit ones.
pub const LANES: usize = 16;

/// Outputs a block computes at once, each its own accumulator chain. Every
/// layer stores its weights for its outputs padded with zeros to a
/// multiple of it.
const BLOCK: usize = 4;

/// Outputs of the wider blocks that a pass narrower than [`LANES`] runs
/// first: [`WIDE`] at width 1 and `WIDE / 2` at widths 2 to 8, so that a
/// narrow pass also vectorizes over outputs (`cargo bench --bench
/// kernels`, `gl_locals`).
const WIDE: usize = 16;

/// One value per lane; a pass of width `W` uses the first `W`.
type Lanes = [f32; LANES];

/// Why a set of nets does not pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneError {
    /// There is no net to pack.
    Empty,
    /// Net `net` has a layer with no lane kernel: the shift-sigmoid, which
    /// only the global model's head uses.
    Unsupported { net: usize },
    /// Net `net` is inconsistent in itself: a layer has a zero extent or
    /// parameters that do not fill it, consecutive widths do not chain, or
    /// its output is not one value.
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

/// `n` outputs padded to whole blocks.
fn padded(n: usize) -> usize {
    n.next_multiple_of(BLOCK)
}

/// Where a pass reads one weight: a pack unit, whose lane `l` holds net
/// `l`'s weight, or one net's own weight, which every lane shares.
trait Weight {
    /// The weight in each of the first `W ≤ LANES` lanes.
    fn lanes<const W: usize>(&self) -> [f32; W];
}

impl Weight for Lanes {
    #[inline(always)]
    fn lanes<const W: usize>(&self) -> [f32; W] {
        std::array::from_fn(|l| self[l])
    }
}

impl Weight for f32 {
    #[inline(always)]
    fn lanes<const W: usize>(&self) -> [f32; W] {
        [*self; W]
    }
}

/// One layer's weights and biases over its padded outputs (zero beyond
/// the real ones): dense `[in][out]`, conv `[in_c][k][out_c]`, so that a
/// block's weights for one input are adjacent.
#[derive(Debug, Clone)]
struct Params<T> {
    w: Vec<T>,
    b: Vec<T>,
}

impl Params<f32> {
    /// From a layer's `[out][taps]` weights and `[out]` biases, `taps ≥ 1`
    /// wide.
    fn from_layer(w: &[f32], b: &[f32], taps: usize) -> Self {
        let stride = padded(b.len());
        let mut wt = vec![0.0; taps * stride];
        for (o, row) in w.chunks_exact(taps).enumerate() {
            for (t, &v) in row.iter().enumerate() {
                wt[t * stride + o] = v;
            }
        }
        let mut bt = b.to_vec();
        bt.resize(stride, 0.0);
        Params { w: wt, b: bt }
    }
}

/// `acc[l] += w[l]·x[l]` for the first `W` lanes.
#[inline(always)]
fn mul_add<const W: usize>(acc: &mut [f32; W], w: [f32; W], x: &Lanes) {
    for ((a, w), x) in acc.iter_mut().zip(w).zip(x) {
        *a += w * x;
    }
}

/// A dense layer's shape: `out = act(W·x + b)`.
#[derive(Debug, Clone, PartialEq)]
struct DenseShape {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

impl DenseShape {
    /// `out[o] = act(Σ_i w[o][i]·x[i] + b[o])` per lane, a block of outputs
    /// at a time. Each output sums from zero in ascending input order, then
    /// adds its bias.
    fn apply<const W: usize, T: Weight>(&self, p: &Params<T>, x: &[Lanes], out: &mut [Lanes]) {
        let x = &x[..self.in_dim];
        let out = &mut out[..self.out_dim];
        let o = match W {
            1 => self.blocks::<W, WIDE, T>(p, 0, x, out),
            LANES => 0,
            _ => self.blocks::<W, { WIDE / 2 }, T>(p, 0, x, out),
        };
        self.blocks::<W, BLOCK, T>(p, o, x, out);
    }

    /// Outputs from `o` on, `B` at a time while a block fits the padded
    /// outputs; returns the first output left.
    #[inline(always)]
    fn blocks<const W: usize, const B: usize, T: Weight>(
        &self,
        p: &Params<T>,
        mut o: usize,
        x: &[Lanes],
        out: &mut [Lanes],
    ) -> usize {
        let stride = padded(self.out_dim);
        while o + B <= stride {
            let mut acc = [[0.0f32; W]; B];
            for (x, w) in x.iter().zip(p.w.chunks_exact(stride)) {
                for (a, w) in acc.iter_mut().zip(&w[o..o + B]) {
                    mul_add(a, w.lanes(), x);
                }
            }
            for ((a, b), y) in acc.iter_mut().zip(&p.b[o..o + B]).zip(&mut out[o..]) {
                for (a, b) in a.iter_mut().zip(b.lanes::<W>()) {
                    *a += b;
                }
                self.activation.apply(a);
                y[..W].copy_from_slice(a);
            }
            o += B;
        }
        o
    }
}

/// A conv layer with its pooling.
#[derive(Debug, Clone, PartialEq)]
struct ConvShape {
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
}

impl ConvShape {
    /// Convolution and activation into `conv` (`[out_c × conv_len]`), then
    /// pooling into `out` (`[out_c × pool_len]`), on `x` (`[in_c ×
    /// in_len]`). Each output starts from its bias and sums in `(in
    /// channel, tap)` order over the taps whose input position
    /// `t·stride + k − padding` lies inside the row; a block of channels
    /// shares a position's taps.
    fn apply<const W: usize, T: Weight>(
        &self,
        p: &Params<T>,
        x: &[Lanes],
        conv: &mut [Lanes],
        out: &mut [Lanes],
    ) {
        let conv = &mut conv[..self.out_channels * self.conv_len];
        for t in 0..self.conv_len {
            let oc = match W {
                1 => self.filters::<W, WIDE, T>(p, 0, t, x, conv),
                LANES => 0,
                _ => self.filters::<W, { WIDE / 2 }, T>(p, 0, t, x, conv),
            };
            self.filters::<W, BLOCK, T>(p, oc, t, x, conv);
        }
        let out = &mut out[..self.out_channels * self.pool_len];
        for (c, o) in conv
            .chunks_exact(self.conv_len)
            .zip(out.chunks_exact_mut(self.pool_len))
        {
            for (p, o) in o.iter_mut().enumerate() {
                let lo = p * self.pool_size;
                let hi = ((p + 1) * self.pool_size).min(self.conv_len);
                let window = &c[lo..hi];
                let o = &mut o[..W];
                match self.pool {
                    PoolOp::Max => {
                        o.fill(f32::NEG_INFINITY);
                        for v in window {
                            for (m, &v) in o.iter_mut().zip(v) {
                                *m = if v > *m { v } else { *m };
                            }
                        }
                    }
                    PoolOp::Avg | PoolOp::Sum => {
                        // `Iterator::sum`'s order and start value.
                        o.fill(-0.0);
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

    /// Channels from `oc` on at position `t`, `B` at a time while a block
    /// fits the padded channels, activated, into `conv`; returns the first
    /// channel left.
    #[inline(always)]
    fn filters<const W: usize, const B: usize, T: Weight>(
        &self,
        p: &Params<T>,
        mut oc: usize,
        t: usize,
        x: &[Lanes],
        conv: &mut [Lanes],
    ) -> usize {
        let stride = padded(self.out_channels);
        let start = t * self.stride;
        let k_lo = self.padding.saturating_sub(start).min(self.kernel);
        let k_hi = (self.in_len + self.padding)
            .saturating_sub(start)
            .min(self.kernel);
        while oc + B <= stride {
            let mut acc: [[f32; W]; B] = std::array::from_fn(|j| p.b[oc + j].lanes());
            if k_lo < k_hi {
                let x0 = start + k_lo - self.padding;
                for ic in 0..self.in_channels {
                    let xs = &x[ic * self.in_len + x0..][..k_hi - k_lo];
                    let taps = p.w[(ic * self.kernel + k_lo) * stride..].chunks_exact(stride);
                    for (x, w) in xs.iter().zip(taps) {
                        for (a, w) in acc.iter_mut().zip(&w[oc..oc + B]) {
                            mul_add(a, w.lanes(), x);
                        }
                    }
                }
            }
            let real = acc.iter_mut().take(self.out_channels - oc);
            for (j, a) in real.enumerate() {
                self.activation.apply(a);
                conv[(oc + j) * self.conv_len + t][..W].copy_from_slice(a);
            }
            oc += B;
        }
        oc
    }
}

/// One layer's shape, which every net of a pack shares.
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Dense(DenseShape),
    Conv(ConvShape),
}

impl Shape {
    /// Net `net`'s `layer`: its shape and its own parameters.
    fn of(layer: &Layer, net: usize) -> Result<(Shape, Params<f32>), LaneError> {
        let malformed = LaneError::Malformed { net };
        let (shape, w, b) = match layer {
            Layer::Dense(d) => {
                if d.in_dim == 0 || d.out_dim == 0 {
                    return Err(malformed);
                }
                let shape = DenseShape {
                    in_dim: d.in_dim,
                    out_dim: d.out_dim,
                    activation: d.activation,
                };
                (Shape::Dense(shape), d.w.as_slice(), &d.b[..])
            }
            Layer::Conv1d(c) => {
                if c.in_channels == 0
                    || c.out_channels == 0
                    || c.kernel == 0
                    || c.pool_size == 0
                    || c.conv_len() == 0
                {
                    return Err(malformed);
                }
                let shape = ConvShape {
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
                };
                (Shape::Conv(shape), &c.w[..], &c.b[..])
            }
            Layer::ShiftSigmoid(_) => return Err(LaneError::Unsupported { net }),
        };
        let (taps, n_b) = match &shape {
            Shape::Dense(d) => (d.in_dim, d.out_dim),
            Shape::Conv(c) => (c.in_channels * c.kernel, c.out_channels),
        };
        if (w.len(), b.len()) != (n_b * taps, n_b) {
            return Err(malformed);
        }
        Ok((shape, Params::from_layer(w, b, taps)))
    }

    fn in_dim(&self) -> usize {
        match self {
            Shape::Dense(d) => d.in_dim,
            Shape::Conv(c) => c.in_channels * c.in_len,
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            Shape::Dense(d) => d.out_dim,
            Shape::Conv(c) => c.out_channels * c.pool_len,
        }
    }

    /// Width of the conv buffer before pooling (0 for a dense layer).
    fn conv_dim(&self) -> usize {
        match self {
            Shape::Dense(_) => 0,
            Shape::Conv(c) => c.out_channels * c.conv_len,
        }
    }

    /// Runs the layer on `x` over the first `W` lanes; returns its output
    /// width.
    fn apply<const W: usize, T: Weight>(
        &self,
        p: &Params<T>,
        x: &[Lanes],
        out: &mut [Lanes],
        conv: &mut [Lanes],
    ) -> usize {
        match self {
            Shape::Dense(d) => d.apply::<W, T>(p, x, out),
            Shape::Conv(c) => c.apply::<W, T>(p, x, conv, out),
        }
        self.out_dim()
    }
}

/// Output width of `layers` on an input `in_width` wide, if their widths
/// chain.
fn stack_width(layers: &[Shape], in_width: usize) -> Option<usize> {
    layers
        .iter()
        .try_fold(in_width, |w, l| (l.in_dim() == w).then(|| l.out_dim()))
}

/// A net's layers in pack order (each branch's stack, then the head), with
/// their shapes and its own parameters.
fn layers_of(net: &BranchNet, s: usize) -> Result<(Vec<Shape>, Vec<Params<f32>>), LaneError> {
    let branches = net.branches().iter().map(|b| b.layers());
    branches
        .chain([net.head().layers()])
        .flatten()
        .map(|l| Shape::of(l, s))
        .collect::<Result<Vec<_>, _>>()
        .map(|layers| layers.into_iter().unzip())
}

/// Runs `layers` on `x` over the first `W` lanes, leaving the output in
/// `s.cur`; returns its width. An empty stack passes its input through.
fn run_stack<'a, const W: usize, T: Weight + 'a>(
    mut layers: impl Iterator<Item = (&'a Shape, &'a Params<T>)>,
    x: &[Lanes],
    s: &mut Stack,
) -> usize {
    let Some((first, p)) = layers.next() else {
        s.cur[..x.len()].copy_from_slice(x);
        return x.len();
    };
    let mut width = first.apply::<W, T>(p, x, &mut s.cur, &mut s.conv);
    for (layer, p) in layers {
        width = layer.apply::<W, T>(p, &s.cur[..width], &mut s.next, &mut s.conv);
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

/// Reusable buffers for the passes of [`LaneNet`]; any pack sizes them on
/// use.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// A branch's input, one unit per input column.
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

/// Nets of one architecture, packed for the lane passes (module docs).
/// Built once from the nets, it is plain data: every pass takes `&self`.
#[derive(Debug, Clone, Default)]
pub struct LaneNet {
    /// Width of each branch's input.
    in_dims: Vec<usize>,
    /// Every layer's shape: each branch's stack in input order, then the
    /// head.
    shapes: Vec<Shape>,
    /// Layers in each branch's stack.
    branch_layers: Vec<usize>,
    /// Per group of [`LANES`] nets, every layer's packed parameters: net
    /// `s` is lane `s % LANES` of group `s / LANES`.
    groups: Vec<Vec<Params<Lanes>>>,
    /// Per net, every layer's own parameters.
    nets: Vec<Vec<Params<f32>>>,
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
        let (shapes, first_params) = layers_of(first, 0)?;
        let in_dims = first.in_dims().to_vec();
        let branch_layers: Vec<usize> = first.branches().iter().map(|b| b.layers().len()).collect();

        let malformed = LaneError::Malformed { net: 0 };
        if branch_layers.len() != in_dims.len() {
            return Err(malformed);
        }
        let mut concat_width = 0;
        let mut layer = 0;
        for (&n, &d) in branch_layers.iter().zip(&in_dims) {
            concat_width += stack_width(&shapes[layer..layer + n], d).ok_or(malformed)?;
            layer += n;
        }
        if stack_width(&shapes[layer..], concat_width) != Some(1) {
            return Err(malformed);
        }
        let width = shapes
            .iter()
            .map(Shape::out_dim)
            .chain(in_dims.iter().copied())
            .chain([concat_width])
            .max()
            .unwrap_or(0);
        let conv_width = shapes.iter().map(Shape::conv_dim).max().unwrap_or(0);

        let mut own = vec![first_params];
        for (s, net) in nets.iter().enumerate().skip(1) {
            let same_branches = net.in_dims() == in_dims
                && net.branches().len() == branch_layers.len()
                && net
                    .branches()
                    .iter()
                    .zip(&branch_layers)
                    .all(|(b, &n)| b.layers().len() == n);
            match layers_of(net, s) {
                Ok((sh, params)) if same_branches && sh == shapes => own.push(params),
                _ => return Err(LaneError::Mismatch { net: s }),
            }
        }
        let groups = own
            .chunks(LANES)
            .map(|chunk| {
                let pack = |layer: usize, part: fn(&Params<f32>) -> &[f32]| {
                    let mut units = vec![[0.0; LANES]; part(&chunk[0][layer]).len()];
                    for (lane, net) in chunk.iter().enumerate() {
                        for (u, &v) in units.iter_mut().zip(part(&net[layer])) {
                            u[lane] = v;
                        }
                    }
                    units
                };
                (0..shapes.len())
                    .map(|k| Params {
                        w: pack(k, |p| &p.w),
                        b: pack(k, |p| &p.b),
                    })
                    .collect()
            })
            .collect();
        Ok(LaneNet {
            in_dims,
            shapes,
            branch_layers,
            groups,
            nets: own,
            width,
            conv_width,
            concat_width,
        })
    }

    /// Width of each branch's input.
    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// One pass of width `W` over `params`: `fill(i, units)` writes branch
    /// `i`'s input into `units`, one unit per column, and the head's output
    /// per lane is returned.
    fn run<const W: usize, T: Weight>(
        &self,
        params: &[Params<T>],
        fill: impl Fn(usize, &mut [Lanes]),
        s: &mut LaneScratch,
    ) -> [f32; W] {
        s.fit(self);
        let mut layers = self.shapes.iter().zip(params);
        let mut off = 0;
        for (i, (&d, &n)) in self.in_dims.iter().zip(&self.branch_layers).enumerate() {
            fill(i, &mut s.input[..d]);
            let width = run_stack::<W, T>(layers.by_ref().take(n), &s.input[..d], &mut s.stack);
            s.concat[off..off + width].copy_from_slice(&s.stack.cur[..width]);
            off += width;
        }
        run_stack::<W, T>(layers, &s.concat[..off], &mut s.stack);
        std::array::from_fn(|l| s.stack.cur[0][l])
    }

    /// Whether `widths` are the branches' input widths.
    fn fits(&self, widths: impl ExactSizeIterator<Item = usize>) -> bool {
        widths.len() == self.in_dims.len() && widths.zip(&self.in_dims).all(|(w, &d)| w == d)
    }

    /// The 16-local pass: one query through group `g`'s nets. `inputs[i]`
    /// feeds branch `i` of every net, and the output of net `g·LANES + l`
    /// lands in `out[l]`, for as many lanes as `out` holds. If `g` is not a
    /// group or an input has the wrong width, `out` is NaN.
    pub fn infer_group(
        &self,
        g: usize,
        inputs: &[&[f32]],
        out: &mut [f32],
        scratch: &mut LaneScratch,
    ) {
        match self.groups.get(g) {
            Some(params) if self.fits(inputs.iter().map(|x| x.len())) => {
                let fill = |i: usize, units: &mut [Lanes]| {
                    for (u, &x) in units.iter_mut().zip(inputs[i]) {
                        *u = [x; LANES];
                    }
                };
                let y = self.run::<LANES, Lanes>(params, fill, scratch);
                for (o, y) in out.iter_mut().zip(y) {
                    *o = y;
                }
            }
            _ => out.fill(f32::NAN),
        }
    }

    /// Query lanes: net `net` on rows `rows` of `inputs` (`inputs[i]`
    /// feeds branch `i`), [`LANES`] rows a pass with each row a lane; the
    /// output for `rows[j]` lands in `out[j]`. A last pass of fewer rows
    /// runs at the narrowest width of 1, 2, 4, 8 and [`LANES`] that holds
    /// them, so one row is a 1-wide pass. If `net` is not a net, an input
    /// has the wrong width, a row is out of range, or `out` and `rows`
    /// differ in length, `out` is NaN.
    pub fn infer_rows(
        &self,
        net: usize,
        inputs: &[&Matrix],
        rows: &[usize],
        out: &mut [f32],
        scratch: &mut LaneScratch,
    ) {
        let fits = self.fits(inputs.iter().map(|m| m.cols()))
            && out.len() == rows.len()
            && inputs.iter().all(|m| rows.iter().all(|&r| r < m.rows()));
        let Some(params) = self.nets.get(net).filter(|_| fits) else {
            out.fill(f32::NAN);
            return;
        };
        for (rows, out) in rows.chunks(LANES).zip(out.chunks_mut(LANES)) {
            match rows.len() {
                1 => self.query_pass::<1>(params, inputs, rows, out, scratch),
                2 => self.query_pass::<2>(params, inputs, rows, out, scratch),
                3 | 4 => self.query_pass::<4>(params, inputs, rows, out, scratch),
                5..=8 => self.query_pass::<8>(params, inputs, rows, out, scratch),
                _ => self.query_pass::<LANES>(params, inputs, rows, out, scratch),
            }
        }
    }

    /// One query-lane pass of width `W ≥ rows.len()` over one net's
    /// `params`; lanes past the rows read zeros.
    fn query_pass<const W: usize>(
        &self,
        params: &[Params<f32>],
        inputs: &[&Matrix],
        rows: &[usize],
        out: &mut [f32],
        scratch: &mut LaneScratch,
    ) {
        let fill = |i: usize, units: &mut [Lanes]| {
            for (l, &r) in rows.iter().enumerate() {
                for (u, &x) in units.iter_mut().zip(inputs[i].row(r)) {
                    u[l] = x;
                }
            }
            if rows.len() < W {
                for u in units.iter_mut() {
                    u[rows.len()..W].fill(0.0);
                }
            }
        };
        let y = self.run::<W, f32>(params, fill, scratch);
        out.copy_from_slice(&y[..out.len()]);
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

    /// Row counts of a query-lane call: every pass width (1, 2, 4, 8, 16),
    /// full and partly filled, and more rows than one pass holds.
    const ROW_COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 33];

    /// Packs `n` nets built by `build` and checks that query lanes give
    /// each (query, net) pair the bits of the 16-local pass, at every row
    /// count and in every lane position.
    fn assert_passes_agree(n: usize, build: impl Fn(&mut StdRng) -> BranchNet) {
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let nets: Vec<BranchNet> = (0..n).map(|_| build(&mut rng)).collect();
        let pack = LaneNet::pack(&nets).unwrap();
        let mut s = LaneScratch::default();
        let queries = 33;
        let x = [24, 3, 2].map(|w| {
            let rows: Vec<Vec<f32>> = (0..queries).map(|_| row(&mut rng, w)).collect();
            Matrix::from_rows(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
        });
        let inputs = [&x[0], &x[1], &x[2]];
        let want: Vec<Vec<u32>> = (0..queries)
            .map(|q| {
                let rows = inputs.map(|m| m.row(q));
                let out = infer_all(&pack, &rows, n, &mut s);
                out.iter().map(|y| y.to_bits()).collect()
            })
            .collect();
        // The first and last nets of each group, and one inside.
        let mut checked: Vec<usize> = [0, 1, n / 2, LANES - 1, LANES, n - 1].to_vec();
        checked.retain(|&net| net < n);
        checked.dedup();
        for net in checked {
            for k in ROW_COUNTS {
                // A different subset and order of queries for each call.
                let rows: Vec<usize> = (0..k).map(|j| (j * 7 + net + k) % queries).collect();
                let mut out = vec![f32::NAN; k];
                pack.infer_rows(net, &inputs, &rows, &mut out, &mut s);
                for (lane, (&q, y)) in rows.iter().zip(&out).enumerate() {
                    assert_eq!(
                        y.to_bits(),
                        want[q][net],
                        "net {net} of {n}, query {q} in lane {lane} of {k}: {y} against {}",
                        f32::from_bits(want[q][net])
                    );
                }
            }
        }
    }

    /// Both checks at every net count: 1, a part of a group, one full
    /// group, one past it and two past it.
    fn assert_all_counts(build: impl Fn(&mut StdRng) -> BranchNet) {
        for n in [1, 5, 16, 17, 33] {
            assert_lanes_match(n, &build);
            assert_passes_agree(n, &build);
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
            assert_all_counts(|rng| net(rng, &[], act));
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
                    assert_all_counts(|rng| net(rng, &convs, act));
                }
            }
        }
    }

    #[test]
    fn any_net_count_packs_into_padded_groups() {
        // Nets padded into lane groups at every count, with layer widths
        // past every output block (16, 8 and 4) and a remainder at each.
        let build = |rng: &mut StdRng| {
            let conv = ConvSpec {
                out_channels: 21,
                ..spec(3, 2, 1, PoolOp::Max)
            };
            let query = vec![
                Layer::Conv1d(Conv1d::new(rng, 1, 24, conv, Activation::Relu)),
                Layer::Dense(Dense::new(rng, 21 * 6, 19, Activation::Relu)),
            ];
            let head = vec![
                Layer::Dense(Dense::new(rng, 24, 37, Activation::Tanh)),
                Layer::Dense(Dense::new(rng, 37, 1, Activation::Identity)),
            ];
            let tau = Layer::Dense(Dense::new(rng, 3, 3, Activation::Sigmoid));
            BranchNet::new(
                vec![
                    Sequential::new(query),
                    Sequential::new(vec![tau]),
                    Sequential::identity(),
                ],
                vec![24, 3, 2],
                Sequential::new(head),
            )
        };
        assert_all_counts(build);
    }

    #[test]
    fn wrong_input_widths_and_missing_groups_read_as_nan() {
        let mut rng = StdRng::seed_from_u64(4);
        let nets = vec![net(&mut rng, &[], Activation::Relu)];
        let pack = LaneNet::pack(&nets).unwrap();
        let mut s = LaneScratch::default();
        let (xq, xt, xa) = ([0.5; 24], [0.1; 3], [0.2; 2]);
        let mut out = [0.0];
        for (g, inputs) in [
            (0, vec![&[0.5; 23][..], &xt, &xa]),
            (0, vec![&xq[..], &xt]),
            (1, vec![&xq[..], &xt, &xa]),
        ] {
            out[0] = 0.0;
            pack.infer_group(g, &inputs, &mut out, &mut s);
            assert!(out[0].is_nan(), "group {g}, {} inputs", inputs.len());
        }
        pack.infer_group(0, &[&xq, &xt, &xa], &mut out, &mut s);
        assert!(out[0].is_finite());

        let m = |x: &[f32]| Matrix::from_row(x);
        let (mq, mt, ma, short) = (m(&xq), m(&xt), m(&xa), m(&[0.5; 23]));
        let good = [&mq, &mt, &ma];
        for (net, inputs, rows, len) in [
            (0, vec![&short, &mt, &ma], vec![0], 1),
            (0, vec![&mq, &mt], vec![0], 1),
            (1, good.to_vec(), vec![0], 1),
            (0, good.to_vec(), vec![1], 1),
            (0, good.to_vec(), vec![0, 0], 1),
        ] {
            let mut out = vec![0.0; len];
            pack.infer_rows(net, &inputs, &rows, &mut out, &mut s);
            assert!(out.iter().all(|y| y.is_nan()), "net {net}, rows {rows:?}");
        }
        let mut out = [0.0; 2];
        pack.infer_rows(0, &good, &[0, 0], &mut out, &mut s);
        assert!(out.iter().all(|y| y.is_finite()));

        let empty = LaneNet::default();
        let mut out = [0.0];
        empty.infer_group(0, &[&xq, &xt, &xa], &mut out, &mut s);
        assert!(out[0].is_nan());
        empty.infer_rows(0, &good, &[0], &mut out, &mut s);
        assert!(out[0].is_nan());
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
