//! Network containers: [`Sequential`] layer stacks and the multi-branch
//! [`BranchNet`] used by every estimator in the paper (embeddings `E1..E6`
//! feeding an output module `F` or `G`, Figs. 2/5/7).

use crate::layers::{Layer, ParamSlice};
use crate::scratch::Scratch;
use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A stack of layers applied in order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    pub fn new(layers: Vec<Layer>) -> Self {
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer output width {} does not feed next layer input width {}",
                pair[0].out_dim(),
                pair[1].in_dim()
            );
        }
        Sequential { layers }
    }

    /// An empty stack acting as the identity (used when a feature is fed
    /// through unembedded).
    pub fn identity() -> Self {
        Sequential { layers: Vec::new() }
    }

    pub fn push(&mut self, layer: Layer) {
        if let Some(last) = self.layers.last() {
            assert_eq!(
                last.out_dim(),
                layer.in_dim(),
                "pushed layer width mismatch"
            );
        }
        self.layers.push(layer);
    }

    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Output width given an input of width `in_dim` (identity stacks pass
    /// the width through).
    pub fn out_dim_for(&self, in_dim: usize) -> usize {
        self.layers.last().map_or(in_dim, |l| l.out_dim())
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    /// Runs the stack without mutating it (no backward caches), recycling
    /// intermediate activations through the caller's [`Scratch`]. Any batch
    /// size; identical math to [`Sequential::forward`].
    pub fn infer(&self, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        let Some((first, rest)) = self.layers.split_first() else {
            // Identity stack: hand back a scratch-owned copy so callers can
            // recycle the result uniformly.
            let mut y = scratch.take(x.rows(), x.cols());
            y.as_mut_slice().copy_from_slice(x.as_slice());
            return y;
        };
        let mut cur = first.infer(x, scratch);
        for l in rest {
            let next = l.infer(&cur, scratch);
            scratch.recycle(cur);
            cur = next;
        }
        cur
    }

    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    pub fn params_mut(&mut self) -> Vec<ParamSlice<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Read-only parameter views in [`params_mut`](Self::params_mut) order.
    pub fn param_values(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.param_values()).collect()
    }

    /// Copies every parameter tensor into an owned snapshot (used by
    /// training checkpoints).
    pub fn snapshot_params(&self) -> Vec<Vec<f32>> {
        self.param_values()
            .into_iter()
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Restores parameters from a [`snapshot_params`](Self::snapshot_params)
    /// snapshot of the same architecture.
    pub fn restore_params(&mut self, snapshot: &[Vec<f32>]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), snapshot.len(), "snapshot shape mismatch");
        for (p, s) in params.iter_mut().zip(snapshot) {
            p.values.copy_from_slice(s);
        }
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut().iter_mut() {
            p.grads.fill(0.0);
        }
    }

    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    pub fn apply_constraints(&mut self) {
        for l in &mut self.layers {
            l.apply_constraints();
        }
    }
}

/// A multi-branch network: each input feature runs through its own branch
/// (embedding), the branch outputs are concatenated, and a head produces the
/// final output.
///
/// This is the shape of every model in the paper:
/// `F(E1(x_q) ⊕ E2(x_τ) ⊕ E3(x_D))` for local estimators (Fig. 2) and
/// `G(E4(x_q) ⊕ E5(x_τ) ⊕ E6(x_C))` for the global model (Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BranchNet {
    branches: Vec<Sequential>,
    head: Sequential,
    /// Branch input widths, fixed at construction for shape checking.
    in_dims: Vec<usize>,
    /// Branch output widths (cached for splitting gradients).
    branch_out_dims: Vec<usize>,
}

impl BranchNet {
    /// Builds a branch net. `in_dims[i]` is the feature width entering
    /// branch `i`; the head must accept the sum of branch output widths.
    pub fn new(branches: Vec<Sequential>, in_dims: Vec<usize>, head: Sequential) -> Self {
        assert_eq!(
            branches.len(),
            in_dims.len(),
            "one input width per branch required"
        );
        let branch_out_dims: Vec<usize> = branches
            .iter()
            .zip(&in_dims)
            .map(|(b, &d)| b.out_dim_for(d))
            .collect();
        let concat: usize = branch_out_dims.iter().sum();
        if let Some(first) = head.layers().first() {
            assert_eq!(
                first.in_dim(),
                concat,
                "head expects input width {}, branches produce {}",
                first.in_dim(),
                concat
            );
        }
        BranchNet {
            branches,
            head,
            in_dims,
            branch_out_dims,
        }
    }

    pub fn in_dims(&self) -> &[usize] {
        &self.in_dims
    }

    /// The embedding branches, in input order.
    pub fn branches(&self) -> &[Sequential] {
        &self.branches
    }

    /// The head that reads the concatenated branch outputs.
    pub fn head(&self) -> &Sequential {
        &self.head
    }

    /// Width of the concatenated embedding entering the head.
    pub fn concat_dim(&self) -> usize {
        self.branch_out_dims.iter().sum()
    }

    /// Runs all branches on their inputs and the head on the concatenation.
    ///
    /// # Panics
    /// Panics if the number or widths of inputs do not match the branches.
    pub fn forward(&mut self, inputs: &[&Matrix]) -> Matrix {
        assert_eq!(inputs.len(), self.branches.len(), "input count mismatch");
        let embs: Vec<Matrix> = self
            .branches
            .iter_mut()
            .zip(inputs)
            .map(|(b, x)| b.forward(x))
            .collect();
        let refs: Vec<&Matrix> = embs.iter().collect();
        let concat = Matrix::hconcat(&refs);
        self.head.forward(&concat)
    }

    /// Runs only branch `i` (used by the join model, which embeds member
    /// queries per branch before sum pooling).
    pub fn forward_branch(&mut self, i: usize, x: &Matrix) -> Matrix {
        self.branches[i].forward(x)
    }

    /// Runs the head on an externally assembled concatenated embedding.
    pub fn forward_head(&mut self, concat: &Matrix) -> Matrix {
        self.head.forward(concat)
    }

    /// Immutable full forward pass over a batch: every branch, the
    /// concatenation, and the head run without touching the model, so a
    /// shared `&BranchNet` can serve many threads (one [`Scratch`] each).
    /// Identical math to [`BranchNet::forward`].
    pub fn infer(&self, inputs: &[&Matrix], scratch: &mut Scratch) -> Matrix {
        assert_eq!(inputs.len(), self.branches.len(), "input count mismatch");
        let embs: Vec<Matrix> = self
            .branches
            .iter()
            .zip(inputs)
            .map(|(b, x)| b.infer(x, scratch))
            .collect();
        let rows = embs.first().map_or(0, |m| m.rows());
        let mut concat = scratch.take(rows, self.concat_dim());
        {
            let refs: Vec<&Matrix> = embs.iter().collect();
            Matrix::hconcat_into(&refs, &mut concat);
        }
        for e in embs {
            scratch.recycle(e);
        }
        let y = self.head.infer(&concat, scratch);
        scratch.recycle(concat);
        y
    }

    /// Immutable [`BranchNet::forward_branch`].
    pub fn infer_branch(&self, i: usize, x: &Matrix, scratch: &mut Scratch) -> Matrix {
        self.branches[i].infer(x, scratch)
    }

    /// Immutable [`BranchNet::forward_head`].
    pub fn infer_head(&self, concat: &Matrix, scratch: &mut Scratch) -> Matrix {
        self.head.infer(concat, scratch)
    }

    /// Back-propagates through head and branches, returning per-branch input
    /// gradients.
    pub fn backward(&mut self, grad_out: &Matrix) -> Vec<Matrix> {
        let gconcat = self.head.backward(grad_out);
        let parts = gconcat.hsplit(&self.branch_out_dims);
        self.branches
            .iter_mut()
            .zip(parts)
            .map(|(b, g)| b.backward(&g))
            .collect()
    }

    /// Back-propagates only through the head, returning the gradient w.r.t.
    /// the concatenated embedding (the join model splits it manually).
    pub fn backward_head(&mut self, grad_out: &Matrix) -> Matrix {
        self.head.backward(grad_out)
    }

    /// Back-propagates an embedding gradient through branch `i`.
    pub fn backward_branch(&mut self, i: usize, grad: &Matrix) -> Matrix {
        self.branches[i].backward(grad)
    }

    pub fn branch_out_dims(&self) -> &[usize] {
        &self.branch_out_dims
    }

    pub fn params_mut(&mut self) -> Vec<ParamSlice<'_>> {
        let mut out: Vec<ParamSlice<'_>> = Vec::new();
        for b in &mut self.branches {
            out.extend(b.params_mut());
        }
        out.extend(self.head.params_mut());
        out
    }

    /// Read-only parameter views in [`params_mut`](Self::params_mut) order
    /// (branches first, then the head).
    pub fn param_values(&self) -> Vec<&[f32]> {
        let mut out: Vec<&[f32]> = Vec::new();
        for b in &self.branches {
            out.extend(b.param_values());
        }
        out.extend(self.head.param_values());
        out
    }

    /// Copies every parameter tensor into an owned snapshot (used by
    /// training checkpoints).
    pub fn snapshot_params(&self) -> Vec<Vec<f32>> {
        self.param_values()
            .into_iter()
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Restores parameters from a [`snapshot_params`](Self::snapshot_params)
    /// snapshot of the same architecture. Gradient accumulators are left
    /// untouched; pair with [`zero_grads`](Self::zero_grads) when rolling
    /// back mid-step.
    pub fn restore_params(&mut self, snapshot: &[Vec<f32>]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), snapshot.len(), "snapshot shape mismatch");
        for (p, s) in params.iter_mut().zip(snapshot) {
            p.values.copy_from_slice(s);
        }
    }

    /// Copies parameter values (not gradients) from an identically shaped
    /// net — how gradient-shard replicas sync with the master each batch.
    pub fn copy_params_from(&mut self, other: &Self) {
        let mut params = self.params_mut();
        let src = other.param_values();
        assert_eq!(params.len(), src.len(), "architecture mismatch");
        for (p, s) in params.iter_mut().zip(src) {
            p.values.copy_from_slice(s);
        }
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut().iter_mut() {
            p.grads.fill(0.0);
        }
    }

    /// All parameters flattened into one vector in deterministic
    /// [`params_mut`](Self::params_mut) order — handy for bit-exact weight
    /// comparisons in determinism tests.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for v in self.param_values() {
            out.extend_from_slice(v);
        }
        out
    }

    pub fn param_count(&self) -> usize {
        self.branches.iter().map(|b| b.param_count()).sum::<usize>() + self.head.param_count()
    }

    /// Model size in bytes if parameters were exported as `f32` (Table 5
    /// counts model sizes this way).
    pub fn param_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    pub fn apply_constraints(&mut self) {
        for b in &mut self.branches {
            b.apply_constraints();
        }
        self.head.apply_constraints();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layers::Dense;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn sequential_rejects_mismatched_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Layer::Dense(Dense::new(&mut rng, 4, 3, Activation::Relu));
        let b = Layer::Dense(Dense::new(&mut rng, 5, 2, Activation::Relu));
        let result = std::panic::catch_unwind(|| Sequential::new(vec![a, b]));
        assert!(result.is_err());
    }

    #[test]
    fn branchnet_forward_shape_and_identity_branch() {
        let mut rng = StdRng::seed_from_u64(2);
        let b1 = Sequential::new(vec![Layer::Dense(Dense::new(
            &mut rng,
            6,
            4,
            Activation::Relu,
        ))]);
        let b2 = Sequential::identity(); // raw 1-d threshold straight through
        let head = Sequential::new(vec![Layer::Dense(Dense::new(
            &mut rng,
            5,
            1,
            Activation::Identity,
        ))]);
        let mut net = BranchNet::new(vec![b1, b2], vec![6, 1], head);
        assert_eq!(net.concat_dim(), 5);
        let xq = rand_matrix(&mut rng, 3, 6);
        let xt = rand_matrix(&mut rng, 3, 1);
        let y = net.forward(&[&xq, &xt]);
        assert_eq!((y.rows(), y.cols()), (3, 1));
    }

    #[test]
    fn branchnet_end_to_end_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let make = |rng: &mut StdRng| {
            let b1 = Sequential::new(vec![Layer::Dense(Dense::new(rng, 4, 3, Activation::Tanh))]);
            let b2 = Sequential::new(vec![Layer::Dense(Dense::new(
                rng,
                2,
                2,
                Activation::Sigmoid,
            ))]);
            let head = Sequential::new(vec![
                Layer::Dense(Dense::new(rng, 5, 4, Activation::Tanh)),
                Layer::Dense(Dense::new(rng, 4, 1, Activation::Identity)),
            ]);
            BranchNet::new(vec![b1, b2], vec![4, 2], head)
        };
        let mut net = make(&mut rng);
        let x1 = rand_matrix(&mut rng, 2, 4);
        let x2 = rand_matrix(&mut rng, 2, 2);

        let loss = |net: &mut BranchNet, x1: &Matrix, x2: &Matrix| -> f32 {
            let y = net.forward(&[x1, x2]);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let y = net.forward(&[&x1, &x2]);
        let gs = net.backward(&y);
        // Finite-difference check on the two inputs.
        let h = 2e-3f32;
        for (xi, (x, g)) in [(x1.clone(), &gs[0]), (x2.clone(), &gs[1])]
            .iter()
            .enumerate()
        {
            let mut xp = x.clone();
            for i in 0..xp.as_slice().len() {
                let orig = xp.as_slice()[i];
                xp.as_mut_slice()[i] = orig + h;
                let lp = if xi == 0 {
                    loss(&mut net, &xp, &x2)
                } else {
                    loss(&mut net, &x1, &xp)
                };
                xp.as_mut_slice()[i] = orig - h;
                let lm = if xi == 0 {
                    loss(&mut net, &xp, &x2)
                } else {
                    loss(&mut net, &x1, &xp)
                };
                xp.as_mut_slice()[i] = orig;
                let fd = (lp - lm) / (2.0 * h);
                let an = g.as_slice()[i];
                assert!(
                    (fd - an).abs() / fd.abs().max(an.abs()).max(1.0) < 2e-2,
                    "branch {xi} input[{i}]: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn branchnet_infer_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        let b1 = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 5, 6, Activation::Relu)),
            Layer::Dense(Dense::new(&mut rng, 6, 3, Activation::Tanh)),
        ]);
        let b2 = Sequential::identity();
        let head = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 4, 4, Activation::Sigmoid)),
            Layer::Dense(Dense::new(&mut rng, 4, 1, Activation::Identity)),
        ]);
        let mut net = BranchNet::new(vec![b1, b2], vec![5, 1], head);
        let x1 = rand_matrix(&mut rng, 7, 5);
        let x2 = rand_matrix(&mut rng, 7, 1);
        let y_train = net.forward(&[&x1, &x2]);
        let mut scratch = Scratch::new();
        // Two infer calls through the same scratch: parity and buffer reuse.
        for _ in 0..2 {
            let y_infer = net.infer(&[&x1, &x2], &mut scratch);
            assert_eq!(y_train.as_slice(), y_infer.as_slice());
            scratch.recycle(y_infer);
        }
    }

    #[test]
    fn param_bytes_counts_all_tensors() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = Sequential::new(vec![Layer::Dense(Dense::new(
            &mut rng,
            3,
            2,
            Activation::Relu,
        ))]);
        let head = Sequential::new(vec![Layer::Dense(Dense::new(
            &mut rng,
            2,
            1,
            Activation::Identity,
        ))]);
        let net = BranchNet::new(vec![b], vec![3], head);
        // (3*2 + 2) + (2*1 + 1) = 11 parameters.
        assert_eq!(net.param_count(), 11);
        assert_eq!(net.param_bytes(), 44);
    }
}
