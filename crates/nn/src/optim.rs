//! The optimizer: Adam, used for every model in the paper.
//!
//! Adam holds flat per-parameter state aligned with the deterministic
//! visitation order of `params_mut()`; after a step it zeroes the gradient
//! accumulators so layers can simply `+=` into them during backward.

use crate::layers::ParamSlice;
use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step and zeroes the gradients.
    pub fn step(&mut self, params: &mut [ParamSlice<'_>]) {
        // Lazily size the state on first use; the parameter list shape is
        // fixed for a model's lifetime.
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.values.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.values.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (pi, p) in params.iter_mut().enumerate() {
            debug_assert_eq!(
                self.m[pi].len(),
                p.values.len(),
                "optimizer state shape drifted"
            );
            let (m, v) = (&mut self.m[pi], &mut self.v[pi]);
            for i in 0..p.values.len() {
                let g = p.grads[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                p.values[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                p.grads[i] = 0.0;
            }
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (the trainers' plateau cuts and
    /// per-epoch decay).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_grad(x: &[f32]) -> Vec<f32> {
        // ∇ of 0.5·Σ (x − 3)²
        x.iter().map(|v| v - 3.0).collect()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut x = vec![0.0f32; 4];
        let mut g = vec![0.0f32; 4];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let grad = quad_grad(&x);
            g.copy_from_slice(&grad);
            let mut params = vec![ParamSlice {
                values: &mut x,
                grads: &mut g,
            }];
            opt.step(&mut params);
        }
        assert!(x.iter().all(|v| (v - 3.0).abs() < 1e-2), "x = {x:?}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut x = vec![1.0f32];
        let mut g = vec![5.0f32];
        let mut opt = Adam::new(0.01);
        opt.step(&mut [ParamSlice {
            values: &mut x,
            grads: &mut g,
        }]);
        assert_eq!(g[0], 0.0);
    }

    #[test]
    fn learning_rate_override_applies() {
        let mut opt = Adam::new(0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }
}
