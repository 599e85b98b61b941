//! Pointwise activation functions.
//!
//! Derivatives are computed from the *output* value, which is exact for all
//! the activations used here (ReLU, sigmoid, tanh, identity) and lets layers
//! cache only their output.

use serde::{Deserialize, Serialize};

/// Pointwise nonlinearity applied by a layer after its affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — used by every hidden layer in the paper (§5.1).
    Relu,
    /// Logistic sigmoid — the global model's output nonlinearity.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity — the cardinality output layer is linear (§5.1).
    Identity,
}

impl Activation {
    /// Applies the activation in place to a buffer.
    #[inline]
    pub fn apply(self, xs: &mut [f32]) {
        match self {
            Activation::Relu => {
                // A select rather than a conditional store, so that a
                // fixed-size block vectorizes instead of branching per value.
                for x in xs {
                    *x = if *x < 0.0 { 0.0 } else { *x };
                }
            }
            Activation::Sigmoid => {
                for x in xs {
                    *x = sigmoid(*x);
                }
            }
            Activation::Tanh => {
                for x in xs {
                    *x = x.tanh();
                }
            }
            Activation::Identity => {}
        }
    }

    /// Derivative evaluated from the activation *output* `y`.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut v = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for &x in &[-0.9f32, -0.3, 0.4, 1.2] {
                let h = 1e-3f32;
                let mut lo = [x - h];
                let mut hi = [x + h];
                act.apply(&mut lo);
                act.apply(&mut hi);
                let fd = (hi[0] - lo[0]) / (2.0 * h);
                let mut y = [x];
                act.apply(&mut y);
                let an = act.derivative_from_output(y[0]);
                assert!(
                    (fd - an).abs() < 5e-3,
                    "{act:?} at {x}: fd={fd} analytic={an}"
                );
            }
        }
    }
}
