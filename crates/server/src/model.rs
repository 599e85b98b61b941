//! Loaded serving models and the owned query codec.
//!
//! An artifact file names its estimator family in the (checksummed)
//! container header; [`LoadedModel::load`] reads and verifies the whole
//! container once (`cardest_nn::artifact::read_any`), then hands the
//! payload to the matching family's `decode_artifact`. The enum is
//! monomorphic dispatch in the same spirit as the kernel crates: no trait
//! objects on the per-request path.

use cardest_baselines::cardnet::{CardNet, CARDNET_ARTIFACT_KIND};
use cardest_baselines::mlp::{MlpEstimator, MLP_ARTIFACT_KIND};
use cardest_baselines::traits::CardinalityEstimator;
use cardest_core::gl::{GlEstimator, GL_ARTIFACT_KIND};
use cardest_data::vector::{VectorData, VectorView};
use cardest_nn::artifact;
use std::path::Path;

use crate::registry::ReloadError;

/// A deserialized estimator of any supported family.
pub enum LoadedModel {
    Mlp(MlpEstimator),
    CardNet(CardNet),
    Gl(GlEstimator),
}

impl LoadedModel {
    /// Loads an artifact, dispatching on its verified kind tag. The
    /// container (magic, version, length, checksum) is fully verified
    /// before any family's deserializer sees a byte, so a corrupt file
    /// surfaces as a typed [`ReloadError::Artifact`], never as a
    /// half-parsed model.
    pub fn load(path: &Path) -> Result<(Self, String), ReloadError> {
        let (kind, payload) = artifact::read_any(path)?;
        let model = match kind.as_str() {
            MLP_ARTIFACT_KIND => LoadedModel::Mlp(MlpEstimator::decode_artifact(&payload)?),
            CARDNET_ARTIFACT_KIND => LoadedModel::CardNet(CardNet::decode_artifact(&payload)?),
            GL_ARTIFACT_KIND => LoadedModel::Gl(GlEstimator::decode_artifact(&payload)?),
            other => return Err(ReloadError::UnsupportedKind(other.to_string())),
        };
        Ok((model, kind))
    }
}

impl CardinalityEstimator for LoadedModel {
    fn name(&self) -> &'static str {
        match self {
            LoadedModel::Mlp(m) => m.name(),
            LoadedModel::CardNet(m) => m.name(),
            LoadedModel::Gl(m) => m.name(),
        }
    }
    fn estimate(&self, q: VectorView<'_>, tau: f32) -> f32 {
        match self {
            LoadedModel::Mlp(m) => m.estimate(q, tau),
            LoadedModel::CardNet(m) => m.estimate(q, tau),
            LoadedModel::Gl(m) => m.estimate(q, tau),
        }
    }
    fn estimate_batch(&self, queries: &[(VectorView<'_>, f32)]) -> Vec<f32> {
        match self {
            LoadedModel::Mlp(m) => m.estimate_batch(queries),
            LoadedModel::CardNet(m) => m.estimate_batch(queries),
            LoadedModel::Gl(m) => m.estimate_batch(queries),
        }
    }
    fn estimate_join(&self, queries: &VectorData, member_ids: &[usize], tau: f32) -> f32 {
        match self {
            LoadedModel::Mlp(m) => m.estimate_join(queries, member_ids, tau),
            LoadedModel::CardNet(m) => m.estimate_join(queries, member_ids, tau),
            LoadedModel::Gl(m) => m.estimate_join(queries, member_ids, tau),
        }
    }
    fn model_bytes(&self) -> usize {
        match self {
            LoadedModel::Mlp(m) => m.model_bytes(),
            LoadedModel::CardNet(m) => m.model_bytes(),
            LoadedModel::Gl(m) => m.model_bytes(),
        }
    }
    fn expected_dim(&self) -> Option<usize> {
        match self {
            LoadedModel::Mlp(m) => m.expected_dim(),
            LoadedModel::CardNet(m) => m.expected_dim(),
            LoadedModel::Gl(m) => m.expected_dim(),
        }
    }
    fn tau_bound(&self) -> Option<f32> {
        match self {
            LoadedModel::Mlp(m) => m.tau_bound(),
            LoadedModel::CardNet(m) => m.tau_bound(),
            LoadedModel::Gl(m) => m.tau_bound(),
        }
    }
}

/// Representation the serving dataset (and therefore every query) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRepr {
    Dense,
    /// Bit-packed binary vectors of the given logical dimension.
    Binary,
}

/// An owned query vector — requests outlive the HTTP buffer they were
/// parsed from (they sit in the coalescing queue), so the borrowed
/// [`VectorView`] is materialized only at flush time.
#[derive(Debug, Clone)]
pub enum OwnedQuery {
    Dense(Vec<f32>),
    Binary { words: Vec<u64>, dim: usize },
}

impl OwnedQuery {
    /// Converts JSON component values into the serving representation.
    /// Binary datasets bit-pack with a 0.5 threshold; non-finite
    /// components are passed through for dense queries (the guard rejects
    /// them with a typed error) but must be rejected here for binary ones,
    /// where packing would silently launder a NaN into a 0-bit.
    // cardest-lint: allow(error-taxonomy): the String is a client-facing 400 body; callers never branch on it
    pub fn from_components(values: &[f32], repr: QueryRepr) -> Result<Self, String> {
        match repr {
            QueryRepr::Dense => Ok(OwnedQuery::Dense(values.to_vec())),
            QueryRepr::Binary => {
                if let Some((i, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                    return Err(format!(
                        "query component {i} is non-finite ({v}) and cannot be bit-packed"
                    ));
                }
                let dim = values.len();
                let mut words = vec![0u64; dim.div_ceil(64)];
                for (i, &v) in values.iter().enumerate() {
                    if v >= 0.5 {
                        words[i / 64] |= 1u64 << (i % 64);
                    }
                }
                Ok(OwnedQuery::Binary { words, dim })
            }
        }
    }

    /// Borrows the query for an estimator call.
    pub fn view(&self) -> VectorView<'_> {
        match self {
            OwnedQuery::Dense(v) => VectorView::Dense(v),
            OwnedQuery::Binary { words, dim } => VectorView::Binary { words, dim: *dim },
        }
    }
}

/// The representation a dataset serves queries in.
pub fn repr_of(data: &VectorData) -> QueryRepr {
    match data {
        VectorData::Dense(_) => QueryRepr::Dense,
        VectorData::Binary(_) => QueryRepr::Binary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_components_pass_through() {
        let q = OwnedQuery::from_components(&[0.1, f32::NAN], QueryRepr::Dense).unwrap();
        match q.view() {
            VectorView::Dense(v) => {
                assert_eq!(v.len(), 2);
                assert!(v[1].is_nan(), "guard-layer rejection, not codec-layer");
            }
            _ => panic!("expected dense"),
        }
    }

    #[test]
    fn binary_components_bit_pack_with_half_threshold() {
        let vals = [0.0f32, 1.0, 0.49, 0.51, 1.0];
        let q = OwnedQuery::from_components(&vals, QueryRepr::Binary).unwrap();
        match q.view() {
            VectorView::Binary { words, dim } => {
                assert_eq!(dim, 5);
                assert_eq!(words[0], 0b11010);
            }
            _ => panic!("expected binary"),
        }
    }

    #[test]
    fn binary_rejects_non_finite_components() {
        let err =
            OwnedQuery::from_components(&[1.0, f32::INFINITY], QueryRepr::Binary).unwrap_err();
        assert!(err.contains("component 1"), "{err}");
    }

    #[test]
    fn unknown_artifact_kind_is_typed() {
        let dir = std::env::temp_dir().join(format!("cardest-model-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weird.cardest");
        cardest_nn::artifact::write_atomic(&path, "cardest.unknown", &[b"{}"]).unwrap();
        match LoadedModel::load(&path) {
            Err(ReloadError::UnsupportedKind(k)) => assert_eq!(k, "cardest.unknown"),
            Err(other) => panic!("expected UnsupportedKind, got {other:?}"),
            Ok(_) => panic!("loading an unknown kind must fail"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
