//! The end-to-end data-segmentation pipeline of §3.3: PCA to a handful of
//! components, batch k-means on the reduced points, then per-segment
//! metadata in the *original* space — fractional centroids, member lists,
//! and radii (for the triangle-inequality bound of §5.1).
//!
//! The [`Segmentation`] is the substrate every global-local model sits on:
//! it provides `x_C` (the centroid-distance feature of Fig. 5), per-segment
//! membership for label derivation, and nearest-centroid routing for the
//! incremental updates of §5.3.

use crate::kmeans::KMeans;
use crate::pca::Pca;
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use serde::{Deserialize, Serialize};

/// How the raw data is clustered into segments (the paper compares these
/// three and picks PCA + k-means).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentationMethod {
    /// PCA + mini-batch k-means — the paper's choice.
    PcaKMeans,
    /// PCA + DBSCAN with noise absorbed into the nearest cluster.
    PcaDbscan,
    /// PCA + signed-random-projection LSH buckets.
    PcaLsh,
}

/// Configuration for fitting a [`Segmentation`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SegmentationConfig {
    pub n_segments: usize,
    /// PCA target rank (clamped to the data dimension).
    pub pca_rank: usize,
    pub pca_iters: usize,
    pub method: SegmentationMethod,
    pub seed: u64,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        SegmentationConfig {
            n_segments: 32,
            pca_rank: 8,
            pca_iters: 12,
            method: SegmentationMethod::PcaKMeans,
            seed: 0,
        }
    }
}

/// A total partition of the dataset into segments, with the per-segment
/// metadata the estimators need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Segmentation {
    metric: Metric,
    /// Per-point segment id.
    assignment: Vec<usize>,
    /// Per-segment member indices.
    members: Vec<Vec<usize>>,
    /// Fractional centroids in the *original* space.
    centroids: Vec<Vec<f32>>,
    /// Max member distance to the centroid, under `metric`.
    radii: Vec<f32>,
}

impl Segmentation {
    /// Fits the segmentation pipeline on a dataset.
    pub fn fit(data: &VectorData, metric: Metric, config: &SegmentationConfig) -> Self {
        assert!(!data.is_empty(), "cannot segment an empty dataset");
        let n = data.len();
        let n_segments = config.n_segments.clamp(1, n);
        let pca = Pca::fit(data, config.pca_rank, config.pca_iters, config.seed);
        let reduced = pca.transform_all(data);
        let rank = pca.rank();

        let assignment: Vec<usize> = match config.method {
            SegmentationMethod::PcaKMeans => {
                let km = KMeans::fit_minibatch(&reduced, rank, n_segments, 256, 40, config.seed);
                km.assign_all(&reduced)
            }
            SegmentationMethod::PcaDbscan => {
                // Pick eps from a distance sample so the requested segment
                // count is roughly achievable, then absorb noise.
                let eps = estimate_eps(&reduced, rank, n_segments);
                let (mut labels, _) = crate::dbscan::dbscan(&reduced, rank, eps, 4);
                crate::dbscan::absorb_noise(&reduced, rank, &mut labels);
                labels
            }
            SegmentationMethod::PcaLsh => {
                let bits = (n_segments.max(2) as f32).log2().ceil() as usize + 1;
                let lsh = crate::lsh::LshSegmenter::new(rank, bits.min(16), config.seed);
                let min_bucket = (n / (4 * n_segments.max(1))).max(2);
                lsh.segment(&reduced, min_bucket).0
            }
        };
        Self::from_assignment(data, metric, assignment)
    }

    /// Builds segment metadata from an explicit assignment (also used after
    /// re-labelling in the DBSCAN/LSH paths).
    fn from_assignment(data: &VectorData, metric: Metric, assignment: Vec<usize>) -> Self {
        let n_segments = assignment.iter().copied().max().map_or(1, |m| m + 1);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_segments];
        for (i, &s) in assignment.iter().enumerate() {
            members[s].push(i);
        }
        let centroids: Vec<Vec<f32>> = members
            .iter()
            .map(|m| {
                if m.is_empty() {
                    vec![0.0; data.dim()]
                } else {
                    data.centroid(m)
                }
            })
            .collect();
        let radii: Vec<f32> = members
            .iter()
            .zip(&centroids)
            .map(|(m, c)| {
                m.iter()
                    .map(|&i| metric.distance_to_centroid(data.view(i), c))
                    .fold(0.0f32, f32::max)
            })
            .collect();
        Segmentation {
            metric,
            assignment,
            members,
            centroids,
            radii,
        }
    }

    pub fn n_segments(&self) -> usize {
        self.members.len()
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    pub fn members(&self, seg: usize) -> &[usize] {
        &self.members[seg]
    }

    pub fn centroid(&self, seg: usize) -> &[f32] {
        &self.centroids[seg]
    }

    pub fn radius(&self, seg: usize) -> f32 {
        self.radii[seg]
    }

    /// The centroid-distance feature `x_C` of Fig. 5: distances from a
    /// query to every segment centroid, under the dataset metric — the
    /// batched kernel expands a binary query once, not per centroid.
    pub fn centroid_distances(&self, q: VectorView<'_>) -> Vec<f32> {
        self.metric.distance_to_centroids(q, &self.centroids)
    }

    /// [`Segmentation::centroid_distances`] into a caller-owned buffer of
    /// length [`Segmentation::n_segments`] (the feature-cache hot path).
    pub fn centroid_distances_into(&self, q: VectorView<'_>, out: &mut [f32]) {
        self.metric
            .distance_to_centroids_into(q, &self.centroids, out);
    }

    /// The segment whose centroid is nearest to `v` — the routing rule for
    /// inserted points (§5.3). Evaluates each centroid distance once (the
    /// previous comparator-based argmin evaluated two per comparison) and
    /// keeps the first minimum on ties.
    pub fn nearest_segment(&self, v: VectorView<'_>) -> usize {
        let dists = self.metric.distance_to_centroids(v, &self.centroids);
        let mut best = (0usize, f32::INFINITY);
        for (s, &d) in dists.iter().enumerate() {
            if d < best.1 {
                best = (s, d);
            }
        }
        best.0
    }

    /// Records a newly inserted point (already appended to the dataset at
    /// index `idx`) into its nearest segment, growing that segment's radius
    /// if needed. Returns the segment id.
    pub fn insert_point(&mut self, idx: usize, v: VectorView<'_>) -> usize {
        let seg = self.nearest_segment(v);
        debug_assert_eq!(
            idx,
            self.assignment.len(),
            "points must be appended in order"
        );
        self.assignment.push(seg);
        self.members[seg].push(idx);
        let d = self.metric.distance_to_centroid(v, &self.centroids[seg]);
        if d > self.radii[seg] {
            self.radii[seg] = d;
        }
        seg
    }

    /// Removes a point (by dataset index) from its segment. The dataset
    /// itself keeps the row (tombstone semantics); cardinality labels must
    /// be recomputed by the caller.
    pub fn remove_point(&mut self, idx: usize) -> usize {
        let seg = self.assignment[idx];
        if let Some(pos) = self.members[seg].iter().position(|&i| i == idx) {
            self.members[seg].swap_remove(pos);
        }
        seg
    }

    /// Lower bound on the distance from `q` to any member of `seg`, via the
    /// triangle inequality on the centroid distance and segment radius
    /// (§5.1 uses this bound to motivate the centroid feature). Only valid
    /// for true metrics (L1/L2/Angular/Hamming); returns 0 otherwise.
    pub fn distance_lower_bound(&self, q: VectorView<'_>, seg: usize) -> f32 {
        if matches!(self.metric, Metric::Jaccard) || !self.metric.is_true_metric() {
            // Ruzicka-generalized Jaccard against fractional centroids is
            // not guaranteed metric here, and cosine has no triangle
            // inequality at all; fall back to the trivial bound.
            return 0.0;
        }
        let dc = self.metric.distance_to_centroid(q, &self.centroids[seg]);
        (dc - self.radii[seg]).max(0.0)
    }

    /// Mean within-segment distance of sampled pairs — the cohesion score
    /// used by the segmentation-method ablation (lower is better).
    pub fn cohesion(&self, data: &VectorData, pairs_per_segment: usize, seed: u64) -> f32 {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0f64;
        let mut count = 0usize;
        for m in &self.members {
            if m.len() < 2 {
                continue;
            }
            for _ in 0..pairs_per_segment {
                let a = m[rng.gen_range(0..m.len())];
                let b = m[rng.gen_range(0..m.len())];
                if a == b {
                    continue;
                }
                total += self.metric.distance(data.view(a), data.view(b)) as f64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            (total / count as f64) as f32
        }
    }
}

/// Picks a DBSCAN `eps` as a low quantile of sampled pairwise distances,
/// scaled so that roughly `n_segments` dense regions can separate.
fn estimate_eps(points: &[f32], dim: usize, n_segments: usize) -> f32 {
    let n = points.len() / dim;
    if n < 2 {
        return 1.0;
    }
    let mut dists: Vec<f32> = Vec::new();
    let step = (n / 512).max(1);
    let mut i = 0;
    while i + step < n && dists.len() < 2048 {
        let a = &points[i * dim..(i + 1) * dim];
        let b = &points[(i + step) * dim..(i + step + 1) * dim];
        dists.push(cardest_data::kernels::sq_l2(a, b).sqrt());
        i += 1;
    }
    dists.sort_by(|a, b| a.total_cmp(b));
    let q = (dists.len() / n_segments.max(2)).min(dists.len().saturating_sub(1));
    dists.get(q).copied().unwrap_or(1.0).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::paper::{DatasetSpec, PaperDataset};

    fn small_spec() -> DatasetSpec {
        DatasetSpec {
            n_data: 800,
            ..PaperDataset::ImageNet.spec()
        }
    }

    fn fit_small(method: SegmentationMethod) -> (VectorData, Segmentation) {
        let spec = small_spec();
        let data = spec.generate(11);
        let config = SegmentationConfig {
            n_segments: 8,
            pca_rank: 6,
            pca_iters: 8,
            method,
            seed: 11,
        };
        let seg = Segmentation::fit(&data, spec.metric, &config);
        (data, seg)
    }

    #[test]
    fn kmeans_segmentation_is_a_total_partition() {
        let (data, seg) = fit_small(SegmentationMethod::PcaKMeans);
        assert_eq!(seg.assignment().len(), data.len());
        let total: usize = (0..seg.n_segments()).map(|s| seg.members(s).len()).sum();
        assert_eq!(total, data.len());
        // Members agree with the assignment.
        for s in 0..seg.n_segments() {
            for &i in seg.members(s) {
                assert_eq!(seg.assignment()[i], s);
            }
        }
    }

    #[test]
    fn radii_cover_members() {
        let (data, seg) = fit_small(SegmentationMethod::PcaKMeans);
        for s in 0..seg.n_segments() {
            for &i in seg.members(s) {
                let d = seg
                    .metric()
                    .distance_to_centroid(data.view(i), seg.centroid(s));
                assert!(d <= seg.radius(s) + 1e-6);
            }
        }
    }

    #[test]
    fn triangle_lower_bound_is_valid() {
        let (data, seg) = fit_small(SegmentationMethod::PcaKMeans);
        // For sampled queries and segments, no member may be closer than
        // the bound.
        for q in (0..data.len()).step_by(97) {
            for s in 0..seg.n_segments() {
                let bound = seg.distance_lower_bound(data.view(q), s);
                for &i in seg.members(s).iter().take(20) {
                    let d = seg.metric().distance(data.view(q), data.view(i));
                    assert!(
                        d >= bound - 1e-4,
                        "member {i} of seg {s} at {d} violates bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn centroid_distances_have_one_entry_per_segment() {
        let (data, seg) = fit_small(SegmentationMethod::PcaKMeans);
        let xc = seg.centroid_distances(data.view(0));
        assert_eq!(xc.len(), seg.n_segments());
        assert!(xc.iter().all(|d| d.is_finite() && *d >= 0.0));
    }

    #[test]
    fn insert_routes_to_nearest_and_grows_radius() {
        let (data, mut seg) = fit_small(SegmentationMethod::PcaKMeans);
        let v = data.view(0);
        let expected = seg.nearest_segment(v);
        let n = data.len();
        let got = seg.insert_point(n, v);
        assert_eq!(got, expected);
        assert!(seg.members(got).contains(&n));
        assert_eq!(seg.assignment().len(), n + 1);
    }

    #[test]
    fn remove_point_shrinks_membership() {
        let (_, mut seg) = fit_small(SegmentationMethod::PcaKMeans);
        let seg0 = seg.assignment()[0];
        let before = seg.members(seg0).len();
        seg.remove_point(0);
        assert_eq!(seg.members(seg0).len(), before - 1);
    }

    #[test]
    fn dbscan_and_lsh_methods_also_produce_total_partitions() {
        for method in [SegmentationMethod::PcaDbscan, SegmentationMethod::PcaLsh] {
            let (data, seg) = fit_small(method);
            let total: usize = (0..seg.n_segments()).map(|s| seg.members(s).len()).sum();
            assert_eq!(total, data.len(), "{method:?}");
        }
    }

    #[test]
    fn kmeans_cohesion_beats_random_assignment() {
        let spec = small_spec();
        let data = spec.generate(13);
        let config = SegmentationConfig {
            n_segments: 8,
            ..Default::default()
        };
        let seg = Segmentation::fit(&data, spec.metric, &config);
        // Random segmentation baseline with the same segment count.
        let random_assign: Vec<usize> = (0..data.len()).map(|i| i % 8).collect();
        let rand_seg = Segmentation::from_assignment(&data, spec.metric, random_assign);
        let c_fit = seg.cohesion(&data, 50, 1);
        let c_rand = rand_seg.cohesion(&data, 50, 1);
        assert!(
            c_fit < c_rand,
            "k-means cohesion {c_fit} should beat random {c_rand}"
        );
    }

    #[test]
    fn single_segment_config_works() {
        let spec = small_spec();
        let data = spec.generate(14);
        let config = SegmentationConfig {
            n_segments: 1,
            ..Default::default()
        };
        let seg = Segmentation::fit(&data, spec.metric, &config);
        assert_eq!(seg.n_segments(), 1);
        assert_eq!(seg.members(0).len(), data.len());
    }
}
