// Library (non-test) code must not panic on malformed input: surface
// typed errors instead. Tests may unwrap freely.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

//! # cardest-index
//!
//! An exact pivot-based metric index for threshold similarity search — the
//! stand-in for **SimSelect** [44], the exact baseline of Table 6 (the
//! paper uses it to show that learned estimation is faster than even an
//! efficient exact index).
//!
//! Structure: data points are grouped around pivot points (actual dataset
//! members, chosen by k-means on PCA-reduced data); each group stores its
//! members together with their precomputed distances to the pivot. A range
//! count `card(q, τ)` then prunes with the triangle inequality at two
//! levels:
//!
//! 1. *group level* — if `d(q, pivot) − radius > τ` the whole group is
//!    skipped; if `d(q, pivot) + radius ≤ τ` the whole group matches,
//! 2. *member level* — a member `p` with `|d(q, pivot) − d(p, pivot)| > τ`
//!    cannot match and is skipped without a distance evaluation.
//!
//! All metrics used in the reproduction (L1, L2, Angular, Hamming, Jaccard
//! on binary sets) satisfy the triangle inequality between actual data
//! points, so counts are exact.

use cardest_cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest_data::metric::Metric;
use cardest_data::vector::{VectorData, VectorView};
use serde::{Deserialize, Serialize};

/// One pivot group: the pivot (a dataset index), its members, and each
/// member's distance to the pivot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PivotGroup {
    pivot: usize,
    /// `(member index, distance to pivot)`, sorted by distance.
    members: Vec<(usize, f32)>,
    radius: f32,
}

/// Exact threshold-search index over a dataset.
#[derive(Debug, Clone)]
pub struct PivotIndex {
    metric: Metric,
    groups: Vec<PivotGroup>,
}

/// Counters describing how much work a query did (used to demonstrate the
/// pruning behaviour and in the latency discussion of Exp-9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Groups skipped entirely by the lower bound.
    pub groups_pruned: usize,
    /// Groups counted entirely by the upper bound.
    pub groups_swallowed: usize,
    /// Members skipped by the per-member bound.
    pub members_pruned: usize,
    /// Exact distance evaluations performed.
    pub distance_evals: usize,
}

impl PivotIndex {
    /// Builds the index with roughly `n_pivots` groups.
    pub fn build(data: &VectorData, metric: Metric, n_pivots: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(
            metric.is_true_metric(),
            "{metric:?} violates the triangle inequality; the pivot index would return wrong counts"
        );
        let config = SegmentationConfig {
            n_segments: n_pivots.max(1),
            pca_rank: 8,
            pca_iters: 8,
            method: SegmentationMethod::PcaKMeans,
            seed,
        };
        let seg = Segmentation::fit(data, metric, &config);
        let groups = (0..seg.n_segments())
            .filter_map(|s| {
                // The pivot is the member closest to the fractional
                // centroid, so all stored distances are point-to-point and
                // the triangle inequality holds exactly. Empty segments
                // (the `?`) contribute no group.
                let members = seg.members(s);
                let pivot = *members.iter().min_by(|&&a, &&b| {
                    metric
                        .distance_to_centroid(data.view(a), seg.centroid(s))
                        .total_cmp(&metric.distance_to_centroid(data.view(b), seg.centroid(s)))
                })?;
                let mut members: Vec<(usize, f32)> = members
                    .iter()
                    .map(|&i| (i, metric.distance(data.view(pivot), data.view(i))))
                    .collect();
                members.sort_by(|a, b| a.1.total_cmp(&b.1));
                let radius = members.last().map_or(0.0, |m| m.1);
                Some(PivotGroup {
                    pivot,
                    members,
                    radius,
                })
            })
            .collect();
        PivotIndex { metric, groups }
    }

    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Exact `card(q, τ, D)` with pruning statistics.
    pub fn range_count_with_stats(
        &self,
        data: &VectorData,
        q: VectorView<'_>,
        tau: f32,
    ) -> (u32, SearchStats) {
        let mut count = 0u32;
        let mut stats = SearchStats::default();
        for g in &self.groups {
            let dq = self.metric.distance(q, data.view(g.pivot));
            stats.distance_evals += 1;
            if dq - g.radius > tau {
                stats.groups_pruned += 1;
                continue;
            }
            if dq + g.radius <= tau {
                stats.groups_swallowed += 1;
                count += g.members.len() as u32;
                continue;
            }
            // Members are sorted by pivot distance; only those with
            // pivot-distance in [dq − τ, dq + τ] can match. Both window
            // edges are found by binary search, so the members outside the
            // window are pruned in O(log n) without iterating them.
            let lo = dq - tau;
            let hi = dq + tau;
            let start = g.members.partition_point(|&(_, d)| d < lo);
            let end = g.members.partition_point(|&(_, d)| d <= hi);
            stats.members_pruned += start + (g.members.len() - end);
            for &(i, _) in &g.members[start..end] {
                stats.distance_evals += 1;
                if self.metric.distance(q, data.view(i)) <= tau {
                    count += 1;
                }
            }
        }
        (count, stats)
    }

    /// Exact `card(q, τ, D)`.
    pub fn range_count(&self, data: &VectorData, q: VectorView<'_>, tau: f32) -> u32 {
        self.range_count_with_stats(data, q, tau).0
    }

    /// Exact matching member ids (threshold similarity *search*, not just
    /// counting) — the operation SimSelect actually serves.
    pub fn range_search(&self, data: &VectorData, q: VectorView<'_>, tau: f32) -> Vec<usize> {
        let mut out = Vec::new();
        for g in &self.groups {
            let dq = self.metric.distance(q, data.view(g.pivot));
            if dq - g.radius > tau {
                continue;
            }
            let lo = dq - tau;
            let hi = dq + tau;
            let start = g.members.partition_point(|&(_, d)| d < lo);
            let end = g.members.partition_point(|&(_, d)| d <= hi);
            for &(i, _) in &g.members[start..end] {
                if self.metric.distance(q, data.view(i)) <= tau {
                    out.push(i);
                }
            }
        }
        out
    }

    /// Heap size of the index metadata in bytes (pivot lists).
    pub fn heap_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.members.len() * std::mem::size_of::<(usize, f32)>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::paper::{DatasetSpec, PaperDataset};

    fn check_exact(ds: PaperDataset, seed: u64) {
        let spec = DatasetSpec {
            n_data: 600,
            ..ds.spec()
        };
        let data = spec.generate(seed);
        let index = PivotIndex::build(&data, spec.metric, 12, seed);
        // Compare against brute force for sampled queries and thresholds.
        for q in (0..data.len()).step_by(101) {
            for tau in [spec.tau_max * 0.1, spec.tau_max * 0.4, spec.tau_max] {
                let brute = (0..data.len())
                    .filter(|&p| spec.metric.distance(data.view(q), data.view(p)) <= tau)
                    .count() as u32;
                let (fast, _) = index.range_count_with_stats(&data, data.view(q), tau);
                assert_eq!(fast, brute, "{ds:?} q={q} tau={tau}");
            }
        }
    }

    #[test]
    fn exact_on_hamming_dataset() {
        check_exact(PaperDataset::ImageNet, 21);
    }

    #[test]
    fn exact_on_angular_dataset() {
        check_exact(PaperDataset::GloVe300, 22);
    }

    #[test]
    fn exact_on_jaccard_dataset() {
        check_exact(PaperDataset::Bms, 23);
    }

    #[test]
    fn exact_on_l2_dataset() {
        check_exact(PaperDataset::YouTube, 24);
    }

    #[test]
    fn pruning_actually_happens_for_small_thresholds() {
        let spec = DatasetSpec {
            n_data: 1000,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(25);
        let index = PivotIndex::build(&data, spec.metric, 16, 25);
        let (_, stats) = index.range_count_with_stats(&data, data.view(0), 0.05);
        assert!(
            stats.groups_pruned > 0 || stats.members_pruned > 0,
            "no pruning at a tight threshold: {stats:?}"
        );
        // Distance evaluations must be well below brute force.
        assert!(
            stats.distance_evals < data.len(),
            "index evaluated {} distances for {} points",
            stats.distance_evals,
            data.len()
        );
    }

    #[test]
    fn distance_evals_equal_the_in_window_member_count_exactly() {
        // Regression test for the member-window scan: members are sorted by
        // pivot distance, so everything above `dq + τ` must be pruned by
        // binary search, never iterated. The exact distance evaluations are
        // therefore one per inspected group (the pivot) plus exactly the
        // members whose pivot distance lies inside [dq − τ, dq + τ] for
        // partially-scanned groups — no more.
        let spec = DatasetSpec {
            n_data: 800,
            ..PaperDataset::YouTube.spec()
        };
        let data = spec.generate(27);
        let index = PivotIndex::build(&data, spec.metric, 10, 27);
        for q in (0..data.len()).step_by(97) {
            for tau in [spec.tau_max * 0.1, spec.tau_max * 0.3, spec.tau_max * 0.8] {
                let view = data.view(q);
                let mut expected_evals = 0usize;
                let mut expected_pruned = 0usize;
                for g in &index.groups {
                    let dq = spec.metric.distance(view, data.view(g.pivot));
                    expected_evals += 1; // the pivot itself
                    if dq - g.radius > tau || dq + g.radius <= tau {
                        continue; // pruned or swallowed: no member scan
                    }
                    let in_window = g
                        .members
                        .iter()
                        .filter(|&&(_, d)| d >= dq - tau && d <= dq + tau)
                        .count();
                    expected_evals += in_window;
                    expected_pruned += g.members.len() - in_window;
                }
                let (_, stats) = index.range_count_with_stats(&data, view, tau);
                assert_eq!(
                    stats.distance_evals, expected_evals,
                    "q={q} tau={tau}: scanned members outside the window"
                );
                assert_eq!(
                    stats.members_pruned, expected_pruned,
                    "q={q} tau={tau}: pruned-member accounting is off"
                );
            }
        }
    }

    #[test]
    fn range_search_returns_the_matching_ids() {
        let spec = DatasetSpec {
            n_data: 400,
            ..PaperDataset::GloVe300.spec()
        };
        let data = spec.generate(26);
        let index = PivotIndex::build(&data, spec.metric, 8, 26);
        let tau = spec.tau_max * 0.3;
        let mut got = index.range_search(&data, data.view(5), tau);
        got.sort_unstable();
        let expect: Vec<usize> = (0..data.len())
            .filter(|&p| spec.metric.distance(data.view(5), data.view(p)) <= tau)
            .collect();
        assert_eq!(got, expect);
        // The query itself (distance 0) is always included.
        assert!(got.contains(&5));
    }
}
