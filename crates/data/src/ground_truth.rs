//! Exact ground-truth labelling.
//!
//! Training a cardinality estimator needs, per (query, τ) pair, the true
//! `card(q, τ, D)` — and for the global model, the per-segment cardinalities
//! `card^{j}[i]` (§3.3). Both come from the full query-to-data distance
//! table, which Exp-10 calls out as the dominant offline cost ("the
//! construction computes the distances between all pairs of datasets and
//! queries"). The table is computed once per workload, in parallel across
//! queries, and reused for every threshold.

use crate::metric::Metric;
use crate::vector::VectorData;

/// Dense `n_queries × n_data` matrix of exact distances.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    n_queries: usize,
    n_data: usize,
    dists: Vec<f32>,
}

impl DistanceTable {
    /// Computes all pairwise distances between `queries` and `data`,
    /// splitting the query range over the available cores.
    // One core-count read per table build, which is no hot path, and
    // `cardest-data` does not depend on `cardest-nn`'s cached count.
    #[allow(clippy::disallowed_methods)]
    pub fn compute(queries: &VectorData, data: &VectorData, metric: Metric) -> Self {
        let n_queries = queries.len();
        let n_data = data.len();
        let mut dists = vec![0.0f32; n_queries * n_data];
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let chunk = n_queries.div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            for (t, slice) in dists.chunks_mut(chunk * n_data).enumerate() {
                let q0 = t * chunk;
                s.spawn(move || {
                    for (dq, q) in slice.chunks_mut(n_data).zip(q0..) {
                        // One batched scan per query row: kernel dispatch
                        // happens once, then the row loop walks the
                        // contiguous data storage.
                        metric.distance_many_into(queries.view(q), data, dq);
                    }
                });
            }
        });
        DistanceTable {
            n_queries,
            n_data,
            dists,
        }
    }

    pub fn n_queries(&self) -> usize {
        self.n_queries
    }

    pub fn n_data(&self) -> usize {
        self.n_data
    }

    /// Distances from query `q` to every data point.
    #[inline]
    pub fn row(&self, q: usize) -> &[f32] {
        &self.dists[q * self.n_data..(q + 1) * self.n_data]
    }

    /// Exact `card(q, τ)` — the number of data points within `tau`.
    pub fn cardinality(&self, q: usize, tau: f32) -> u32 {
        self.row(q).iter().filter(|&&d| d <= tau).count() as u32
    }

    /// Exact per-segment cardinalities `card^{q}[i]` for the global model's
    /// labels, given each point's segment assignment.
    pub fn segment_cardinalities(
        &self,
        q: usize,
        tau: f32,
        seg_of: &[usize],
        n_segments: usize,
    ) -> Vec<u32> {
        assert_eq!(
            seg_of.len(),
            self.n_data,
            "segment assignment length mismatch"
        );
        let mut counts = vec![0u32; n_segments];
        for (&d, &s) in self.row(q).iter().zip(seg_of) {
            if d <= tau {
                counts[s] += 1;
            }
        }
        counts
    }

    /// A sorted copy of query `q`'s distance row, for selectivity-based
    /// threshold selection (one sort serves all 10 thresholds of a query).
    pub fn sorted_row(&self, q: usize) -> Vec<f32> {
        let mut row = self.row(q).to_vec();
        row.sort_by(|a, b| a.total_cmp(b));
        row
    }

    /// The threshold whose exact selectivity is (at least) `selectivity`,
    /// read off a pre-sorted distance row: the distance of the
    /// `⌈selectivity·n⌉`-th nearest point.
    pub fn tau_at_selectivity(sorted_row: &[f32], selectivity: f32) -> f32 {
        debug_assert!(!sorted_row.is_empty());
        let n = sorted_row.len();
        let k = ((selectivity * n as f32).ceil() as usize).clamp(1, n);
        sorted_row[k - 1]
    }
}

/// Convenience bundle: a distance table plus the metric and τ cap it was
/// built under, so downstream code can re-derive labels consistently.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    pub table: DistanceTable,
    pub metric: Metric,
    pub tau_max: f32,
}

impl GroundTruth {
    pub fn compute(queries: &VectorData, data: &VectorData, metric: Metric, tau_max: f32) -> Self {
        GroundTruth {
            table: DistanceTable::compute(queries, data, metric),
            metric,
            tau_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::DenseData;

    fn line_dataset() -> VectorData {
        // Points at 0.0, 0.1, …, 0.9 on a line (1-d, L1 == |a−b| since the
        // L1 metric normalizes by dim = 1).
        VectorData::Dense(DenseData::from_flat(
            1,
            (0..10).map(|i| i as f32 / 10.0).collect(),
        ))
    }

    #[test]
    fn cardinality_counts_exactly() {
        let data = line_dataset();
        let queries = data.gather(&[0]); // query at 0.0
        let t = DistanceTable::compute(&queries, &data, Metric::L1);
        assert_eq!(t.cardinality(0, 0.0), 1);
        assert_eq!(t.cardinality(0, 0.35), 4); // 0.0, 0.1, 0.2, 0.3
        assert_eq!(t.cardinality(0, 1.0), 10);
    }

    #[test]
    fn segment_cardinalities_partition_the_total() {
        let data = line_dataset();
        let queries = data.gather(&[0, 5]);
        let t = DistanceTable::compute(&queries, &data, Metric::L1);
        let seg_of: Vec<usize> = (0..10).map(|i| i / 5).collect(); // two halves
        for q in 0..2 {
            for tau in [0.1f32, 0.3, 0.7] {
                let segs = t.segment_cardinalities(q, tau, &seg_of, 2);
                assert_eq!(segs.iter().sum::<u32>(), t.cardinality(q, tau));
            }
        }
    }

    #[test]
    fn tau_at_selectivity_hits_requested_rank() {
        let data = line_dataset();
        let queries = data.gather(&[0]);
        let t = DistanceTable::compute(&queries, &data, Metric::L1);
        let sorted = t.sorted_row(0);
        // 30% of 10 points → 3rd nearest → distance 0.2.
        let tau = DistanceTable::tau_at_selectivity(&sorted, 0.3);
        assert!((tau - 0.2).abs() < 1e-6);
        assert!(t.cardinality(0, tau) >= 3);
        // Selectivity 0 still returns the nearest point's distance.
        let tau0 = DistanceTable::tau_at_selectivity(&sorted, 0.0);
        assert!((tau0 - 0.0).abs() < 1e-6);
    }

    #[test]
    fn rows_match_direct_metric_evaluation() {
        let data = line_dataset();
        let queries = data.gather(&[3, 7]);
        let t = DistanceTable::compute(&queries, &data, Metric::L1);
        for (qi, &src) in [3usize, 7].iter().enumerate() {
            for p in 0..data.len() {
                let expect = Metric::L1.distance(data.view(src), data.view(p));
                assert!((t.row(qi)[p] - expect).abs() < 1e-7);
            }
        }
    }
}
