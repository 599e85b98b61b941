//! Per-segment training labels for the global-local framework.
//!
//! Phase 1 of the §3.3 training trains one local regressor per segment on
//! `card^{j}[i]` — query `j`'s cardinality restricted to segment `i` — and
//! phase 2 trains the global model on the binary selection labels
//! `R^{j}[i] = 1{card^{j}[i] > 0}` with the min-max cardinality weights
//! `ε^{j}[i]`. All three matrices come from one pass over the exact
//! distance table and are cached here. Data updates patch the cached
//! cardinalities in place ([`SegmentLabels::patch`]), and fine-tuning
//! (§5.3) trains on the patched labels through training's own code.

use cardest_cluster::segmentation::Segmentation;
use cardest_data::ground_truth::DistanceTable;
use cardest_data::workload::SearchSample;
use serde::{Deserialize, Error, Serialize, Value};

/// Per-(sample, segment) cardinality labels for a fixed segmentation.
/// Serializes as `{"n_segments": n, "bits": "…"}`, the cardinalities as a
/// bit string ([`serde::f32_bits`]).
#[derive(Debug, Clone)]
pub struct SegmentLabels {
    n_segments: usize,
    /// `cards[sample * n_segments + segment]`.
    cards: Vec<f32>,
}

impl Serialize for SegmentLabels {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("n_segments".to_string(), self.n_segments.serialize()),
            ("bits".to_string(), serde::f32_bits(&self.cards)),
        ])
    }
}

impl Deserialize for SegmentLabels {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let map = v.expect_map("SegmentLabels")?;
        let n_segments: usize = serde::get_field(map, "n_segments", "SegmentLabels")?;
        let cards = serde::f32s_from_bits(serde::get_str_field(map, "bits", "SegmentLabels")?)
            .map_err(|e| Error::msg(format!("SegmentLabels {e}")))?;
        // Whole rows only; with no segments, no values.
        if cards.len().checked_rem(n_segments).unwrap_or(cards.len()) != 0 {
            return Err(Error::msg(format!(
                "SegmentLabels bits hold {} values, not whole rows of {n_segments}",
                cards.len()
            )));
        }
        Ok(SegmentLabels { n_segments, cards })
    }
}

impl SegmentLabels {
    /// Computes `card^{j}[i]` for every training sample and segment.
    pub fn compute(
        table: &DistanceTable,
        samples: &[SearchSample],
        segmentation: &Segmentation,
    ) -> Self {
        let n_segments = segmentation.n_segments();
        let mut cards = Vec::with_capacity(samples.len() * n_segments);
        for s in samples {
            let seg_cards =
                table.segment_cardinalities(s.query, s.tau, segmentation.assignment(), n_segments);
            debug_assert_eq!(
                seg_cards.iter().sum::<u32>() as f32,
                s.card,
                "segment cardinalities must partition the total"
            );
            cards.extend(seg_cards.into_iter().map(|c| c as f32));
        }
        SegmentLabels { n_segments, cards }
    }

    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    pub fn n_samples(&self) -> usize {
        self.cards.len() / self.n_segments.max(1)
    }

    /// The per-segment cardinalities of sample `j`.
    #[inline]
    pub fn row(&self, j: usize) -> &[f32] {
        &self.cards[j * self.n_segments..(j + 1) * self.n_segments]
    }

    /// `card^{j}[i]`.
    #[inline]
    pub fn card(&self, j: usize, segment: usize) -> f32 {
        self.cards[j * self.n_segments + segment]
    }

    /// Binary selection label `R^{j}[i]`.
    #[inline]
    pub fn selected(&self, j: usize, segment: usize) -> bool {
        self.card(j, segment) > 0.0
    }

    /// Min-max-normalized weights `ε^{j}` for sample `j` (§3.3).
    pub fn minmax_weights(&self, j: usize) -> Vec<f32> {
        cardest_nn::loss::minmax_weights(self.row(j))
    }

    /// Adds `delta` to `card^{j}[segment]`, clamped at zero: one point of
    /// `segment` entering (+1) or leaving (−1) sample `j`'s query ball.
    pub(crate) fn patch(&mut self, j: usize, segment: usize, delta: f32) {
        let c = &mut self.cards[j * self.n_segments + segment];
        *c = (*c + delta).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_cluster::segmentation::{SegmentationConfig, SegmentationMethod};
    use cardest_data::paper::{DatasetSpec, PaperDataset};
    use cardest_data::workload::SearchWorkload;

    fn setup() -> (SearchWorkload, Segmentation) {
        let spec = DatasetSpec {
            n_data: 500,
            n_train_queries: 20,
            n_test_queries: 5,
            ..PaperDataset::ImageNet.spec()
        };
        let data = spec.generate(71);
        let w = SearchWorkload::build(&data, &spec, 71);
        let seg = Segmentation::fit(
            &data,
            spec.metric,
            &SegmentationConfig {
                n_segments: 6,
                pca_rank: 4,
                pca_iters: 6,
                method: SegmentationMethod::PcaKMeans,
                seed: 71,
            },
        );
        (w, seg)
    }

    #[test]
    fn rows_partition_the_total_cardinality() {
        let (w, seg) = setup();
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        assert_eq!(labels.n_samples(), w.train.len());
        for (j, s) in w.train.iter().enumerate() {
            let total: f32 = labels.row(j).iter().sum();
            assert_eq!(total, s.card, "sample {j}");
        }
    }

    #[test]
    fn selection_labels_match_positivity() {
        let (w, seg) = setup();
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        for j in 0..labels.n_samples() {
            for i in 0..labels.n_segments() {
                assert_eq!(labels.selected(j, i), labels.card(j, i) > 0.0);
            }
        }
    }

    #[test]
    fn json_round_trips_every_bit_pattern() {
        // Signed zeros, subnormals, infinities and NaNs with distinct
        // payloads come back bit for bit.
        let bits = [
            0x0000_0000u32,
            0x8000_0000,
            0x0000_0001,
            0x807f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_1234,
            0xffa0_0001,
            0x7f80_0001,
            0x4120_0000,
        ];
        let labels = SegmentLabels {
            n_segments: 5,
            cards: bits.map(f32::from_bits).to_vec(),
        };
        let json = serde_json::to_string(&labels).unwrap();
        assert!(
            json.starts_with(r#"{"n_segments":5,"bits":"000000008000000000000001"#),
            "{json}"
        );
        let back: SegmentLabels = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_samples(), 2);
        let got: Vec<u32> = back.cards.iter().map(|c| c.to_bits()).collect();
        assert_eq!(got, bits);
        let empty: SegmentLabels = serde_json::from_str(r#"{"n_segments":0,"bits":""}"#).unwrap();
        assert_eq!(empty.n_samples(), 0);
    }

    #[test]
    fn json_decode_errors_are_typed() {
        for (doc, msg) in [
            (
                r#"{"n_segments":2,"bits":"3f800000"}"#,
                "SegmentLabels bits hold 1 values, not whole rows of 2",
            ),
            (
                r#"{"n_segments":0,"bits":"3f800000"}"#,
                "SegmentLabels bits hold 1 values, not whole rows of 0",
            ),
            (
                r#"{"n_segments":1,"bits":"3f80000"}"#,
                "SegmentLabels bits hold 7 bytes, not a multiple of 8",
            ),
            (
                r#"{"n_segments":1,"bits":"3f80000x"}"#,
                "SegmentLabels bits: value 0 holds a byte 0x78",
            ),
            (
                r#"{"n_segments":1,"cards":[1.0]}"#,
                "missing field `bits` for SegmentLabels",
            ),
        ] {
            let err = serde_json::from_str::<SegmentLabels>(doc).expect_err(doc);
            assert!(err.to_string().contains(msg), "{doc}: {err}");
        }
    }

    #[test]
    fn weights_are_minmax_normalized() {
        let (w, seg) = setup();
        let labels = SegmentLabels::compute(&w.table, &w.train, &seg);
        for j in 0..labels.n_samples().min(50) {
            let ws = labels.minmax_weights(j);
            assert!(ws.iter().all(|w| (0.0..=1.0).contains(w)));
            let row = labels.row(j);
            let spread = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
                - row.iter().cloned().fold(f32::INFINITY, f32::min);
            if spread > 0.0 {
                assert!(ws.contains(&1.0), "max-cardinality segment gets weight 1");
                assert!(ws.contains(&0.0));
            }
        }
    }
}
