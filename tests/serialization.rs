//! Serde round-trips of the persistent artifacts: datasets, workload
//! samples, segmentations and network layers. The paper's deployment story
//! (train in PyTorch, copy parameters into a C++ engine) maps here to
//! serde round-trips that must preserve behaviour exactly.

use cardest::cluster::segmentation::{Segmentation, SegmentationConfig, SegmentationMethod};
use cardest::prelude::*;

#[test]
fn vector_data_roundtrips_both_layouts() {
    let spec = DatasetSpec {
        n_data: 120,
        ..PaperDataset::ImageNet.spec()
    };
    let binary = spec.generate(1);
    let json = serde_json::to_string(&binary).expect("serialize binary");
    let back: VectorData = serde_json::from_str(&json).expect("deserialize binary");
    assert_eq!(binary, back);

    let spec = DatasetSpec {
        n_data: 80,
        ..PaperDataset::GloVe300.spec()
    };
    let dense = spec.generate(2);
    let json = serde_json::to_string(&dense).expect("serialize dense");
    let back: VectorData = serde_json::from_str(&json).expect("deserialize dense");
    assert_eq!(dense, back);
}

#[test]
fn workload_samples_roundtrip() {
    let spec = DatasetSpec {
        n_data: 300,
        n_train_queries: 20,
        n_test_queries: 5,
        ..PaperDataset::ImageNet.spec()
    };
    let data = spec.generate(3);
    let w = SearchWorkload::build(&data, &spec, 3);
    let json = serde_json::to_string(&w.train).expect("serialize samples");
    let back: Vec<SearchSample> = serde_json::from_str(&json).expect("deserialize samples");
    assert_eq!(w.train, back);

    let j = JoinWorkload::build(&w, 5, 2, 3);
    let json = serde_json::to_string(&j.train).expect("serialize join sets");
    let back: Vec<JoinSet> = serde_json::from_str(&json).expect("deserialize join sets");
    assert_eq!(j.train, back);
}

#[test]
fn segmentation_roundtrip_preserves_routing() {
    let spec = DatasetSpec {
        n_data: 400,
        ..PaperDataset::ImageNet.spec()
    };
    let data = spec.generate(4);
    let seg = Segmentation::fit(
        &data,
        spec.metric,
        &SegmentationConfig {
            n_segments: 6,
            method: SegmentationMethod::PcaKMeans,
            seed: 4,
            ..Default::default()
        },
    );
    let json = serde_json::to_string(&seg).expect("serialize segmentation");
    let back: Segmentation = serde_json::from_str(&json).expect("deserialize segmentation");
    assert_eq!(seg.assignment(), back.assignment());
    for i in (0..data.len()).step_by(37) {
        assert_eq!(
            seg.nearest_segment(data.view(i)),
            back.nearest_segment(data.view(i))
        );
        assert_eq!(
            seg.centroid_distances(data.view(i)),
            back.centroid_distances(data.view(i))
        );
    }
}

#[test]
fn metric_and_spec_roundtrip() {
    for spec in paper_datasets() {
        let json = serde_json::to_string(&spec).expect("serialize spec");
        let back: DatasetSpec = serde_json::from_str(&json).expect("deserialize spec");
        assert_eq!(spec.metric, back.metric);
        assert_eq!(spec.dim, back.dim);
        assert_eq!(spec.tau_max, back.tau_max);
    }
}

#[test]
fn layers_save_no_gradient_accumulators_and_decode_them_sized() {
    use cardest::nn::layers::{Conv1d, ConvSpec, Dense, Layer, PoolOp};
    use cardest::nn::{Activation, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(6);
    let spec = ConvSpec {
        out_channels: 2,
        kernel: 3,
        stride: 1,
        padding: 1,
        pool_size: 2,
        pool: PoolOp::Max,
    };
    let layers = [
        Layer::Dense(Dense::new(&mut rng, 6, 4, Activation::Relu)),
        Layer::Conv1d(Conv1d::new(&mut rng, 2, 3, spec, Activation::Tanh)),
    ];
    for layer in layers {
        let json = serde_json::to_string(&layer).expect("serialize layer");
        assert!(
            !json.contains("\"gw\"") && !json.contains("\"gb\""),
            "{json}"
        );
        // A file written before the accumulators were dropped still loads:
        // the fields are ignored, whatever they hold.
        let (variant, fields) = json.split_at(json.find(":{").expect("a variant map") + 2);
        let old = format!("{variant}\"gw\":[0.0],\"gb\":[0.0],{fields}");
        for text in [json.as_str(), old.as_str()] {
            let mut back: Layer = serde_json::from_str(text).expect("deserialize layer");
            // Every accumulator is sized like its parameter, so backward
            // accumulates into all of it.
            for p in back.params_mut() {
                assert_eq!(p.grads.len(), p.values.len());
            }
            let x = Matrix::from_vec(2, 6, (0..12).map(|i| i as f32 / 12.0 - 0.3).collect());
            let y = back.forward(&x);
            back.backward(&y);
            assert!(back
                .params_mut()
                .iter()
                .any(|p| p.grads.iter().any(|g| *g != 0.0)));
        }
        // Parameters that do not fill the declared shape, or a geometry
        // whose widths overflow, are decode errors rather than panics.
        for (field, bad) in [
            ("\"out_dim\":4", "\"out_dim\":5"),
            ("\"padding\":1", "\"padding\":9223372036854775807"),
            ("\"pool_size\":2", "\"pool_size\":0"),
        ] {
            if json.contains(field) {
                let broken = json.replace(field, bad);
                assert!(serde_json::from_str::<Layer>(&broken).is_err(), "{broken}");
            }
        }
    }
}

#[test]
fn trained_layers_roundtrip_with_fresh_caches() {
    use cardest::nn::layers::{Dense, Layer};
    use cardest::nn::{Activation, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(5);
    let mut layer = Layer::Dense(Dense::new(&mut rng, 6, 4, Activation::Relu));
    let x = Matrix::from_row(&[0.1, -0.2, 0.3, 0.4, -0.5, 0.6]);
    let y_before = layer.forward(&x);
    // Round-trip mid-life: caches are skipped, parameters preserved.
    let json = serde_json::to_string(&layer).expect("serialize layer");
    let mut back: Layer = serde_json::from_str(&json).expect("deserialize layer");
    let y_after = back.forward(&x);
    assert_eq!(y_before, y_after);
}
