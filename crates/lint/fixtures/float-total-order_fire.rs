// cardest-lint-fixture: path=crates/data/src/stats.rs
//! Must-fire fixture: exact float equality against a literal.

pub fn is_unit(x: f32) -> bool {
    x == 1.0
}

pub fn nonzero(x: f32) -> bool {
    -0.5 != x
}
