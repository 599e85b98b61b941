// cardest-lint-fixture: path=crates/data/src/cache.rs
//! Must-not-fire fixture: well-formed pragmas (known rule + reason).

pub fn f(x: f32) -> bool {
    // cardest-lint: allow(float-total-order): exact zero skip of no-op work
    x == 0.0
}
