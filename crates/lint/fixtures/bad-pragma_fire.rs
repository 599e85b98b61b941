// cardest-lint-fixture: path=crates/data/src/cache.rs
//! Must-fire fixture: malformed suppression pragmas.

pub fn f(x: f32) -> f32 {
    // cardest-lint: allow(float-total-order)
    let a = if x == 0.0 { 1.0 } else { x };
    // cardest-lint: allow(no-such-rule): reason present but rule unknown
    let b = a + 1.0;
    // cardest-lint: deny(float-total-order): wrong verb
    a + b
}
