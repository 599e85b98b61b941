// cardest-lint-fixture: path=crates/data/src/stats.rs
//! Must-not-fire fixture: tolerance compares, exact equality in tests,
//! and a justified exact-zero allow.

pub fn close(x: f32, y: f32) -> bool {
    (x - y).abs() < 1e-6
}

pub fn skip_zero(x: f32) -> bool {
    // cardest-lint: allow(float-total-order): exact zero skip of no-op work
    x == 0.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn exact_equality_in_tests_is_allowed() {
        assert!(2.0f32 + 2.0 == 4.0);
    }
}
