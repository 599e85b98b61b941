// cardest-lint-fixture: path=crates/nn/src/parallel.rs
//! Must-not-fire fixture: seeded RNGs, ordered containers, and test-only
//! clocks are all fine.

use std::collections::BTreeMap;

pub fn seeded(seed: u64) -> u64 {
    let rng = StdRng::seed_from_u64(seed);
    let m: BTreeMap<u64, u64> = BTreeMap::new();
    // Banned names inside strings and comments never fire: Instant::now,
    // HashMap.
    let s = "Instant::now() HashMap";
    m.len() as u64 + s.len() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_allowed() {
        let _ = std::time::Instant::now();
    }
}
