// cardest-lint-fixture: path=crates/nn/src/parallel.rs
//! Must-fire fixture: every nondeterminism source the rule bans.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub fn wall_clock_seed() -> u64 {
    let i = Instant::now();
    let m: HashMap<u64, u64> = HashMap::new();
    let s: HashSet<u64> = HashSet::new();
    m.len() as u64 + s.len() as u64
}
