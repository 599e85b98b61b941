//! The serving layer's single wall-clock access point.
//!
//! Latency histograms and socket deadlines are wall-clock by definition —
//! nothing on the training path reads them, so the bit-reproducibility
//! contract (`cardest-lint`'s `nondeterminism` rule) is unaffected. Keeping the one sanctioned `Instant::now()` here
//! makes every other timing site grep-clean.

use std::time::Instant;

/// Current monotonic instant.
pub fn now() -> Instant {
    // cardest-lint: allow(nondeterminism): serving latency and socket deadlines are wall-clock by definition; no training-path result depends on this
    Instant::now()
}
