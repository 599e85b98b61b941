//! The workspace's single wall-clock access point.
//!
//! Serving latency, socket deadlines, snapshot-tmp staleness, replication
//! heartbeats, and reconnect deadlines are wall-clock by definition —
//! nothing on the training or recovery path reads them, so the
//! bit-reproducibility contract (`cardest-lint`'s `nondeterminism` rule)
//! is unaffected. Keeping the sanctioned clock reads here makes every
//! other timing site in `cardest-store` and `cardest-server` grep-clean.

use std::time::{Instant, SystemTime};

/// Current monotonic instant (request latency, heartbeats, deadlines,
/// lag timing).
pub fn now() -> Instant {
    // cardest-lint: allow(nondeterminism): serving latency, heartbeats and retry deadlines are wall-clock by definition; no training-path result depends on this
    Instant::now()
}

/// Current wall time (file-mtime staleness comparisons only).
// Stale-tmp sweeping compares file mtimes against wall time; no
// training-path result depends on this.
#[allow(clippy::disallowed_methods)]
pub fn wall() -> SystemTime {
    SystemTime::now()
}
