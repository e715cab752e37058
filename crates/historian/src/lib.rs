//! `tonos-historian` — the storage and query plane for continuous
//! blood-pressure streams.
//!
//! Everything upstream of this crate converts, ships, and observes
//! pressure waveforms; nothing kept them. The historian closes that
//! gap with three layers:
//!
//! * **An append-only segmented store** ([`Historian`]): waveform
//!   records — the exact [`tonos_core::export`] binary session-record
//!   codec the wire and the export path already speak — appended to
//!   fixed-size segment files, each record wrapped in a CRC-protected
//!   envelope keyed by `(device, session, device-clock range)`.
//!   A CRC-journaled index gives O(log n) seek; sealed segments carry
//!   a footer so the index can be rebuilt from the files alone; on
//!   open, crash recovery re-scans the unsealed tail, truncates a torn
//!   record, and loses nothing else.
//! * **Tiered downsampling** ([`tiers`]): background compaction (a
//!   fleet-pool task, [`push_compaction`]) folds tier-0 records into
//!   1:16 and 1:256 pyramids on the existing FIR decimator kernels, so
//!   a month-long recording answers a ranged waveform query in bounded
//!   bytes no matter how long it grew ([`HistorianReader::read_range`]
//!   picks the coarsest tier that fits the caller's point budget).
//! * **A measurement-session service** ([`MeasurementHub`] +
//!   [`MeasurementApi`]): the `prepare → start → poll-status → retry`
//!   lifecycle a frontend polls, served as routes on the shared
//!   std-only [`HttpServer`](tonos_telemetry::http::HttpServer) that
//!   `tonos-scope` also uses, with live readings and ranged waveform reads
//!   answered from the store. The hub implements
//!   [`tonos_link::IngestTap`], so plugging it into
//!   [`LinkServer::bind_with_tap`](tonos_link::LinkServer::bind_with_tap)
//!   journals every accepted link to disk as it streams.
//!
//! ## Concurrency model
//!
//! One writer, any number of readers, no reader-side blocking: the
//! writer appends the record bytes (and the journal entry) first, then
//! publishes a brand-new immutable index snapshot behind an
//! atomic-swap [`Arc`](std::sync::Arc). Readers clone the current
//! snapshot under a pointer-sized critical section and do all their
//! file IO against immutable, already-published offsets — a reader can
//! never observe a partially written record, and ingest never waits
//! for a scan.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod hub;
pub mod store;
pub mod tiers;

pub use api::MeasurementApi;
pub use hub::{HubConfig, MeasurementHub, Reading, SessionState, SessionStatus};
pub use store::{
    push_compaction, CompactReport, FsyncPolicy, Historian, HistorianReader, IndexEntry,
    IndexSnapshot, RangedWave, RecoveryReport, StoreConfig, WavePoint,
};
pub use tiers::{downsample_block, tier_sample_rate, tier_stride, MAX_TIER, TIER_RATIO, WARMUP};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, unique scratch directory under the system temp dir —
/// shared by this crate's tests, benches, and examples (the build
/// environment has no `tempfile` crate). The caller owns cleanup;
/// leaking it on a panicking test is acceptable for scratch space.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tonos-historian-{}-{}-{tag}",
        std::process::id(),
        n
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}
