//! `most-hist` — the trajectory history warehouse.
//!
//! The MOST model (PAPER.md) answers questions about the present and
//! near future; this crate grows the system along the *time axis* by
//! turning the update stream into a queryable past:
//!
//! * [`HistoryStore`] / [`HistoryRecorder`] — piecewise-linear motion
//!   histories recorded at the epoch-publish boundary, with
//!   bounded-memory segment retention and `ToJson` snapshot
//!   save/restore.  Recording attaches to the one engine type,
//!   [`most_core::ShardedDb`] (a single database is its one-shard
//!   instance; [`most_core::DurableDb`] logs in front of one), through
//!   the publish-observer hook — no new engine locks.
//! * [`alibi_intervals`] / [`alibi_oracle`] — the **alibi query**
//!   ("could objects *a* and *b* have met?") as an exact space-time
//!   prism (bead) intersection, returning meet-possible tick intervals,
//!   plus the brute-force time-stepped oracle it is tested against.
//! * [`WindowedAggregates`] — warehouse aggregates
//!   (distinct-objects-per-region-per-window, top-k busiest regions)
//!   maintained incrementally per recorded batch, never recomputed.
//!
//! Observability: the `hist.records` / `hist.segments` / `hist.pruned` /
//! `hist.alibi_queries` / `hist.aggregate_refreshes` counters and the
//! `hist.alibi_nanos` latency histogram ride the `most-obs` registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod alibi;
pub mod store;

pub use aggregate::{RegionCount, WindowedAggregates};
pub use alibi::{alibi_intervals, alibi_oracle, bead_pair_meets, Sample};
pub use store::{HistoryConfig, HistoryRecorder, HistoryStore, ObjectHistory};
