//! # most-server
//!
//! A hermetic query-serving front-end for the MOST database (Sistla,
//! Wolfson, Chamberlain, Dao: "Modeling and Querying Moving Objects",
//! ICDE 1997).
//!
//! The server fronts a [`most_core::EpochDb`] over plain TCP with a
//! newline-delimited JSON wire protocol (see [`protocol`]).  Clients can:
//!
//! * evaluate FTL queries **instantaneously** (now), as **persistent**
//!   queries (anchored at an origin tick, evaluated over the recorded
//!   history), or register them as **continuous** queries;
//! * **subscribe** to a continuous query and receive incremental answer
//!   deltas pushed as the clock advances or updates arrive;
//! * apply batched [`most_core::UpdateOp`]s and advance the database
//!   clock;
//! * fetch a full database snapshot for session recovery.
//!
//! Architecturally: one acceptor thread feeds a bounded worker pool; each
//! accepted connection becomes a session with its own bounded outbox and a
//! dedicated writer thread.  Request replies are never dropped; pushed
//! delta frames are droppable under backpressure, with the loss reported
//! in-band as a `Lagged` frame so a subscriber knows to re-subscribe.
//! All mutations and their delta fan-out serialise through one lock, so
//! every subscriber observes the same globally-ordered delta sequence a
//! single-threaded replay produces — the invariant the [`load`] harness
//! (experiment E12) checks byte for byte.
//!
//! Everything is `std`-only: no async runtime, no external serde, no
//! crates beyond this workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod protocol;
pub mod server;

pub use client::{
    backoff_delays, connect_with_retry, connect_with_retry_seeded, Client, ClientError,
    ClientResult,
};
pub use protocol::{
    CqDelta, ErrorCode, FeedRecord, FrameError, FrameReader, Request, Response,
};
pub use server::{Server, ServerConfig, ServerStats};
