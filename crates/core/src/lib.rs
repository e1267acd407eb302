//! # mms-server — fault-tolerant multimedia server
//!
//! The top-level library of this reproduction of *Berson, Golubchik &
//! Muntz, "Fault Tolerant Design of Multimedia Servers" (SIGMOD 1995)*.
//! It assembles the substrate crates into one facade:
//!
//! * [`ServerBuilder`] / [`MultimediaServer`] — configure a parity
//!   scheme, register movies, admit viewers, run delivery cycles, inject
//!   disk failures, and read metrics.
//! * [`AnyScheduler`] — a scheme-erased scheduler so all four schemes
//!   share one server type.
//! * [`RunConfig`] and [`Args`] — the run knobs every driver shares,
//!   and the one command-line parser `mms-ctl`, `repro` and `bench`
//!   check their arguments with.
//! * Re-exports of every substrate (`disk`, `parity`, `layout`,
//!   `sched`, `reliability`, `analysis`, `sim`).
//!
//! ## Quickstart
//!
//! ```
//! use mms_server::{Scheme, ServerBuilder};
//! use mms_server::layout::BandwidthClass;
//!
//! let mut server = ServerBuilder::new(Scheme::StreamingRaid)
//!     .disks(10)
//!     .parity_group(5)
//!     .movie("feature", 1.0, BandwidthClass::Mpeg1) // 1-minute short
//!     .build()
//!     .unwrap();
//!
//! let movie = server.objects()[0];
//! server.admit(movie).unwrap();
//! // One disk dies mid-movie; Streaming RAID masks it completely.
//! use mms_server::sim::FailureEvent;
//! server.inject(FailureEvent::fail(server.cycle(), mms_server::disk::DiskId(2))).unwrap();
//! server.run(40).unwrap();
//! assert_eq!(server.metrics().total_hiccups(), 0);
//! assert!(server.metrics().reconstructed > 0);
//! ```
//!
//! ## Fault injection
//!
//! [`MultimediaServer::inject`] is the single fault-surface entry
//! point, and the [`scenario`] module scripts whole
//! deterministic failure scenarios and runs them as a corpus. All
//! fallible server methods return the unified [`ServerError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod args;
mod builder;
mod error;
mod library;
mod runcfg;
pub mod scenario;
mod server;

pub use any::AnyScheduler;
pub use args::{synopsis, Args};
pub use builder::{BuildError, Scheme, ServerBuilder};
pub use error::ServerError;
pub use library::{Librarian, StagingJob};
pub use runcfg::{RunConfig, TelemetryConfig};
pub use server::MultimediaServer;

/// Deterministic parallel execution ([`mms_exec`]).
pub use mms_exec as exec;
pub use mms_exec::Parallelism;

/// The paper's analytical model ([`mms_analysis`]).
pub use mms_analysis as analysis;
/// Disk substrate ([`mms_disk`]).
pub use mms_disk as disk;
/// Data-layout substrate ([`mms_layout`]).
pub use mms_layout as layout;
/// XOR parity substrate ([`mms_parity`]).
pub use mms_parity as parity;
/// Reliability analysis ([`mms_reliability`]).
pub use mms_reliability as reliability;
/// Scheduling substrate ([`mms_sched`]).
pub use mms_sched as sched;
/// Discrete-event simulation ([`mms_sim`]).
pub use mms_sim as sim;
/// Structured tracing, metrics, and JSONL export ([`mms_telemetry`]).
pub use mms_telemetry as telemetry;
