//! # mms-telemetry — the workspace's flight recorder
//!
//! A zero-external-dependency observability substrate shared by every
//! layer of the server, from the disk model up to the CLI:
//!
//! * **Metrics registry** — [`Registry`] holds counters, gauges, and
//!   fixed-bucket [`Histogram`]s keyed by static name plus a sorted
//!   label set ([`Labels`]): scheme, cluster, disk, mode, …
//! * **Tracing** — [`span!`] and [`event!`] macros with [`Level`]s
//!   dispatch to the one collector, a [`Recorder`], on top of a
//!   thread-local stack. With no recorder installed (the default)
//!   every macro is a single thread-local flag check.
//! * **Streaming quantiles** — [`P2Quantile`], the O(1)-memory P²
//!   estimator, so long runs report latency/stall percentiles without
//!   per-event sample vectors.
//! * **Exporters** — JSON-lines emission of events and metrics
//!   ([`jsonl`]), Prometheus text exposition ([`prom`]) and an ASCII
//!   [`dashboard`] renderer in the style of `mms_sim::trace`, each
//!   reading a [`Registry`] (a recorder's copy is
//!   [`Recorder::snapshot`]), plus Chrome/Perfetto trace JSON of the
//!   event stream ([`perfetto`]).
//! * **Forensics** — the [`flight`] dump, a view of a run's record: its
//!   newest events with deterministic virtual-time stamps, written as
//!   replayable JSONL and armed by the first data loss or check
//!   violation, and read back by [`FlightSnapshot::parse`].
//! * **Health** — [`HealthModel`], the `--slo` panel: a view of a run's
//!   record (Σ `sim.cycles`, `sim.hiccups`, `sim.degraded_cluster_cycles`
//!   and the `Error`-level records) with the stall-budget burn, the same
//!   at any collection level.
//!
//! ## Determinism contract
//!
//! The workspace's parallel layer (`mms-exec`) runs every job under its
//! own [`Recorder`] and merges the captured events and metrics **in job
//! index order** ([`dispatch_absorb`]). Everything recorded at
//! [`Level::Debug`] or above is therefore bit-identical for any thread
//! count, exactly like the results themselves. Scheduling-dependent
//! diagnostics (wall-clock timings, per-worker queue depths) are
//! confined to [`Level::Trace`] and documented as non-deterministic.
//!
//! ## Quickstart
//!
//! ```
//! use mms_telemetry::{event, span, counter, Level, Recorder};
//!
//! let recorder = Recorder::new(Level::Debug);
//! {
//!     let _guard = recorder.install();
//!     let _cycle = span!(Level::Debug, "cycle", cycle = 0u64);
//!     event!(Level::Info, "disk_failure", disk = 2u64);
//!     counter!("sim.delivered", 5, scheme = "SR");
//! }
//! let metrics = recorder.snapshot();
//! assert_eq!(metrics.counter_total("sim.delivered"), 5);
//! let mut out = Vec::new();
//! mms_telemetry::jsonl::write_all(&mut out, &recorder.take_events(), &metrics).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("\"disk_failure\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
mod event;
pub mod flight;
mod health;
pub(crate) mod json;
pub mod jsonl;
mod macros;
pub mod perfetto;
pub mod prom;
mod quantile;
mod recorder;
mod registry;

pub use event::{EventKind, EventRecord, SpanGuard, Value};
pub use flight::{FlightSnapshot, OwnedRecord, ParseFlightError};
pub use health::HealthModel;
pub use quantile::{P2Quantile, QuantileSet};
pub use recorder::{
    active, current_max_level, dispatch_absorb, dispatch_counter, dispatch_event, dispatch_gauge,
    dispatch_histogram, dispatch_quantile, enabled, CollectorGuard, Recorder,
};
pub use registry::{Histogram, LabelValue, Labels, MetricKey, Registry, DEFAULT_BOUNDS};

use std::fmt;
use std::str::FromStr;

/// Severity / verbosity of an event or span, least verbose first.
///
/// A collector with `max_level = Info` sees `Error`, `Warn`, and `Info`
/// records and filters out `Debug` and `Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Unrecoverable conditions (catastrophic failures).
    Error,
    /// Service-affecting conditions (hiccups, disk failures).
    Warn,
    /// Mode transitions, rebuild completions, batch summaries.
    Info,
    /// Per-cycle spans and per-trial events. Still deterministic.
    Debug,
    /// Scheduling-dependent diagnostics: wall-clock timings, per-worker
    /// stats. **Not** deterministic across thread counts.
    Trace,
}

impl Level {
    /// The level's lowercase name, as used in JSONL output and CLI flags.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing a [`Level`] out of a CLI flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLevelError(String);

impl fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid level {:?}: expected error|warn|info|debug|trace",
            self.0
        )
    }
}

impl std::error::Error for ParseLevelError {}

impl FromStr for Level {
    type Err = ParseLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            _ => Err(ParseLevelError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_is_verbosity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn level_parses_cli_spellings() {
        assert_eq!("info".parse(), Ok(Level::Info));
        assert_eq!("WARN".parse(), Ok(Level::Warn));
        assert_eq!(" trace ".parse(), Ok(Level::Trace));
        assert!("loud".parse::<Level>().is_err());
        assert_eq!(Level::Debug.to_string(), "debug");
    }

    #[test]
    fn level_round_trips_through_as_str() {
        for level in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(level.as_str().parse::<Level>(), Ok(level));
            assert_eq!(level.to_string().parse::<Level>(), Ok(level));
        }
    }

    #[test]
    fn parse_level_error_reports_the_offending_string() {
        let err = "LOUD ".parse::<Level>().expect_err("must not parse");
        let message = err.to_string();
        assert!(message.contains("\"LOUD \""), "{message}");
        assert!(message.contains("expected error|warn|info|debug|trace"));
    }
}
