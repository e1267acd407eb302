//! Unified run configuration shared by every driver entry point.
//!
//! Every `mms-ctl` subcommand (and any downstream driver) takes the
//! same knobs: a worker pool, a step mode, and the observability
//! surface (JSONL export, dashboard, flight recorder, SLO panel,
//! Prometheus/Perfetto outs). [`RunConfig`] reads them once from the
//! parsed command line (its flag list is [`RunConfig::FLAGS`], checked
//! by [`Args`]) and is handed to builders directly —
//! `ServerBuilder::run_config` and the fleet builder both accept it —
//! instead of each subcommand re-threading individual flags.

use crate::Args;
use mms_exec::Parallelism;
use mms_sim::StepMode;
use mms_telemetry::{
    dashboard, jsonl, perfetto, prom, FlightRecorder, HealthConfig, HealthModel, Level, Recorder,
};
use std::io::Write;

/// The observability surface of one run (`--telemetry`, `--dash`,
/// `--flight-recorder`, `--prom-out`, `--perfetto-out`, `--slo`, …).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// JSONL export path (`--telemetry PATH`).
    pub jsonl: Option<String>,
    /// Collection level (`--log-level`, default `info`).
    pub level: Level,
    /// Print the ASCII dashboard at the end (`--dash`).
    pub dash: bool,
    /// Flight-recorder dump path (`--flight-recorder PATH`).
    pub flight: Option<String>,
    /// Flight-recorder ring capacity (`--flight-capacity`, default 4096).
    pub flight_capacity: usize,
    /// Prometheus text-format export path (`--prom-out PATH`).
    pub prom: Option<String>,
    /// Chrome/Perfetto trace JSON export path (`--perfetto-out PATH`).
    pub perfetto: Option<String>,
    /// Print the HealthModel SLO panel at the end (`--slo`).
    pub slo: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            jsonl: None,
            level: Level::Info,
            dash: false,
            flight: None,
            flight_capacity: 4096,
            prom: None,
            perfetto: None,
            slo: false,
        }
    }
}

/// One run's complete configuration: worker pool, step mode, and
/// telemetry. Built once per invocation and shared by every
/// subsystem the run touches.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker pool for any fan-out the run performs (`--threads`,
    /// default auto). Purely a performance knob — outputs are
    /// bit-identical for any setting.
    pub threads: Parallelism,
    /// Simulator step mode (`--fast-forward` selects
    /// [`StepMode::EventHorizon`]; observably identical, faster).
    pub step_mode: StepMode,
    /// The observability surface.
    pub telemetry: TelemetryConfig,
}

impl RunConfig {
    /// The flags [`from_args`](Self::from_args) reads, as a flag list
    /// of [`Args`]: every run-style `mms-ctl` subcommand takes them.
    pub const FLAGS: &'static str = "--threads N|auto|seq --fast-forward --telemetry PATH.jsonl \
                                     --log-level error|warn|info|debug|trace --dash \
                                     --flight-recorder PATH --flight-capacity N --prom-out PATH \
                                     --perfetto-out PATH --slo";

    /// Read the run flags out of a parsed command line, defaulting
    /// everything that is absent.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let path = |flag| args.get(flag).map(str::to_string);
        Ok(RunConfig {
            threads: args.value("--threads", Parallelism::Auto)?,
            step_mode: if args.flag("--fast-forward") {
                StepMode::EventHorizon
            } else {
                StepMode::CycleByCycle
            },
            telemetry: TelemetryConfig {
                jsonl: path("--telemetry"),
                level: args.value("--log-level", Level::Info)?,
                dash: args.flag("--dash"),
                flight: path("--flight-recorder"),
                flight_capacity: args.value("--flight-capacity", 4096)?,
                prom: path("--prom-out"),
                perfetto: path("--perfetto-out"),
                slo: args.flag("--slo"),
            },
        })
    }

    /// A recorder when any telemetry output was requested, else run
    /// untraced. Flight recordings and Perfetto traces need the
    /// `Debug` cycle spans for virtual-time stamps, so they raise the
    /// collection floor.
    #[must_use]
    pub fn recorder(&self) -> Option<Recorder> {
        let t = &self.telemetry;
        let any = t.jsonl.is_some()
            || t.dash
            || t.flight.is_some()
            || t.prom.is_some()
            || t.perfetto.is_some()
            || t.slo;
        let level = if t.flight.is_some() || t.perfetto.is_some() {
            t.level.max(Level::Debug)
        } else {
            t.level
        };
        any.then(|| Recorder::new(level))
    }

    /// Export/print whatever the recorder collected, to the sinks this
    /// configuration selected (writes status lines to stdout — this is
    /// the driver-facing end of a run). `scheme` labels the derived
    /// `health.*` gauges ("all" for multi-scheme runs).
    pub fn finish(&self, recorder: Recorder, scheme: &str) -> std::io::Result<()> {
        let t = &self.telemetry;
        let mut events = recorder.take_events();

        if t.slo {
            let mut health = HealthModel::new(HealthConfig::default());
            for event in &events {
                health.observe(event);
            }
            let end = health.cycle();
            health.finish(end);
            recorder.with_registry_mut(|r| health.publish_to(r, scheme));
            events.extend(health.alert_records());
            println!("\n{}", health.panel());
        }

        let snapshot = recorder.snapshot();
        if let Some(path) = &t.flight {
            let mut flight = FlightRecorder::new(t.flight_capacity.max(1));
            for event in &events {
                flight.record(event.clone());
            }
            if !flight.triggered() {
                flight.trigger("requested");
            }
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            flight.dump(&mut out)?;
            out.flush()?;
            println!(
                "\nflight recorder: kept {} of {} record(s), trigger '{}' -> {path}",
                flight.len(),
                flight.recorded(),
                flight.trigger_reason().unwrap_or("none"),
            );
        }
        if let Some(path) = &t.prom {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            prom::write_snapshot(&mut out, &snapshot)?;
            out.flush()?;
            println!("prometheus snapshot -> {path}");
        }
        if let Some(path) = &t.perfetto {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            perfetto::write_trace(&mut out, &events)?;
            out.flush()?;
            println!("perfetto trace: {} event(s) -> {path}", events.len());
        }
        if let Some(path) = &t.jsonl {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            jsonl::write_all(&mut out, &events, &snapshot)?;
            out.flush()?;
            println!(
                "\ntelemetry: {} event(s) + {} metric line(s) -> {path}",
                events.len(),
                snapshot.len()
            );
        }
        if t.dash {
            let dash = dashboard::render(&snapshot);
            if dash.is_empty() {
                println!("\n(no metrics collected — dashboard empty)");
            } else {
                println!("\n{dash}");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_recorder_raises_collection_floor() {
        let mut cfg = RunConfig::default();
        cfg.telemetry.flight = Some("/tmp/x.jsonl".into());
        let rec = cfg.recorder().expect("flight recording implies a recorder");
        {
            let _guard = rec.install();
            mms_telemetry::event!(Level::Debug, "probe_debug_floor");
        }
        assert_eq!(
            rec.event_count(),
            1,
            "flight recording must raise collection to Debug"
        );
    }
}
