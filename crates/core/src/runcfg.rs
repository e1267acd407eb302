//! Unified run configuration shared by every driver entry point.
//!
//! Every `mms-ctl` subcommand (and any downstream driver) takes the
//! same knobs: a worker pool, a step mode, and the observability
//! surface (JSONL export, dashboard, flight recorder, SLO panel,
//! Prometheus/Perfetto outs). [`RunConfig`] parses them once from the
//! command line and is handed to builders directly —
//! `ServerBuilder::run_config` and the fleet builder both accept it —
//! instead of each subcommand re-threading individual flags.

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
#[derive(Debug, Clone)]
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

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: Parallelism::Auto,
            step_mode: StepMode::CycleByCycle,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// The argument given for `flag` in a raw argument list, `None` when the
/// flag is absent. A flag that ends the list, or is followed by another
/// `--flag`, was given no value: an error naming it, not a default.
pub fn flag_arg<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value)),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// [`flag_arg`], parsed; `default` when the flag is absent.
pub fn flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_arg(args, flag)? {
        Some(value) => value
            .parse()
            .map_err(|_| format!("bad value for {flag}: '{value}'")),
        None => Ok(default),
    }
}

impl RunConfig {
    /// Parse the shared run flags out of a raw argument list,
    /// defaulting everything that is absent. Unrelated flags are
    /// ignored, so subcommands can mix their own flags freely.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let path_flag = |flag| Ok::<_, String>(flag_arg(args, flag)?.map(str::to_string));
        Ok(RunConfig {
            threads: flag_value(args, "--threads", Parallelism::Auto)?,
            step_mode: if args.iter().any(|a| a == "--fast-forward") {
                StepMode::EventHorizon
            } else {
                StepMode::CycleByCycle
            },
            telemetry: TelemetryConfig {
                jsonl: path_flag("--telemetry")?,
                level: flag_value(args, "--log-level", Level::Info)?,
                dash: args.iter().any(|a| a == "--dash"),
                flight: path_flag("--flight-recorder")?,
                flight_capacity: flag_value(args, "--flight-capacity", 4096)?,
                prom: path_flag("--prom-out")?,
                perfetto: path_flag("--perfetto-out")?,
                slo: args.iter().any(|a| a == "--slo"),
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_shared_flags_once() {
        let cfg = RunConfig::from_args(&args(&[
            "--threads",
            "4",
            "--fast-forward",
            "--log-level",
            "debug",
            "--dash",
            "--flight-capacity",
            "64",
        ]))
        .unwrap();
        assert_eq!(cfg.threads, Parallelism::threads(4));
        assert_eq!(cfg.step_mode, StepMode::EventHorizon);
        assert_eq!(cfg.telemetry.level, Level::Debug);
        assert!(cfg.telemetry.dash);
        assert_eq!(cfg.telemetry.flight_capacity, 64);
    }

    #[test]
    fn defaults_without_flags() {
        let cfg = RunConfig::from_args(&[]).unwrap();
        assert_eq!(cfg.threads, Parallelism::Auto);
        assert_eq!(cfg.step_mode, StepMode::CycleByCycle);
        assert!(cfg.recorder().is_none(), "no telemetry flags → untraced");
    }

    #[test]
    fn flight_recorder_raises_collection_floor() {
        let cfg = RunConfig::from_args(&args(&["--flight-recorder", "/tmp/x.jsonl"])).unwrap();
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
