//! The reference benchmark: six VoD/fleet workloads measured from outside
//! the workspace crates, through their public functions only.
//!
//! `mms-benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints one JSON object as its last line. Without
//! `--workload` every workload runs, each in a fresh process. See
//! `benchmark/README.md` for the workloads, the metrics and their bounds.

// The workspace's clippy.toml bans wall clocks for the deterministic crates;
// measuring wall-clock time is what this crate is for.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod compare;
mod digest;
mod json;
mod spans;
mod spec;
mod stats;
mod workloads;

use json::{obj, Json};
use spans::Tracer;
use spec::{END_TO_END, PER_LAYER};
use stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{fleet, Layers, Pass, Workload, CATALOG};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: mms-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                     [--quick] [--out FILE] [--spans FILE]
       mms-benchmark --compare BASE.json[,BASE2.json…] NEW.json[,NEW2.json…]

  --workload NAME  run one workload in this process (default: all six, each
                   in a fresh process)
  --seed N         workload seed (default 1995)
  --seconds S      repeat the workload for S seconds (default 10)
  --trace [0|1]    also run the traced passes and report per-layer metrics
  --quick          an eighth of the cycles, one repetition, every check on
  --out FILE       write the full result as JSON
  --spans FILE     with --trace: write the recorded spans, one per line
                   (all workloads: FILE gains a .NAME suffix)
  --compare A B    judge result files B against A; several files per side
                   are comma-separated";

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

enum Action {
    Run(Options),
    Compare(Vec<PathBuf>, Vec<PathBuf>),
    Help,
}

fn parse_args(args: &[String]) -> Result<Action, String> {
    let mut opts = Options {
        workload: None,
        seed: 1995,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: None,
        spans: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(Action::Help),
            "--workload" => opts.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                opts.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                opts.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or("--seconds needs a number from 0 to 3600")?;
            }
            "--trace" => {
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value(&mut i, "--out")?.into()),
            "--spans" => opts.spans = Some(value(&mut i, "--spans")?.into()),
            "--compare" => {
                let files = |list: String| list.split(',').map(PathBuf::from).collect();
                let base = files(value(&mut i, "--compare")?);
                let new = files(value(&mut i, "--compare")?);
                return Ok(Action::Compare(base, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some(name) = &opts.workload {
        if !CATALOG.iter().any(|(n, _)| n == name) {
            let names: Vec<&str> = CATALOG.iter().map(|&(n, _)| n).collect();
            return Err(format!(
                "unknown workload {name:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(Action::Run(opts))
}

/// High-water resident set of this process, in MB (10⁶ bytes).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// One workload's result: what the gate line and the result file carry.
struct Outcome {
    name: &'static str,
    why: &'static str,
    workload: Workload,
    passes: Vec<Pass>,
    /// `(name, value)` of every end-to-end metric defined on the workload.
    end_to_end: Vec<(&'static str, f64)>,
    layers: Option<Layers>,
    violations: Vec<String>,
}

fn end_to_end_value(name: &str, first: &Pass, setup_s: f64, wall_s: f64) -> f64 {
    let sim = &first.sim;
    match name {
        "setup_s" => setup_s,
        "wall_s" => wall_s,
        "sessions_per_s" => sim.offered as f64 / wall_s,
        "cycles_per_s" => sim.cycles as f64 / wall_s,
        "tracks_per_s" => sim.tracks as f64 / wall_s,
        "verified_mb_per_s" => sim.verified_bytes as f64 / 1e6 / wall_s,
        "peak_rss_mb" => peak_rss_mb(),
        "allocs_per_kcycle" => first.allocs as f64 * 1000.0 / sim.cycles.max(1) as f64,
        "blocking_rate" => sim.blocking_rate(),
        "stall_rate" => sim.stall_rate(),
        "wait_p95_cycles" => sim.wait_p95_cycles,
        "failover_gap_max_cycles" => sim.failover_gap_max_cycles as f64,
        "tracks_lost" => sim.tracks_lost as f64,
        other => unreachable!("{other} is not in the end-to-end table"),
    }
}

fn run_workload(opts: &Options, name: &'static str, why: &'static str) -> Outcome {
    let workload =
        Workload::named(name, opts.quick).expect("the catalog names only known workloads");
    let mut violations = Vec::new();

    // Untraced repetitions of the same simulated work until the time is up.
    // A traced run spends a third of it here, for the baseline the traced
    // passes are compared with.
    let (budget_s, least) = match (opts.quick, opts.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (opts.seconds / 3.0, 3),
        (false, false) => (opts.seconds, 3),
    };
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < least || started.elapsed().as_secs_f64() < budget_s {
        passes.push(workload.run(opts.seed));
    }
    let first = &passes[0];
    let single_thread = !matches!(workload, Workload::FleetSharded(_));
    if passes
        .iter()
        .any(|p| p.sim != first.sim || (single_thread && p.allocs != first.allocs))
    {
        violations.push(
            "repetitions of the same seed disagree: the simulation is not deterministic".into(),
        );
    }
    violations.extend(first.sim.violations.iter().cloned());
    if let Workload::FleetSharded(spec) = &workload {
        if fleet::sharded_serial_pass(spec, opts.seed).sim != first.sim {
            violations.push(format!(
                "the sharded report differs between 1 and {} threads",
                fleet::host_threads()
            ));
        }
    }

    let setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let wall_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());

    // End-to-end metrics are taken with tracing off: `peak_rss_mb` in
    // particular is read before the traced passes fill memory with spans.
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.applies_to(name))
        .map(|m| (m.name, end_to_end_value(m.name, first, setup_s, wall_s)))
        .collect();

    let layers = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let mut layers = Layers::new();
        let driven = workload.trace(opts.seed, wall_s, &mut tracer, &mut layers);
        if driven.sim != first.sim {
            violations.push(format!(
                "the driven pass simulated something else: digest {:016x}, untraced {:016x}",
                driven.sim.digest, first.sim.digest
            ));
        }
        // `fleet-sharded` drives its nodes on one thread and reports the
        // overhead against its own one-thread pass.
        layers
            .entry("trace.overhead_pct".into())
            .or_insert((driven.wall_s - wall_s) / wall_s * 100.0);
        layers.insert("session.offered".into(), first.sim.offered as f64);
        layers.insert("disk.reads".into(), first.sim.disk_reads as f64);
        layers.insert("disk.utilization".into(), first.sim.disk_utilization);
        if let Some(path) = &opts.spans {
            if let Err(e) = write_spans(&tracer, name, path) {
                violations.push(format!("writing spans to {}: {e}", path.display()));
            }
        }
        layers
    });

    Outcome {
        name,
        why,
        workload,
        passes,
        end_to_end,
        layers,
        violations,
    }
}

fn write_spans(tracer: &Tracer, workload: &str, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(workload, &mut out)?;
    out.flush()
}

impl Outcome {
    /// Any failed correctness check refuses the whole result.
    fn check(&self) -> Result<(), String> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", self.name, self.violations.join("; ")))
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Every metric by name with its unit, for a person to read.
    fn print_table(&self) {
        let sim = &self.passes[0].sim;
        println!("== {} — {}", self.name, self.why);
        println!(
            "   {} repetitions, {} operations, {} refused or stalled, sim_digest {:016x}",
            self.passes.len(),
            sim.operations,
            sim.failures,
            sim.digest
        );
        for m in END_TO_END.iter().filter(|m| m.applies_to(self.name)) {
            println!(
                "   {:<28} {:>16.6} {:<7} {} ({} is better)",
                m.name,
                self.value(m.name),
                m.unit,
                m.kind.as_str(),
                m.better.as_str()
            );
        }
        for part in &self.passes[0].parts {
            println!(
                "   part {:<5} {:>10.4} s {:>12.0} cycles/s {:>14.0} tracks/s",
                part.tag,
                part.wall_s,
                part.cycles as f64 / part.wall_s,
                part.tracks as f64 / part.wall_s
            );
        }
        if let Some(layers) = &self.layers {
            for l in PER_LAYER.iter().filter(|l| layers.contains_key(l.name)) {
                println!(
                    "   layer {:<34} {:>16.4} {:<6} ({} is better)",
                    l.name,
                    layers[l.name],
                    l.unit,
                    l.better.as_str()
                );
            }
        }
    }

    /// The one line the gate reads: `end_to_end` metrics untraced,
    /// `per_layer` metrics traced.
    fn gate_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ])
        };
        let metrics: Vec<(String, Json)> = match &self.layers {
            None => END_TO_END
                .iter()
                .filter(|m| m.gated)
                .map(|m| (m.name.to_owned(), metric(self.value(m.name), m.unit)))
                .collect(),
            Some(layers) => END_TO_END
                .iter()
                .filter(|m| !m.gated)
                .map(|m| (m.name, self.value(m.name), m.unit))
                .chain(
                    PER_LAYER
                        .iter()
                        .map(|l| (l.name, layers.get(l.name).copied().unwrap_or(0.0), l.unit)),
                )
                .map(|(name, value, unit)| (name.to_owned(), metric(value, unit)))
                .collect(),
        };
        let sim = &self.passes[0].sim;
        obj([
            ("correct", Json::Bool(self.violations.is_empty())),
            ("attempted", Json::Num(sim.operations.max(1) as f64)),
            ("failed", Json::Num(sim.broken as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// The workload's entry in a result file.
    fn to_json(&self) -> Json {
        let sim = &self.passes[0].sim;
        let series =
            |f: fn(&Pass) -> f64| Json::Arr(self.passes.iter().map(|p| Json::Num(f(p))).collect());
        let metrics = END_TO_END
            .iter()
            .filter(|m| m.applies_to(self.name))
            .map(|m| {
                (
                    m.name,
                    obj([
                        ("value", Json::Num(self.value(m.name))),
                        ("unit", Json::Str(m.unit.into())),
                        ("kind", Json::Str(m.kind.as_str().into())),
                        ("better", Json::Str(m.better.as_str().into())),
                        ("bound", Json::Num(m.bound)),
                    ]),
                )
            });
        let parts = self.passes[0].parts.iter().map(|p| {
            (
                p.tag,
                obj([
                    ("wall_s", Json::Num(p.wall_s)),
                    ("cycles", Json::Num(p.cycles as f64)),
                    ("tracks", Json::Num(p.tracks as f64)),
                ]),
            )
        });
        let mut fields = vec![
            ("why", Json::Str(self.why.into())),
            (
                "sizes",
                obj(self
                    .workload
                    .sizes()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))),
            ),
            ("repetitions", Json::Num(self.passes.len() as f64)),
            ("operations", Json::Num(sim.operations as f64)),
            ("failures", Json::Num(sim.failures as f64)),
            ("sim_digest", Json::Str(format!("{:016x}", sim.digest))),
            ("metrics", obj(metrics)),
            ("parts", obj(parts)),
            (
                "runs",
                obj([
                    ("setup_s", series(|p| p.setup_s)),
                    ("wall_s", series(|p| p.wall_s)),
                ]),
            ),
        ];
        if let Some(layers) = &self.layers {
            let layers = PER_LAYER.iter().filter_map(|l| {
                let value = *layers.get(l.name)?;
                Some((
                    l.name,
                    obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(l.unit.into())),
                    ]),
                ))
            });
            fields.push(("layers", obj(layers)));
        }
        obj(fields)
    }
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result was produced.
fn envelope(opts: &Options) -> Vec<(&'static str, Json)> {
    vec![
        ("schema", Json::Num(1.0)),
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("host_cores", Json::Num(fleet::host_threads() as f64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("quick", Json::Bool(opts.quick)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        (
            "kinds",
            obj([
                (
                    "host",
                    Json::Str("wall-clock or memory of the simulator: noisy".into()),
                ),
                (
                    "sim",
                    Json::Str("statistic of the modelled server: exact for a seed".into()),
                ),
                (
                    "count",
                    Json::Str("count made by the benchmark: exact for a seed".into()),
                ),
            ]),
        ),
    ]
}

fn write_result(path: &Path, opts: &Options, workloads: Vec<(String, Json)>) -> Result<(), String> {
    let mut fields: Vec<(String, Json)> = envelope(opts)
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    fields.push(("workloads".into(), Json::Obj(workloads)));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, Json::Obj(fields).pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload in this process.
fn run_one(opts: &Options, name: &str) -> Result<(), String> {
    let &(name, why) = CATALOG
        .iter()
        .find(|(n, _)| *n == name)
        .expect("parse_args checked the name");
    let outcome = run_workload(opts, name, why);
    outcome.check()?;
    outcome.print_table();
    if let Some(path) = &opts.out {
        write_result(path, opts, vec![(name.to_owned(), outcome.to_json())])?;
    }
    println!("{}", outcome.gate_line());
    Ok(())
}

/// `path` with `.suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_owned();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// Run every workload, each in a fresh process, and merge their results.
fn run_all(opts: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut merged = Vec::new();
    for (name, _) in CATALOG {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.quick {
            child.arg("--quick");
        }
        let part = opts.out.as_deref().map(|out| with_suffix(out, name));
        if let Some(part) = &part {
            child.arg("--out").arg(part);
        }
        if let Some(spans) = &opts.spans {
            child.arg("--spans").arg(with_suffix(spans, name));
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} failed ({status})"));
        }
        if let Some(part) = &part {
            let text = std::fs::read_to_string(part)
                .map_err(|e| format!("reading {}: {e}", part.display()))?;
            let doc = Json::parse(&text)?;
            merged.extend(
                doc.get("workloads")
                    .map(|w| w.fields().to_vec())
                    .unwrap_or_default(),
            );
            std::fs::remove_file(part).map_err(|e| format!("removing {}: {e}", part.display()))?;
        }
    }
    if let Some(path) = &opts.out {
        write_result(path, opts, merged)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn load(paths: &[PathBuf]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Action::Help) => {
            println!("{USAGE}");
            Ok(())
        }
        Ok(Action::Compare(base, new)) => load(&base).and_then(|base| {
            let (rows, sim_changed) = compare::compare(&base, &load(&new)?);
            if compare::report(&rows, &sim_changed) {
                Err("at least one metric regressed beyond its bound".into())
            } else {
                Ok(())
            }
        }),
        Ok(Action::Run(opts)) => match opts.workload.clone() {
            Some(name) => run_one(&opts, &name),
            None => run_all(&opts),
        },
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mms-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_server::sim::AdmissionPolicy;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn options(line: &str) -> Options {
        match parse_args(&args(line)) {
            Ok(Action::Run(opts)) => opts,
            _ => panic!("{line:?} should parse as a run"),
        }
    }

    #[test]
    fn the_gate_command_line_parses() {
        let o = options("--workload vod-churn --seed 42 --seconds 10 --trace 0");
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("vod-churn"), 42, 10.0, false)
        );
        assert!(options("--workload vod-churn --trace 1").trace);
        let o = options("--trace --quick --out r.json");
        assert!(o.trace && o.quick && o.workload.is_none() && o.seed == 1995);
        assert_eq!(o.out.as_deref(), Some(Path::new("r.json")));
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for bad in [
            "--workload nope",
            "--seed minus-one",
            "--seconds -3",
            "--seconds nan",
            "--out",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
        match parse_args(&args("--compare a.json,b.json c.json")) {
            Ok(Action::Compare(base, new)) => assert_eq!((base.len(), new.len()), (2, 1)),
            _ => panic!("--compare takes two comma-separated lists"),
        }
    }

    #[test]
    fn part_files_sit_beside_the_result() {
        assert_eq!(
            with_suffix(Path::new("out/r.json"), "vod-churn"),
            Path::new("out/r.json.vod-churn")
        );
    }

    /// A small `vod-churn`, run for real, wrapped as the main loop would.
    fn outcome(layers: Option<Layers>) -> Outcome {
        let workload = Workload::Session(workloads::session::Spec {
            titles: 4,
            tracks: 40,
            load: 0.9,
            cycles: 200,
            bursty: false,
            policy: AdmissionPolicy::Reject,
            fail_disk: None,
        });
        let pass = workload.run(11);
        let end_to_end = END_TO_END
            .iter()
            .filter(|m| m.applies_to("vod-churn"))
            .map(|m| {
                (
                    m.name,
                    end_to_end_value(m.name, &pass, pass.setup_s, pass.wall_s),
                )
            })
            .collect();
        Outcome {
            name: "vod-churn",
            why: "test",
            workload,
            passes: vec![pass],
            end_to_end,
            layers,
            violations: Vec::new(),
        }
    }

    #[test]
    fn the_gate_line_has_exactly_the_contract_keys_and_metrics() {
        let untraced = outcome(None);
        let line = Json::parse(&untraced.gate_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "wall_s",
                "cycles_per_s",
                "tracks_per_s",
                "peak_rss_mb"
            ]
        );
        for (name, metric) in line.get("metrics").unwrap().fields() {
            assert!(
                metric.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name} is never 0"
            );
            assert!(metric.get("unit").and_then(Json::as_str).is_some());
        }

        let traced = outcome(Some(Layers::from([("shadow.match".to_owned(), 1.0)])));
        let line = Json::parse(&traced.gate_line()).unwrap();
        let metrics = line.get("metrics").unwrap().fields();
        assert_eq!(
            metrics.len(),
            END_TO_END.iter().filter(|m| !m.gated).count() + PER_LAYER.len()
        );
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("shadow.match")
                .unwrap()
                .get("value"),
            Some(&Json::Num(1.0))
        );
        assert!(line.get("metrics").unwrap().get("wall_s").is_none());
    }

    #[test]
    fn a_violation_refuses_the_result() {
        let mut broken = outcome(None);
        assert_eq!(broken.check(), Ok(()));
        broken
            .violations
            .push("sr: 2 hiccups where none may occur".into());
        assert_eq!(
            broken.check(),
            Err("vod-churn: sr: 2 hiccups where none may occur".into())
        );
        assert_eq!(
            Json::parse(&broken.gate_line()).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn result_entries_carry_sizes_digest_and_every_defined_metric() {
        let entry = outcome(None).to_json();
        assert_eq!(
            entry.get("sizes").unwrap().get("cycles_per_scheme"),
            Some(&Json::Num(200.0))
        );
        assert_eq!(
            entry.get("sim_digest").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        let metrics = entry.get("metrics").unwrap();
        assert!(
            metrics.get("blocking_rate").is_some() && metrics.get("verified_mb_per_s").is_none()
        );
        assert_eq!(
            metrics
                .get("wall_s")
                .unwrap()
                .get("kind")
                .and_then(Json::as_str),
            Some("host")
        );
        assert!(entry.get("layers").is_none());
    }
}
