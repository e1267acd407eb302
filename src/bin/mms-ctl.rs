//! `mms-ctl` — command-line driver for the fault-tolerant multimedia
//! server library.
//!
//! `mms-ctl --help` prints one line per subcommand with the flags it
//! takes; the text, the dispatcher and the argument check are all read
//! off [`COMMANDS`]. Every argument is checked by [`Args`] before
//! anything runs: positionals first and no more than the usage line
//! shows, then only flags the subcommand takes, each valued flag
//! followed by its value. Anything else is an error naming the argument,
//! with the usage on stderr and exit status 2. A value that does not
//! parse, or lies outside the range the command can run with, is an
//! `error:` naming it and exit status 1.
//!
//! Every run-style subcommand (`simulate`, `mttf`, `scenario`,
//! `workload`, `fleet`) shares one [`RunConfig`]: the worker pool
//! (`--threads N|auto|seq`), the step mode (`--fast-forward` selects
//! event-horizon execution — identical results, faster), and the
//! observability flags (`--telemetry`, `--log-level`, `--dash`,
//! `--flight-recorder`, `--flight-capacity`, `--prom-out`,
//! `--perfetto-out`, `--slo`). The config is parsed once per invocation
//! and handed to builders directly (`ServerBuilder::run_config`,
//! `FleetBuilder::run_config`) and to the scenario engine's corpus
//! runner, which `scenario` and `fleet <corpus|list|NAME>` share.
//!
//! The flight recorder arms itself on the first `error`-level record
//! (data loss, check violations); `--flight-recorder` also dumps on a
//! clean run with trigger `requested`. Replay a dump with `mms-ctl
//! trace`.
//!
//! `--threads` is purely a performance knob: every command's output is
//! bit-identical for any setting (see `mms_exec`); this holds with
//! telemetry enabled too, for records at `debug` and below.

use ft_media_server::analysis::{
    design_space_par, table_rows, CostModel, SchemeParams, SystemParams,
};
use ft_media_server::disk::{DiskId, ReliabilityParams};
use ft_media_server::fleet::{fleet_mttds, fleet_mttf, FleetBuilder, FleetEvent};
use ft_media_server::layout::{BandwidthClass, MediaObject, ObjectId};
use ft_media_server::reliability::{formulas, CatastropheRule, MonteCarlo, PoolMarkov};
use ft_media_server::scenario::{self, Case, Corpus};
use ft_media_server::sim::{
    AdmissionPolicy, ArrivalProcess, DataMode, FailureEvent, SessionEngine, SplitMix64,
};
use ft_media_server::telemetry::{FlightSnapshot, Recorder};
use ft_media_server::{synopsis, Args, Parallelism, RunConfig, Scheme, ServerBuilder, ServerError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Bound::{Excluded, Included};
use std::process::ExitCode;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// One subcommand: the dispatcher, the usage text, the argument check
/// and the unknown-subcommand error are all read off [`COMMANDS`].
struct Command {
    name: &'static str,
    /// Positionals as the usage line shows them, one word each.
    positionals: &'static str,
    /// The flags it takes, each followed by its value when it takes one.
    flags: &'static str,
    /// Whether it also takes the [`RunConfig::FLAGS`].
    run_config: bool,
    run: fn(&mut Args) -> CmdResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "table",
        positionals: "[C]",
        flags: "",
        run_config: false,
        run: cmd_table,
    },
    Command {
        name: "simulate",
        positionals: "",
        flags: "--scheme sr|sg|nc|ib --disks N --group C --viewers N --tracks N \
                --fail DISK@CYCLE --repair DISK@CYCLE --rebuild DISK@CYCLE --cycles N",
        run_config: true,
        run: cmd_simulate,
    },
    Command {
        name: "mttf",
        positionals: "<D> <C>",
        flags: "--mc TRIALS",
        run_config: true,
        run: cmd_mttf,
    },
    Command {
        name: "design",
        positionals: "<streams>",
        flags: "--threads N|auto|seq",
        run_config: false,
        run: cmd_design,
    },
    Command {
        name: "scenario",
        positionals: "<name|all|list>",
        flags: "--quick",
        run_config: true,
        run: cmd_scenario,
    },
    Command {
        name: "workload",
        positionals: "",
        flags: "--scheme sr|sg|nc|ib --disks N --group C --movies N --tracks N --cycles N \
                --theta F --rate F --burst Q:B:PIN:POUT --policy reject|degrade|queue \
                --threshold F --quality F --max-wait N --vbr A,B,… --abandon F \
                --fail DISK@CYCLE --seed N",
        run_config: true,
        run: cmd_workload,
    },
    Command {
        name: "fleet",
        positionals: "[corpus|list|<case>]",
        flags: "--quick --nodes N --scheme sr|sg|nc|ib --disks N --group C --movies N \
                --tracks N --cycles N --rate F --theta F --fail-node N@CYCLE \
                --repair-node N@CYCLE --seed N --mttf TRIALS --node-mttf-h H --node-mttr-h H",
        run_config: true,
        run: cmd_fleet,
    },
    Command {
        name: "trace",
        positionals: "<flight.jsonl>",
        flags: "--session ID",
        run_config: false,
        run: cmd_trace,
    },
];

impl Command {
    /// Check `argv` against the table before anything runs.
    fn check(&self, argv: &[String]) -> Result<Args, String> {
        let run_flags = if self.run_config {
            RunConfig::FLAGS
        } else {
            ""
        };
        let args = Args::parse(argv.iter().cloned(), &[self.flags, run_flags])?;
        let most = self.positionals.split_whitespace().count();
        match args.remaining().get(most) {
            Some(extra) => Err(format!(
                "unexpected argument `{extra}`: {} takes at most {most} positional(s)",
                self.name
            )),
            None => Ok(args),
        }
    }
}

/// The usage text: one line per subcommand with its flags.
fn usage() -> String {
    let mut text = String::from("usage: mms-ctl <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        let line = format!("{} {}", c.positionals, synopsis(c.flags));
        text.push_str(&format!("  {:<9} {}\n", c.name, line.trim()));
    }
    text.push_str("  help      print this text (also --help, -h)\n");
    let run_style: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.run_config)
        .map(|c| c.name)
        .collect();
    text.push_str(&format!(
        "\n{} also take:\n  {}\n",
        run_style.join(", "),
        synopsis(RunConfig::FLAGS)
    ));
    text
}

/// Exit status of a command line the table cannot account for.
const USAGE_ERROR: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    if matches!(name, Some("--help" | "-h" | "help")) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let checked = match COMMANDS.iter().find(|c| Some(c.name) == name) {
        Some(command) => command.check(&args[1..]).map(|parsed| (command, parsed)),
        None => Err(match name {
            Some(other) => {
                let known: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
                format!(
                    "unknown subcommand `{other}` (expected one of: {})",
                    known.join(", ")
                )
            }
            None => "missing subcommand".to_string(),
        }),
    };
    let (command, mut args) = match checked {
        Ok(checked) => checked,
        Err(e) => {
            eprint!("error: {e}\n\n{}", usage());
            return ExitCode::from(USAGE_ERROR);
        }
    };
    match (command.run)(&mut args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_table(args: &mut Args) -> CmdResult {
    let c: usize = args.positional("parity group size", 5)?;
    if !(2..=50).contains(&c) {
        return Err("parity group size must be in 2..=50".into());
    }
    let sys = SystemParams::paper_table1();
    println!("metrics at C = {c}, D = {} (Table 1 parameters)\n", sys.d);
    println!(
        "{:<20} {:>9} {:>9} {:>12} {:>14} {:>8} {:>9}",
        "scheme", "stor ovhd", "bw ovhd", "MTTF (yr)", "MTTDS (yr)", "streams", "buffers"
    );
    for row in table_rows(&sys, &SchemeParams::paper_tables(c)) {
        println!(
            "{:<20} {:>8.1}% {:>8.1}% {:>12.1} {:>14.1} {:>8} {:>9}",
            row.scheme.to_string(),
            row.storage_overhead * 100.0,
            row.bandwidth_overhead * 100.0,
            row.mttf_years,
            row.mttds_years,
            row.streams,
            row.buffers_tracks
        );
    }
    Ok(())
}

/// The `UNIT@CYCLE` events given for a repeating `flag`.
fn events(args: &Args, flag: &str, unit: &str) -> Result<Vec<(u32, u64)>, String> {
    args.values(flag)
        .map(|spec| {
            let event = spec.split_once('@');
            event
                .and_then(|(n, at)| Some((n.parse().ok()?, at.parse().ok()?)))
                .ok_or_else(|| format!("`{spec}` is not a valid {flag} {unit}@CYCLE"))
        })
        .collect()
}

/// A Monte-Carlo trial count: absent or 0 turns validation off; one
/// trial has no spread to report, so it is an error rather than a
/// silent skip.
fn trials_flag(args: &Args, flag: &str) -> Result<usize, String> {
    match args.value(flag, 0)? {
        1 => Err(format!("{flag} needs at least 2 trials, got 1")),
        trials => Ok(trials),
    }
}

/// Parse `--scheme` plus the per-scheme default disk count.
fn parse_scheme(args: &Args) -> Result<(Scheme, usize), String> {
    let scheme = match args.get("--scheme").unwrap_or("sr") {
        "sr" => Scheme::StreamingRaid,
        "sg" => Scheme::StaggeredGroup,
        "nc" => Scheme::NonClustered,
        "ib" => Scheme::ImprovedBandwidth,
        other => return Err(format!("unknown scheme '{other}'")),
    };
    let default_disks = if scheme == Scheme::ImprovedBandwidth {
        8
    } else {
        10
    };
    Ok((scheme, default_disks))
}

/// Finite and non-negative: arrival rates and the Zipf exponent.
const NON_NEGATIVE: std::ops::Range<f64> = 0.0..f64::INFINITY;
/// Probabilities.
const PROBABILITY: std::ops::RangeInclusive<f64> = 0.0..=1.0;

fn cmd_simulate(args: &mut Args) -> CmdResult {
    let (scheme, default_disks) = parse_scheme(args)?;
    let disks: usize = args.value("--disks", default_disks)?;
    let group: usize = args.value("--group", 5)?;
    let viewers: usize = args.value("--viewers", 4)?;
    let tracks: u64 = args.value("--tracks", 500)?;
    let cycles: u64 = args.value("--cycles", 0)?;
    let fails = events(args, "--fail", "DISK")?;
    let repairs = events(args, "--repair", "DISK")?;
    let rebuilds = events(args, "--rebuild", "DISK")?;
    let cfg = RunConfig::from_args(args)?;
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);

    let mut server = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(group)
        .object(MediaObject::new(
            ObjectId(0),
            "movie",
            tracks,
            BandwidthClass::Mpeg1,
        ))
        .data_mode(DataMode::Verified { track_bytes: 128 })
        .build()?;
    println!(
        "{} | {} disks, C = {group}, {} slots/disk/cycle, capacity {} streams",
        server.scheme(),
        disks,
        server.cycle_config().slots_per_disk(),
        server.stream_capacity()
    );
    // The events dated this cycle, applied before it is stepped.
    let apply_events = |server: &mut ft_media_server::MultimediaServer| -> CmdResult {
        let t = server.simulator().cycle();
        for &(d, _) in fails.iter().filter(|&&(_, at)| at == t) {
            match server.inject(FailureEvent::fail(t, DiskId(d))) {
                Ok(r) => println!(
                    "cycle {t}: disk {d} FAILED (dropped: {})",
                    r.dropped_streams.len()
                ),
                Err(ServerError::DataLoss { tracks }) => {
                    println!("cycle {t}: disk {d} FAILED — DATA LOSS ({tracks} track(s))");
                }
                Err(e) => return Err(e.into()),
            }
        }
        for &(d, _) in repairs.iter().filter(|&&(_, at)| at == t) {
            server.inject(FailureEvent::repair(t, DiskId(d)))?;
            println!("cycle {t}: disk {d} repaired");
        }
        for &(d, _) in rebuilds.iter().filter(|&&(_, at)| at == t) {
            server.start_parity_rebuild(DiskId(d))?;
            println!("cycle {t}: parity rebuild of disk {d} started");
        }
        Ok(())
    };
    for _ in 0..viewers {
        apply_events(&mut server)?;
        server.admit(ObjectId(0))?;
        server.step()?;
    }

    let horizon = if cycles > 0 { cycles } else { u64::MAX };
    let mut t = server.simulator().cycle();
    while t < horizon && (server.active_streams() > 0 || t < cycles) {
        apply_events(&mut server)?;
        server.step()?;
        t = server.simulator().cycle();
        if cycles == 0 && server.active_streams() == 0 {
            break;
        }
    }

    let m = server.metrics();
    println!("\ncycles simulated   : {}", m.cycles);
    println!("streams finished   : {}", m.streams_finished);
    println!(
        "tracks delivered   : {} (verified {})",
        m.delivered, m.verified
    );
    println!("reconstructed      : {}", m.reconstructed);
    println!(
        "hiccups            : {} (failed-disk {}, displaced {}, mid-cycle {}, DoS {})",
        m.total_hiccups(),
        m.hiccups_failed_disk,
        m.hiccups_displaced,
        m.hiccups_mid_cycle,
        m.service_degradations
    );
    println!("rebuilds completed : {}", m.rebuilds_completed);
    println!("buffer peak        : {} tracks", m.buffer_peak);
    println!("catastrophes       : {}", m.catastrophes);
    if let Some(recorder) = recorder {
        cfg.finish(recorder, scheme.abbrev())?;
    }
    Ok(())
}

fn cmd_mttf(args: &mut Args) -> CmdResult {
    let d: usize = args.positional("disk count", 1000)?;
    let c: usize = args.positional("parity group size", 10)?;
    if d < 5 {
        let why = "the DoS rows mask up to 4 failures";
        return Err(format!("disk count must be at least 5 ({why}), got {d}").into());
    }
    if c < 2 {
        return Err(format!("parity group size must be at least 2, got {c}").into());
    }
    let mc_trials = trials_flag(args, "--mc")?;
    let cfg = RunConfig::from_args(args)?;
    let par = cfg.threads;
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);
    let rel = ReliabilityParams::paper();
    println!("reliability for D = {d}, C = {c} (MTTF 300,000 h, MTTR 1 h)\n");
    println!(
        "first failure anywhere      : {:>12.1} hours",
        formulas::mttf_single_pool(d, rel).as_hours()
    );
    println!(
        "catastrophic, SR/SG/NC      : {:>12.1} years (Eq. 4)",
        formulas::mttf_raid(d, c, rel).as_years()
    );
    println!(
        "catastrophic, IB            : {:>12.1} years (Eq. 5)",
        formulas::mttf_improved(d, c, rel).as_years()
    );
    for k in [1usize, 2, 4] {
        let exact = PoolMarkov::new(d, k, rel).mean_time_to_exhaustion();
        println!(
            "DoS masking {k} failure(s)    : {:>12.3e} years (Eq. 6: {:.3e}; exact chain includes the k! factor)",
            exact.as_years(),
            formulas::mttds_shared(d, k, rel).as_years()
        );
    }
    if mc_trials > 0 {
        println!(
            "\nMonte-Carlo validation: {mc_trials} trials on {} thread(s), seed 1995",
            par.thread_count()
        );
        let mut rng = StdRng::seed_from_u64(1995);
        for (label, rule) in [
            ("SR/SG/NC", CatastropheRule::SameCluster { c }),
            ("IB", CatastropheRule::SameOrAdjacentCluster { c }),
        ] {
            let stats = MonteCarlo { d, rel, rule }.run_par(&mut rng, mc_trials, par);
            println!(
                "measured, {label:<8}          : {:>12.1} ± {:.1} years (95% CI)",
                stats.mean.as_years(),
                stats.ci95().as_years()
            );
        }
    }
    if let Some(recorder) = recorder {
        cfg.finish(recorder, "all")?;
    }
    Ok(())
}

fn cmd_scenario(args: &mut Args) -> CmdResult {
    let quick = args.flag("--quick");
    run_corpus("scenario", scenario::corpus(quick), "all", "all", args)
}

/// `scenario <name|all|list>` and `fleet <corpus|list|NAME>`: list
/// `corpus`, run all of it (`everything`), or run the one case named.
/// `label` tags the run's `health.*` gauges.
fn run_corpus<C: Case>(
    command: &str,
    corpus: Corpus<C>,
    everything: &str,
    label: &str,
    args: &mut Args,
) -> CmdResult {
    let pick: String = args.positional("case name", String::new())?;
    if pick.is_empty() {
        return Err(format!("{command} needs a case name, `{everything}` or `list`").into());
    }
    let cfg = RunConfig::from_args(args)?;
    if pick == "list" {
        print!("{}", corpus.list());
        return Ok(());
    }
    let corpus = if pick == everything {
        corpus
    } else {
        corpus.only(&pick).ok_or_else(|| {
            format!("unknown {command} case '{pick}' (try `mms-ctl {command} list`)")
        })?
    };
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);
    let (text, ok) = corpus.render(&cfg);
    print!("{text}");
    if let Some(recorder) = recorder {
        cfg.finish(recorder, label)?;
    }
    if ok {
        Ok(())
    } else {
        Err(format!("{command} corpus invariants violated").into())
    }
}

fn cmd_design(args: &mut Args) -> CmdResult {
    let required: f64 = args.positional("stream count", 1200.0)?;
    let par = args.value("--threads", Parallelism::Auto)?;
    let sys = SystemParams::paper_table1();
    let model = CostModel::paper_fig9();
    let best = design_space_par(&sys, &model, 2..=10, SchemeParams::paper_fig9, par)
        .into_iter()
        .find(|p| p.streams >= required);
    match best {
        Some(p) => println!(
            "cheapest for {required:.0} streams: {} at C = {} — ${:.0} \
             ({:.1} disks, {:.0} buffer tracks, {:.0} streams)",
            p.scheme, p.c, p.cost, p.disks, p.buffer_tracks, p.streams
        ),
        None => println!("no configuration reaches {required:.0} streams at W = 100 GB"),
    }
    Ok(())
}

fn cmd_workload(args: &mut Args) -> CmdResult {
    let (scheme, default_disks) = parse_scheme(args)?;
    let disks: usize = args.value("--disks", default_disks)?;
    let group: usize = args.value("--group", 5)?;
    let movies: usize = args.value_in("--movies", 8, 1..)?;
    let tracks: u64 = args.value_in("--tracks", 200, 1..)?;
    let cycles: u64 = args.value("--cycles", 1000)?;
    let theta: f64 = args.value_in("--theta", 0.271, NON_NEGATIVE)?;
    let abandon: f64 = args.value_in("--abandon", 0.0, PROBABILITY)?;
    let seed: u64 = args.value("--seed", 1995)?;
    let mut fails = events(args, "--fail", "DISK")?;
    fails.sort_by_key(|&(_, at)| at);
    let cfg = RunConfig::from_args(args)?;

    let arrivals = match args.get("--burst") {
        Some(spec) => {
            let parts: Result<Vec<f64>, _> = spec.split(':').map(str::parse).collect();
            match parts.as_deref() {
                Ok(&[quiet, burst, p_enter, p_exit])
                    if NON_NEGATIVE.contains(&quiet)
                        && NON_NEGATIVE.contains(&burst)
                        && PROBABILITY.contains(&p_enter)
                        && PROBABILITY.contains(&p_exit) =>
                {
                    ArrivalProcess::bursty(quiet, burst, p_enter, p_exit)
                }
                _ => {
                    return Err(format!(
                        "`{spec}` is not a valid --burst QUIET:BURST:P_ENTER:P_EXIT \
                         (rates >= 0, probabilities in [0, 1])"
                    )
                    .into())
                }
            }
        }
        None => ArrivalProcess::poisson(args.value_in("--rate", 2.0, NON_NEGATIVE)?),
    };
    let policy = match args.get("--policy").unwrap_or("reject") {
        "reject" => AdmissionPolicy::Reject,
        "degrade" => AdmissionPolicy::Degrade {
            threshold: args.value_in("--threshold", 0.8, PROBABILITY)?,
            quality: args.value_in("--quality", 0.5, (Excluded(0.0), Included(1.0)))?,
        },
        "queue" => AdmissionPolicy::Queue {
            max_wait: args.value("--max-wait", 10)?,
        },
        other => return Err(format!("unknown policy '{other}' (reject|degrade|queue)").into()),
    };
    let ladder = match args.get("--vbr") {
        Some(spec) => Some(
            spec.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .ok()
                        .filter(|m: &f64| m.is_finite() && *m > 0.0)
                })
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("`{spec}` is not a valid --vbr ladder of positive rungs"))?,
        ),
        None => None,
    };
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);

    let mut builder = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(group)
        .data_mode(DataMode::MetadataOnly)
        .run_config(&cfg);
    for m in 0..movies {
        builder = builder.object(MediaObject::new(
            ObjectId(m as u64),
            format!("movie-{m}"),
            tracks,
            BandwidthClass::Mpeg1,
        ));
    }
    let mut server = builder.build()?;
    // A session's nominal slot-hold time: one read cycle per group,
    // spaced k/k' cycles apart.
    let cyc = server.cycle_config();
    let nominal = tracks.div_ceil(cyc.k as u64) * cyc.read_period() as u64;
    let catalog: Vec<(ObjectId, u64)> = server.objects().iter().map(|&o| (o, nominal)).collect();
    let mut engine = SessionEngine::new(catalog, theta, arrivals, policy).with_abandonment(abandon);
    if let Some(ladder) = ladder {
        engine = engine.with_vbr(ladder);
    }
    println!(
        "{} | {} disks, C = {group}, capacity {} streams, {} movies x {} tracks (~{} cycles/session)",
        server.scheme(),
        disks,
        server.stream_capacity(),
        movies,
        tracks,
        nominal,
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    for &(d, at) in &fails {
        if at >= cycles {
            break;
        }
        server.run_sessions(at - now, &mut engine, &mut rng)?;
        now = at;
        match server.inject(FailureEvent::fail(now, DiskId(d))) {
            Ok(r) => println!(
                "cycle {now}: disk {d} FAILED (dropped: {})",
                r.dropped_streams.len()
            ),
            Err(ServerError::DataLoss { tracks }) => {
                println!("cycle {now}: disk {d} FAILED — DATA LOSS ({tracks} track(s))");
            }
            Err(e) => return Err(e.into()),
        }
    }
    server.run_sessions(cycles - now, &mut engine, &mut rng)?;

    let s = engine.stats();
    println!("\nsessions offered   : {}", s.offered);
    println!(
        "admitted           : {} ({} degraded, {} released early)",
        s.admitted, s.degraded, s.released_early
    );
    println!(
        "denied             : {} rejected, {} balked ({:.2}% blocking)",
        s.rejected,
        s.balked,
        s.blocking_rate() * 100.0
    );
    if s.queued > 0 {
        let p = |q: &ft_media_server::telemetry::P2Quantile| q.value().unwrap_or(0.0);
        println!(
            "queueing           : {} queued, {} still waiting; wait p50/p95/p99 = {:.1}/{:.1}/{:.1} cycles",
            s.queued,
            engine.queue_len(),
            p(&s.wait_p50),
            p(&s.wait_p95),
            p(&s.wait_p99)
        );
    }
    let m = server.metrics();
    println!("\ncycles simulated   : {}", m.cycles);
    println!("active at end      : {}", server.active_streams());
    println!("tracks delivered   : {}", m.delivered);
    println!(
        "hiccups            : {} (delivery rate {:.4})",
        m.total_hiccups(),
        m.delivery_rate()
    );
    println!(
        "disk utilization   : {:.1}%",
        m.utilization(server.cycle_config().t_cyc(), disks) * 100.0
    );
    if let Some(recorder) = recorder {
        cfg.finish(recorder, scheme.abbrev())?;
    }
    Ok(())
}

fn cmd_fleet(args: &mut Args) -> CmdResult {
    if !args.remaining().is_empty() {
        let corpus = ft_media_server::fleet::scenario::corpus(args.flag("--quick"));
        return run_corpus("fleet", corpus, "corpus", "fleet", args);
    }
    let cfg = RunConfig::from_args(args)?;

    // No positional: run a fleet under traffic with scripted node faults.
    let nodes: usize = args.value("--nodes", 4)?;
    let (scheme, default_disks) = parse_scheme(args)?;
    let disks: usize = args.value("--disks", default_disks)?;
    let group: usize = args.value("--group", 5)?;
    let movies: usize = args.value_in("--movies", 8, 1..)?;
    let tracks: u64 = args.value_in("--tracks", 200, 1..)?;
    let cycles: u64 = args.value("--cycles", 400)?;
    let rate: f64 = args.value_in("--rate", 2.0, NON_NEGATIVE)?;
    let theta: f64 = args.value_in("--theta", 0.271, NON_NEGATIVE)?;
    let seed: u64 = args.value("--seed", 1995)?;
    let mttf_trials = trials_flag(args, "--mttf")?;
    let node_fails = events(args, "--fail-node", "N")?;
    let node_repairs = events(args, "--repair-node", "N")?;
    let node_rel = ReliabilityParams {
        mttf: ft_media_server::disk::Time::from_hours(args.value("--node-mttf-h", 100_000.0)?),
        mttr: ft_media_server::disk::Time::from_hours(args.value("--node-mttr-h", 24.0)?),
    };
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);

    let mut fleet = FleetBuilder::new(nodes)
        .scheme(scheme)
        .disks(disks)
        .parity_group(group)
        .catalog(movies, tracks)
        .control_seed(seed)
        .run_config(&cfg)
        .build()?;
    println!(
        "fleet | {nodes} nodes x ({} disks, C = {group}, {}), {} movies x {tracks} tracks, \
         chained declustering + replicated control plane",
        disks,
        scheme.abbrev(),
        movies,
    );
    for &(n, at) in &node_fails {
        fleet.inject(FleetEvent::fail_node(at, n as usize))?;
        println!("scheduled: node {n} fails at cycle {at}");
    }
    for &(n, at) in &node_repairs {
        fleet.inject(FleetEvent::repair_node(at, n as usize))?;
        println!("scheduled: node {n} repaired at cycle {at}");
    }

    let mut rng = SplitMix64::new(seed);
    let report = fleet.run_with_traffic(cycles, rate, theta, &mut rng)?;
    let m = *fleet.metrics();
    let cs = fleet.control_stats();
    println!("\ncycles simulated   : {}", fleet.cycle());
    println!(
        "sessions offered   : {} ({} admitted, {} rejected, {} unavailable)",
        report.offered, report.admitted, report.rejected, report.unavailable
    );
    println!(
        "re-routed          : {} admissions, {} live streams (failovers: {})",
        m.re_routed_admissions, m.re_routed_streams, m.failovers
    );
    println!(
        "failover gap       : max {} cycle(s), {} hiccup-cycle(s) total",
        m.max_failover_gap, m.failover_hiccup_cycles
    );
    println!(
        "node events        : {} failure(s), {} repair(s); stalled streams {}",
        m.node_failures,
        m.node_repairs,
        fleet.stalled_sessions()
    );
    println!(
        "data loss          : {} track(s) in {} event(s)",
        m.tracks_lost, m.data_loss_events
    );
    println!(
        "control plane      : {} decree(s), {} election(s), {} message(s), epoch {}",
        cs.decrees,
        cs.elections,
        cs.messages,
        fleet.control().epoch()
    );

    if mttf_trials > 0 {
        let mut rng = SplitMix64::new(seed);
        let mttf = fleet_mttf(nodes, node_rel, &mut rng, mttf_trials, cfg.threads);
        let mttds = fleet_mttds(nodes, node_rel, &mut rng, mttf_trials, cfg.threads);
        println!(
            "\nfleet MTTF (adjacent pair)  : {:>12.1} h ± {:.1} ({mttf_trials} trials)",
            mttf.mean.as_hours(),
            mttf.ci95().as_hours()
        );
        println!(
            "fleet MTTDS (quorum loss)   : {:>12.1} h ± {:.1}",
            mttds.mean.as_hours(),
            mttds.ci95().as_hours()
        );
    }
    if let Some(recorder) = recorder {
        cfg.finish(recorder, "fleet")?;
    }
    Ok(())
}

fn cmd_trace(args: &mut Args) -> CmdResult {
    let path: String = args.positional("flight dump path", String::new())?;
    if path.is_empty() {
        return Err("usage: mms-ctl trace <flight.jsonl> [--session ID]".into());
    }
    let session = args
        .flag("--session")
        .then(|| args.value("--session", 0u64))
        .transpose()?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap = FlightSnapshot::parse(&text)?;
    println!(
        "flight dump {path}: {} record(s) kept of {} seen (capacity {}), trigger '{}'",
        snap.len,
        snap.recorded,
        snap.capacity,
        snap.trigger.as_deref().unwrap_or("none"),
    );
    let mut shown = 0usize;
    for r in &snap.records {
        if let Some(id) = session {
            if !r.mentions_stream(id) {
                continue;
            }
        }
        shown += 1;
        let mut line = format!(
            "cycle {:>6} seq {:>4}  {:<5} {:<10} {}",
            r.cycle, r.seq, r.level, r.kind, r.name
        );
        for (k, v) in &r.fields {
            line.push_str(&format!("  {k}={v}"));
        }
        println!("{line}");
    }
    match session {
        Some(id) => println!("{shown} record(s) mention stream/session {id}"),
        None => println!("{shown} record(s)"),
    }
    Ok(())
}
