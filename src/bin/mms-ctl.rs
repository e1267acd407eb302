//! `mms-ctl` — command-line driver for the fault-tolerant multimedia
//! server library.
//!
//! ```text
//! mms-ctl table <C>                          the Table 2/3 metrics at any C
//! mms-ctl simulate [options]                 run a failure scenario
//!   --scheme sr|sg|nc|ib   (default sr)
//!   --disks N              (default 10; IB default 8)
//!   --group C              (default 5)
//!   --viewers N            (default 4)
//!   --tracks N             (default 500)
//!   --fail DISK@CYCLE      (repeatable)
//!   --repair DISK@CYCLE    (repeatable)
//!   --rebuild DISK@CYCLE   (repeatable; parity rebuild)
//!   --cycles N             (default: run until streams finish)
//! mms-ctl mttf <D> <C> [options]             reliability summary
//!   --mc TRIALS            Monte-Carlo validation of Eqs. 4-5 (default off; at least 2)
//!   --threads N|auto|seq   worker pool for the trials (default auto)
//! mms-ctl design <streams> [options]         cheapest feasible design
//!   --threads N|auto|seq   worker pool for the sweep (default auto)
//! mms-ctl scenario <name|all|list> [options]  run the fault-injection corpus
//!   --quick                shorten the stochastic soak (CI smoke mode)
//!   --threads N|auto|seq   worker pool for the scheme fan-out (default auto)
//!   --fast-forward         event-horizon execution (identical reports, faster)
//! mms-ctl workload [options]                 heavy-traffic session engine
//!   --scheme sr|sg|nc|ib   (default sr)
//!   --disks N              (default 10; IB default 8)
//!   --group C              (default 5)
//!   --movies N             catalog size (default 8)
//!   --tracks N             tracks per movie (default 200)
//!   --cycles N             (default 1000)
//!   --theta F              Zipf skew (default 0.271, the video-store fit)
//!   --rate F               Poisson arrivals per cycle (default 2.0)
//!   --burst Q:B:PIN:POUT   MMPP instead: quiet/burst rates + switch probs
//!   --policy P             reject|degrade|queue (default reject)
//!   --threshold F          degrade above this utilization (default 0.8)
//!   --quality F            degraded duration multiplier (default 0.5)
//!   --max-wait N           queue patience in cycles (default 10)
//!   --vbr A,B,…            bitrate-ladder hold multipliers
//!   --abandon F            viewer abandonment probability (default 0)
//!   --fail DISK@CYCLE      (repeatable; run degraded)
//!   --seed N               (default 1995)
//!   --fast-forward         event-horizon execution (identical results, faster)
//! mms-ctl fleet [corpus|list|<case>] [options]  sharded multi-node tier
//!   (no positional: run a fleet under traffic with scripted node faults)
//!   --nodes N              fleet size (default 4)
//!   --scheme sr|sg|nc|ib   per-node scheme (default sr)
//!   --disks N              per-node disks (default 10; IB default 8)
//!   --group C              (default 5)
//!   --movies N             global catalog size (default 8)
//!   --tracks N             tracks per movie (default 200)
//!   --cycles N             (default 400)
//!   --rate F               Poisson arrivals per cycle (default 2.0)
//!   --theta F              Zipf skew (default 0.271)
//!   --fail-node N@CYCLE    (repeatable; whole-node failure)
//!   --repair-node N@CYCLE  (repeatable; node returns, catalog re-syncs)
//!   --seed N               (default 1995)
//!   --mttf TRIALS          Monte-Carlo fleet MTTF/MTTDS (default off; at least 2)
//!   --node-mttf-h H        node MTTF hours for --mttf (default 100000)
//!   --node-mttr-h H        node MTTR hours for --mttf (default 24)
//!   corpus [--quick]       run the fleet fault corpus (nonzero exit on violation)
//!   list                   list the fleet corpus cases
//! mms-ctl trace <flight.jsonl> [options]     walk a flight-recorder dump
//!   --session ID           only records mentioning this stream/session
//! ```
//!
//! Every run-style subcommand (`simulate`, `mttf`, `scenario`,
//! `workload`, `fleet`) shares one [`RunConfig`]: the worker pool
//! (`--threads N|auto|seq`), the step mode (`--fast-forward` selects
//! event-horizon execution — identical results, faster), and the
//! observability flags:
//!
//! ```text
//!   --telemetry PATH.jsonl export events + final metric snapshot as JSONL
//!   --log-level LEVEL      error|warn|info|debug|trace (default info)
//!   --dash                 print the ASCII metrics dashboard at the end
//!   --flight-recorder PATH dump the newest events as a replayable black box
//!   --flight-capacity N    flight-recorder ring size (default 4096)
//!   --prom-out PATH        write the metric snapshot in Prometheus text format
//!   --perfetto-out PATH    write the event stream as Chrome/Perfetto trace JSON
//!   --slo                  print the HealthModel SLO panel at the end
//! ```
//!
//! The config is parsed once per invocation and handed to builders
//! directly (`ServerBuilder::run_config`, `FleetBuilder::run_config`).
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
use ft_media_server::scenario;
use ft_media_server::sim::{
    AdmissionPolicy, ArrivalProcess, DataMode, FailureEvent, SessionEngine, SplitMix64, StepMode,
};
use ft_media_server::telemetry::{FlightSnapshot, Recorder};
use ft_media_server::{flag_arg, flag_value, RunConfig, Scheme, ServerBuilder, ServerError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// One subcommand: the dispatcher, the usage text and the
/// unknown-subcommand error are all read off [`COMMANDS`].
struct Command {
    name: &'static str,
    /// Positionals and flags, as shown on the command's usage line.
    synopsis: &'static str,
    run: fn(&[String]) -> CmdResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "table",
        synopsis: "[C]",
        run: cmd_table,
    },
    Command {
        name: "simulate",
        synopsis:
            "[--scheme sr|sg|nc|ib] [--disks N] [--group C] [--viewers N] [--tracks N] \
                   [--fail DISK@CYCLE]… [--repair DISK@CYCLE]… [--rebuild DISK@CYCLE]… [--cycles N]",
        run: cmd_simulate,
    },
    Command {
        name: "mttf",
        synopsis: "<D> <C> [--mc TRIALS]",
        run: cmd_mttf,
    },
    Command {
        name: "design",
        synopsis: "<streams> [--threads N|auto|seq]",
        run: cmd_design,
    },
    Command {
        name: "scenario",
        synopsis: "<name|all|list> [--quick]",
        run: cmd_scenario,
    },
    Command {
        name: "workload",
        synopsis: "[--scheme sr|sg|nc|ib] [--disks N] [--group C] [--movies N] [--tracks N] \
                   [--cycles N] [--theta F] [--rate F] [--burst Q:B:PIN:POUT] \
                   [--policy reject|degrade|queue] [--threshold F] [--quality F] [--max-wait N] \
                   [--vbr A,B,…] [--abandon F] [--fail DISK@CYCLE]… [--seed N]",
        run: cmd_workload,
    },
    Command {
        name: "fleet",
        synopsis: "[corpus [--quick]|list|<case>] [--nodes N] [--scheme sr|sg|nc|ib] [--disks N] \
                   [--group C] [--movies N] [--tracks N] [--cycles N] [--rate F] [--theta F] \
                   [--fail-node N@CYCLE]… [--repair-node N@CYCLE]… [--seed N] [--mttf TRIALS] \
                   [--node-mttf-h H] [--node-mttr-h H]",
        run: cmd_fleet,
    },
    Command {
        name: "trace",
        synopsis: "<flight.jsonl> [--session ID]",
        run: cmd_trace,
    },
];

/// Flags every run-style subcommand accepts (see [`RunConfig`]).
const RUN_FLAGS: &str = "[--threads N|auto|seq] [--fast-forward] [--telemetry PATH.jsonl] \
                         [--log-level error|warn|info|debug|trace] [--dash] [--flight-recorder PATH] \
                         [--flight-capacity N] [--prom-out PATH] [--perfetto-out PATH] [--slo]";

/// The usage text: one line per subcommand with its flags.
fn usage() -> String {
    let mut text = String::from("usage: mms-ctl <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        text.push_str(&format!("  {:<9} {}\n", c.name, c.synopsis));
    }
    text.push_str("  help      print this text (also --help, -h)\n");
    text.push_str(&format!(
        "\nsimulate, mttf, scenario, workload and fleet also take:\n  {RUN_FLAGS}\n"
    ));
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str);
    if matches!(name, Some("--help" | "-h" | "help")) {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| Some(c.name) == name) else {
        match name {
            Some(other) => {
                let known: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
                eprintln!(
                    "error: unknown subcommand `{other}` (expected one of: {})\n",
                    known.join(", ")
                );
            }
            None => eprintln!("error: missing subcommand\n"),
        }
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    match (command.run)(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_table(args: &[String]) -> CmdResult {
    let c: usize = args.first().map_or(Ok(5), |s| s.parse())?;
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

fn parse_events(args: &[String], flag: &str) -> Result<Vec<(u32, u64)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let spec = it
                .next()
                .ok_or_else(|| format!("{flag} needs DISK@CYCLE"))?;
            let (d, c) = spec
                .split_once('@')
                .ok_or_else(|| format!("bad {flag} spec '{spec}': want DISK@CYCLE"))?;
            out.push((
                d.parse().map_err(|_| format!("bad disk '{d}'"))?,
                c.parse().map_err(|_| format!("bad cycle '{c}'"))?,
            ));
        }
    }
    Ok(out)
}

/// A Monte-Carlo trial count: absent or 0 turns validation off; one
/// trial has no spread to report, so it is an error rather than a
/// silent skip.
fn trials_flag(args: &[String], flag: &str) -> Result<usize, String> {
    match flag_value(args, flag, 0)? {
        1 => Err(format!("{flag} needs at least 2 trials, got 1")),
        trials => Ok(trials),
    }
}

/// Parse `--scheme` plus the per-scheme default disk count.
fn parse_scheme(args: &[String]) -> Result<(Scheme, usize), String> {
    let scheme = match flag_value(args, "--scheme", "sr".to_string())?.as_str() {
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

fn cmd_simulate(args: &[String]) -> CmdResult {
    let (scheme, default_disks) = parse_scheme(args)?;
    let disks: usize = flag_value(args, "--disks", default_disks)?;
    let group: usize = flag_value(args, "--group", 5)?;
    let viewers: usize = flag_value(args, "--viewers", 4)?;
    let tracks: u64 = flag_value(args, "--tracks", 500)?;
    let cycles: u64 = flag_value(args, "--cycles", 0)?;
    let fails = parse_events(args, "--fail")?;
    let repairs = parse_events(args, "--repair")?;
    let rebuilds = parse_events(args, "--rebuild")?;
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
    for _ in 0..viewers {
        server.admit(ObjectId(0))?;
        server.step()?;
    }

    let horizon = if cycles > 0 { cycles } else { u64::MAX };
    let mut t = server.simulator().cycle();
    while t < horizon && (server.active_streams() > 0 || t < cycles) {
        for &(d, at) in &fails {
            if at == t {
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
        }
        for &(d, at) in &repairs {
            if at == t {
                server.inject(FailureEvent::repair(t, DiskId(d)))?;
                println!("cycle {t}: disk {d} repaired");
            }
        }
        for &(d, at) in &rebuilds {
            if at == t {
                server.start_parity_rebuild(DiskId(d))?;
                println!("cycle {t}: parity rebuild of disk {d} started");
            }
        }
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

fn cmd_mttf(args: &[String]) -> CmdResult {
    let pos: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let d: usize = pos.first().map_or(Ok(1000), |s| s.parse())?;
    let c: usize = pos.get(1).map_or(Ok(10), |s| s.parse())?;
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

fn cmd_scenario(args: &[String]) -> CmdResult {
    let name = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or("usage: mms-ctl scenario <name|all|list> [--quick] [--threads N|auto|seq]")?;
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = RunConfig::from_args(args)?;
    if name == "list" {
        for case in scenario::corpus(quick) {
            println!("{:<26} {}", case.scenario.name, case.scenario.summary);
        }
        return Ok(());
    }
    let only = (name != "all").then_some(name.as_str());
    if only.is_some() && scenario::find(&name, quick).is_none() {
        return Err(format!("unknown scenario '{name}' (try `mms-ctl scenario list`)").into());
    }
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);
    let fast_forward = cfg.step_mode == StepMode::EventHorizon;
    let (text, ok) = scenario::run_corpus_rendered(cfg.threads, quick, only, fast_forward);
    print!("{text}");
    if let Some(recorder) = recorder {
        cfg.finish(recorder, "all")?;
    }
    if ok {
        Ok(())
    } else {
        Err("scenario invariants violated".into())
    }
}

fn cmd_design(args: &[String]) -> CmdResult {
    let pos: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let required: f64 = pos.first().map_or(Ok(1200.0), |s| s.parse())?;
    let par = RunConfig::from_args(args)?.threads;
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

fn cmd_workload(args: &[String]) -> CmdResult {
    let (scheme, default_disks) = parse_scheme(args)?;
    let disks: usize = flag_value(args, "--disks", default_disks)?;
    let group: usize = flag_value(args, "--group", 5)?;
    let movies: usize = flag_value(args, "--movies", 8)?;
    let tracks: u64 = flag_value(args, "--tracks", 200)?;
    let cycles: u64 = flag_value(args, "--cycles", 1000)?;
    let theta: f64 = flag_value(args, "--theta", 0.271)?;
    let abandon: f64 = flag_value(args, "--abandon", 0.0)?;
    let seed: u64 = flag_value(args, "--seed", 1995)?;
    let mut fails = parse_events(args, "--fail")?;
    fails.sort_by_key(|&(_, at)| at);
    let cfg = RunConfig::from_args(args)?;
    let recorder = cfg.recorder();
    let _guard = recorder.as_ref().map(Recorder::install);

    let arrivals = match flag_arg(args, "--burst")? {
        Some(spec) => {
            let parts: Result<Vec<f64>, _> = spec.split(':').map(str::parse).collect();
            match parts.as_deref() {
                Ok([quiet, burst, p_enter, p_exit]) => {
                    ArrivalProcess::bursty(*quiet, *burst, *p_enter, *p_exit)
                }
                _ => {
                    return Err(format!(
                        "bad --burst spec '{spec}': want QUIET:BURST:P_ENTER:P_EXIT"
                    )
                    .into())
                }
            }
        }
        None => ArrivalProcess::poisson(flag_value(args, "--rate", 2.0)?),
    };
    let policy = match flag_value(args, "--policy", "reject".to_string())?.as_str() {
        "reject" => AdmissionPolicy::Reject,
        "degrade" => AdmissionPolicy::Degrade {
            threshold: flag_value(args, "--threshold", 0.8)?,
            quality: flag_value(args, "--quality", 0.5)?,
        },
        "queue" => AdmissionPolicy::Queue {
            max_wait: flag_value(args, "--max-wait", 10)?,
        },
        other => return Err(format!("unknown policy '{other}' (reject|degrade|queue)").into()),
    };

    let mut builder = ServerBuilder::new(scheme)
        .disks(disks)
        .parity_group(group)
        .data_mode(DataMode::MetadataOnly)
        .run_config(&cfg);
    for m in 0..movies.max(1) {
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
    if let Some(spec) = flag_arg(args, "--vbr")? {
        let ladder: Vec<f64> = spec
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad --vbr ladder '{spec}'"))?;
        engine = engine.with_vbr(ladder);
    }
    println!(
        "{} | {} disks, C = {group}, capacity {} streams, {} movies x {} tracks (~{} cycles/session)",
        server.scheme(),
        disks,
        server.stream_capacity(),
        movies.max(1),
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

fn cmd_fleet(args: &[String]) -> CmdResult {
    let sub = args.first().filter(|a| !a.starts_with("--")).cloned();
    let quick = args.iter().any(|a| a == "--quick");
    let cfg = RunConfig::from_args(args)?;
    match sub.as_deref() {
        Some("list") => {
            for case in ft_media_server::fleet::scenario::corpus(quick) {
                println!("{:<28} {}", case.name, case.summary);
            }
            return Ok(());
        }
        Some("corpus") => {
            let recorder = cfg.recorder();
            let _guard = recorder.as_ref().map(Recorder::install);
            let (text, ok) =
                ft_media_server::fleet::scenario::run_corpus_rendered(cfg.threads, quick, None);
            print!("{text}");
            if let Some(recorder) = recorder {
                cfg.finish(recorder, "fleet")?;
            }
            return if ok {
                Ok(())
            } else {
                Err("fleet corpus invariants violated".into())
            };
        }
        Some(name) => {
            if ft_media_server::fleet::scenario::find(name, quick).is_none() {
                return Err(
                    format!("unknown fleet case '{name}' (try `mms-ctl fleet list`)").into(),
                );
            }
            let recorder = cfg.recorder();
            let _guard = recorder.as_ref().map(Recorder::install);
            let (text, ok) = ft_media_server::fleet::scenario::run_corpus_rendered(
                cfg.threads,
                quick,
                Some(name),
            );
            print!("{text}");
            if let Some(recorder) = recorder {
                cfg.finish(recorder, "fleet")?;
            }
            return if ok {
                Ok(())
            } else {
                Err("fleet case invariants violated".into())
            };
        }
        None => {}
    }

    // No positional: run a fleet under traffic with scripted node faults.
    let nodes: usize = flag_value(args, "--nodes", 4)?;
    let (scheme, default_disks) = parse_scheme(args)?;
    let disks: usize = flag_value(args, "--disks", default_disks)?;
    let group: usize = flag_value(args, "--group", 5)?;
    let movies: usize = flag_value(args, "--movies", 8)?;
    let tracks: u64 = flag_value(args, "--tracks", 200)?;
    let cycles: u64 = flag_value(args, "--cycles", 400)?;
    let rate: f64 = flag_value(args, "--rate", 2.0)?;
    let theta: f64 = flag_value(args, "--theta", 0.271)?;
    let seed: u64 = flag_value(args, "--seed", 1995)?;
    let mttf_trials = trials_flag(args, "--mttf")?;
    let node_fails = parse_events(args, "--fail-node")?;
    let node_repairs = parse_events(args, "--repair-node")?;
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
        movies.max(1),
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
        let rel = ReliabilityParams {
            mttf: ft_media_server::disk::Time::from_hours(flag_value(
                args,
                "--node-mttf-h",
                100_000.0,
            )?),
            mttr: ft_media_server::disk::Time::from_hours(flag_value(args, "--node-mttr-h", 24.0)?),
        };
        let mut rng = SplitMix64::new(seed);
        let mttf = fleet_mttf(nodes, rel, &mut rng, mttf_trials, cfg.threads);
        let mttds = fleet_mttds(nodes, rel, &mut rng, mttf_trials, cfg.threads);
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

fn cmd_trace(args: &[String]) -> CmdResult {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: mms-ctl trace <flight.jsonl> [--session ID]")?;
    let session = match flag_arg(args, "--session")? {
        Some(id) => Some(
            id.parse::<u64>()
                .map_err(|_| format!("bad --session id '{id}'"))?,
        ),
        None => None,
    };
    let text = std::fs::read_to_string(path)?;
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
