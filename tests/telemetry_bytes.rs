//! What `mms-ctl` writes for its telemetry flags, byte for byte: the
//! JSONL export (`--telemetry`), the Prometheus snapshot (`--prom-out`),
//! the Perfetto trace (`--perfetto-out`) and stdout with the dashboard
//! and the SLO panel (`--dash --slo`). Each case runs at one and at eight
//! threads, with and without `--fast-forward`, collected at `info` and
//! at `debug` (never `trace`, whose pool diagnostics are
//! scheduling-dependent). This is the oracle for the telemetry layer and
//! for what the simulator publishes into it. Across those runs, and a
//! run at `error`, the health panel must not move, nor may
//! `--fast-forward` move the Prometheus snapshot. The flight dump
//! (`--flight-recorder`) and what `mms-ctl trace` prints from it are
//! pinned the same way.

use std::path::Path;
use std::process::Command;

/// The telemetry files, in digest order. They are written relative to
/// the run's working directory, so the paths `mms-ctl` echoes to stdout
/// are the same on every host.
const FILES: [&str; 3] = ["telemetry.jsonl", "metrics.prom", "trace.json"];

/// One line per pinned run: case, collection level, `ff` for
/// `--fast-forward` (else `-`), then the FNV-1a 64 digests of stdout, the
/// JSONL export, the Prometheus snapshot and the Perfetto trace. An
/// `info` run writes no trace (a trace raises collection to `debug`), so
/// its last digest is `-`. A failing run prints its line in this format.
const GOLDEN: &str = "\
simulate info  -  e80b45855f94a2b4 0c117098c1c26b76 674b6ad47a95df59 -
simulate info  ff e80b45855f94a2b4 0c117098c1c26b76 674b6ad47a95df59 -
simulate debug -  9801fc725d74cff7 456190991b824622 674b6ad47a95df59 dd61f11f1d598429
simulate debug ff 9801fc725d74cff7 456190991b824622 674b6ad47a95df59 dd61f11f1d598429
workload info  -  7f6c63e37010a8ec e0374c8b4042c1dd 251247d765367396 -
workload info  ff 0d74fba975ff45ab e00ad5cd07ec4cec 251247d765367396 -
workload debug -  53ac43a5dea049d0 a6d0c0b9fb892e67 251247d765367396 47d44b8c10089ca9
workload debug ff 53ac43a5dea049d0 a6d0c0b9fb892e67 251247d765367396 47d44b8c10089ca9
scenario info  -  054a7fe9386c54f1 b5b19422741e7a96 7de17ec2218738cb -
scenario info  ff 054a7fe9386c54f1 b5b19422741e7a96 7de17ec2218738cb -
scenario debug -  a908e40a1d33a658 ab6898868158c540 7de17ec2218738cb 09abd917e73bca20
scenario debug ff a908e40a1d33a658 ab6898868158c540 7de17ec2218738cb 09abd917e73bca20
fleet    info  -  6d016ee8f2cb4eea a911aa9fd1f23bd2 17f04775802d0767 -
fleet    info  ff 6d016ee8f2cb4eea a911aa9fd1f23bd2 17f04775802d0767 -
fleet    debug -  65f0d2deb261990e 333e53e88b1ff615 17f04775802d0767 dcf357afb6bd2d0c
fleet    debug ff 65f0d2deb261990e 333e53e88b1ff615 17f04775802d0767 dcf357afb6bd2d0c
";

/// The command line of each case.
fn case_args(case: &str) -> &'static [&'static str] {
    match case {
        // An NC array that loses a disk and rebuilds it from parity.
        "simulate" => &[
            "simulate",
            "--scheme",
            "nc",
            "--viewers",
            "4",
            "--tracks",
            "200",
            "--fail",
            "2@10",
            "--rebuild",
            "2@20",
            "--cycles",
            "120",
        ],
        "workload" => &[
            "workload", "--rate", "2", "--cycles", "200", "--fail", "2@80",
        ],
        "scenario" => &["scenario", "all", "--quick"],
        "fleet" => &["fleet", "fleet-failover"],
        other => panic!("no case {other}"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run one case in `dir`: its stdout, and the digests of stdout and of
/// each telemetry file, `-` for a file the run did not write.
fn run(dir: &Path, args: &[&str]) -> (String, String) {
    for file in FILES {
        let _ = std::fs::remove_file(dir.join(file));
    }
    let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run mms-ctl");
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut digests = vec![format!("{:016x}", fnv1a(&out.stdout))];
    for file in FILES {
        digests.push(
            std::fs::read(dir.join(file)).map_or("-".into(), |b| format!("{:016x}", fnv1a(&b))),
        );
    }
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (stdout, digests.join(" "))
}

/// The `--slo` panel of a run's stdout: from its `health` line to the
/// first blank line after it.
fn health_block(stdout: &str) -> String {
    let panel = stdout
        .lines()
        .skip_while(|line| *line != "health")
        .take_while(|line| !line.is_empty());
    panel.map(|line| format!("{line}\n")).collect()
}

/// Every pinned run of `case`, at both thread counts, against its line.
/// Two properties hold across the runs as well: the health panel is the
/// same in every one of them and in a `--log-level error` run (it reads
/// the record, not the event stream), and `--fast-forward` leaves the
/// Prometheus snapshot at each level as it is.
fn check(case: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("telemetry_bytes_{case}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut mismatches = Vec::new();
    let mut panels = Vec::new();
    let mut prom = std::collections::BTreeMap::new();
    for line in GOLDEN
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(case))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (level, fast_forward, want) = (fields[1], fields[2], fields[3..].join(" "));
        for threads in ["seq", "8"] {
            let mut args = case_args(case).to_vec();
            args.extend(["--threads", threads, "--log-level", level]);
            args.extend(["--telemetry", FILES[0], "--prom-out", FILES[1]]);
            args.extend(["--dash", "--slo"]);
            if level == "debug" {
                args.extend(["--perfetto-out", FILES[2]]);
            }
            if fast_forward == "ff" {
                args.push("--fast-forward");
            }
            let (stdout, got) = run(&dir, &args);
            if got != want {
                mismatches.push(format!(
                    "{case:<8} {level:<5} {fast_forward:<2} {got}   ({threads} thread(s))"
                ));
            }
            panels.push((
                format!("{level} {fast_forward} {threads}"),
                health_block(&stdout),
            ));
            let digest = got.split(' ').nth(2).expect("a prom digest").to_string();
            prom.entry(level).or_insert_with(Vec::new).push(digest);
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));

    let mut args = case_args(case).to_vec();
    args.extend(["--threads", "seq", "--log-level", "error", "--slo"]);
    panels.push(("error - seq".into(), health_block(&run(&dir, &args).0)));
    let (first, want) = &panels[0];
    assert!(want.starts_with("health\n"), "{first}: no panel");
    for (run, panel) in &panels {
        assert_eq!(
            panel, want,
            "{case}: the panel of {run} differs from {first}'s"
        );
    }
    for (level, digests) in prom {
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{case} {level}: --fast-forward moves the Prometheus snapshot: {digests:?}"
        );
    }
}

#[test]
fn simulate_telemetry_is_pinned() {
    check("simulate");
}

#[test]
fn workload_telemetry_is_pinned() {
    check("workload");
}

#[test]
fn scenario_corpus_telemetry_is_pinned() {
    check("scenario");
}

#[test]
fn fleet_telemetry_is_pinned() {
    check("fleet");
}

/// The flight-recorder smoke run: `scenario double-fault-same-group`
/// dumping its black box, then `trace` reading it back, whole and for
/// stream 0. Stdout of the run, the dump and both `trace` stdouts, in
/// that order.
const FLIGHT_GOLDEN: &str = "3e575c806aa0022f 383fe77e46a6a4b6 69c4aebafc22477f dd43e582ca64a99f";

#[test]
fn the_flight_dump_and_its_trace_are_pinned() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_bytes_flight");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mms_ctl = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("run mms-ctl");
        assert!(
            out.status.success(),
            "{args:?} exited with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        format!("{:016x}", fnv1a(&out.stdout))
    };
    let _ = std::fs::remove_file(dir.join("flight.jsonl"));
    let run = mms_ctl(&[
        "scenario",
        "double-fault-same-group",
        "--flight-recorder",
        "flight.jsonl",
        "--flight-capacity",
        "8192",
        "--slo",
    ]);
    let dump = std::fs::read(dir.join("flight.jsonl")).expect("the run wrote its dump");
    let got = [
        run,
        format!("{:016x}", fnv1a(&dump)),
        mms_ctl(&["trace", "flight.jsonl"]),
        mms_ctl(&["trace", "flight.jsonl", "--session", "0"]),
    ]
    .join(" ");
    assert_eq!(got, FLIGHT_GOLDEN);
}
