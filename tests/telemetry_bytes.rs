//! What `mms-ctl` writes for its telemetry flags, byte for byte: the
//! JSONL export (`--telemetry`), the Prometheus snapshot (`--prom-out`),
//! the Perfetto trace (`--perfetto-out`) and stdout with the dashboard
//! and the SLO panel (`--dash --slo`). Each case runs at one and at eight
//! threads, with and without `--fast-forward`, collected at `info` and
//! at `debug` (never `trace`, whose pool diagnostics are
//! scheduling-dependent). This is the oracle for the telemetry layer and
//! for what the simulator publishes into it.

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
simulate info  -  50d13f4b78701b0d 1ffd0dd5654ce723 c4c42f129eac5d4b -
simulate info  ff 50d13f4b78701b0d 1ffd0dd5654ce723 c4c42f129eac5d4b -
simulate debug -  07f00af7fc657e0f 1f7d96678b005385 e94215d962ab9555 25c73dc2caeb6950
simulate debug ff 07f00af7fc657e0f 1f7d96678b005385 e94215d962ab9555 25c73dc2caeb6950
workload info  -  fde0463aea0292b9 bc07ed7478045a8a 49a71dbf22b30352 -
workload info  ff eb7f35bdf26fd98e 4f51a226c727b656 a86e685a0ba81717 -
workload debug -  2e97025a270b5c6e d3a267d439c24092 e67fcb1c1027b7de 02241c6dba5a99d3
workload debug ff 2e97025a270b5c6e d3a267d439c24092 e67fcb1c1027b7de 02241c6dba5a99d3
scenario info  -  a2a2ec880f4c6a79 a8a016e44e8de307 bfc080f5444fdc17 -
scenario info  ff a2a2ec880f4c6a79 a8a016e44e8de307 bfc080f5444fdc17 -
scenario debug -  01f0c0c5b3e15bb9 468728cd2c2e417d f04ed9c0e1115232 b58a8778ed51676c
scenario debug ff 01f0c0c5b3e15bb9 468728cd2c2e417d f04ed9c0e1115232 b58a8778ed51676c
fleet    info  -  163e9914a1c57d02 42a7ccdcf1027fb7 bbb0885dd5c980c7 -
fleet    info  ff 163e9914a1c57d02 42a7ccdcf1027fb7 bbb0885dd5c980c7 -
fleet    debug -  43181f02ab97a6da 3fde532ccff3e60e bbb0885dd5c980c7 dcf357afb6bd2d0c
fleet    debug ff 43181f02ab97a6da 3fde532ccff3e60e bbb0885dd5c980c7 dcf357afb6bd2d0c
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

/// Run one case in `dir`: the digests of stdout and of each telemetry
/// file, `-` for a file the run did not write.
fn run(dir: &Path, args: &[&str]) -> String {
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
    digests.join(" ")
}

/// Every pinned run of `case`, at both thread counts, against its line.
fn check(case: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("telemetry_bytes_{case}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut mismatches = Vec::new();
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
            let got = run(&dir, &args);
            if got != want {
                mismatches.push(format!(
                    "{case:<8} {level:<5} {fast_forward:<2} {got}   ({threads} thread(s))"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
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
