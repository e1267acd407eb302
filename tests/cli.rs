//! End-to-end tests of the `mms-ctl` command-line driver.

use std::process::Command;

fn ctl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
        .args(args)
        .output()
        .expect("run mms-ctl");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table_command_prints_table2() {
    let (stdout, _, ok) = ctl(&["table", "5"]);
    assert!(ok);
    assert!(stdout.contains("Streaming RAID"), "{stdout}");
    assert!(stdout.contains("1041"), "{stdout}");
    assert!(stdout.contains("2612"), "{stdout}");
}

#[test]
fn simulate_masks_a_failure() {
    let (stdout, _, ok) = ctl(&[
        "simulate",
        "--scheme",
        "sr",
        "--tracks",
        "60",
        "--viewers",
        "2",
        "--fail",
        "1@5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("disk 1 FAILED"), "{stdout}");
    assert!(stdout.contains("hiccups            : 0"), "{stdout}");
    assert!(stdout.contains("streams finished   : 2"), "{stdout}");
}

#[test]
fn simulate_runs_a_rebuild() {
    let (stdout, _, ok) = ctl(&[
        "simulate",
        "--scheme",
        "nc",
        "--tracks",
        "120",
        "--fail",
        "2@8",
        "--rebuild",
        "2@20",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("rebuilds completed : 1"), "{stdout}");
}

#[test]
fn mttf_command_reports_equations() {
    let (stdout, _, ok) = ctl(&["mttf", "1000", "10"]);
    assert!(ok);
    assert!(stdout.contains("1141.6"), "{stdout}");
    assert!(stdout.contains("540.7"), "{stdout}");
}

#[test]
fn design_command_picks_ib_for_1500() {
    let (stdout, _, ok) = ctl(&["design", "1500"]);
    assert!(ok);
    assert!(stdout.contains("Improved-bandwidth"), "{stdout}");
}

#[test]
fn bad_arguments_fail_gracefully() {
    let (_, stderr, ok) = ctl(&["simulate", "--scheme", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheme"), "{stderr}");
    let (_, stderr, ok) = ctl(&["nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (_, stderr, ok) = ctl(&["simulate", "--fail", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("DISK@CYCLE"), "{stderr}");
    // One Monte-Carlo trial used to skip validation without a word.
    for args in [["mttf", "--mc", "1"], ["fleet", "--mttf", "1"]] {
        let (_, stderr, ok) = ctl(&args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains("at least 2 trials"), "{stderr}");
    }
}

/// `mms-ctl simulate --cycles` used to run 129 default cycles and exit 0.
#[test]
fn a_flag_without_its_value_is_an_error_naming_the_flag() {
    let cases: [(&[&str], &str); 8] = [
        (&["simulate", "--cycles"], "--cycles"),
        // Followed by another flag is as bare as last on the line.
        (&["simulate", "--cycles", "--viewers", "2"], "--cycles"),
        (&["mttf", "1000", "10", "--mc"], "--mc"),
        (&["design", "1200", "--threads"], "--threads"),
        (&["scenario", "all", "--quick", "--threads"], "--threads"),
        (&["workload", "--rate", "--cycles", "50"], "--rate"),
        (&["fleet", "--nodes"], "--nodes"),
        (&["fleet", "--cycles", "20", "--telemetry"], "--telemetry"),
    ];
    for (args, flag) in cases {
        let (stdout, stderr, ok) = ctl(args);
        assert!(!ok, "{args:?}");
        let message = format!("{flag} needs a value");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran anyway:\n{stdout}");
    }
}

/// Every subcommand the dispatcher knows, as the usage text names them.
const SUBCOMMANDS: [&str; 8] = [
    "table", "simulate", "mttf", "design", "scenario", "workload", "fleet", "trace",
];

/// An argument the subcommand cannot account for — an unknown flag, a
/// surplus positional, a positional after a flag — used to be dropped
/// without a word (`scenario all --quik` ran the full corpus). Now it
/// is named on stderr above the usage, nothing runs, and the exit
/// status is 2.
#[test]
fn an_argument_the_subcommand_cannot_account_for_is_a_usage_error() {
    let (help, _, _) = ctl(&["--help"]);
    let cases: [(&[&str], &str); 9] = [
        (&["table", "5", "extra", "junk"], "`extra`"),
        (&["simulate", "--cycels", "5"], "`--cycels`"),
        // `--mc` takes 100; 500 and 5 follow a flag.
        (&["mttf", "--mc", "100", "500", "5"], "`500`"),
        (&["design", "1200", "--threds", "2"], "`--threds`"),
        (&["scenario", "all", "--quik"], "`--quik`"),
        (&["workload", "--rate", "2", "extra"], "`extra`"),
        (&["fleet", "corpus", "list"], "`list`"),
        (&["trace", "dump.jsonl", "--sesion", "1"], "`--sesion`"),
        // The shared run flags belong to the run-style subcommands only.
        (&["table", "5", "--threads", "2"], "`--threads`"),
    ];
    for name in SUBCOMMANDS {
        assert!(cases.iter().any(|(args, _)| args[0] == name), "{name}");
    }
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
            .args(args)
            .output()
            .expect("run mms-ctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{args:?}: {first}");
        assert!(
            stderr.ends_with(&help),
            "{args:?}: usage follows:\n{stderr}"
        );
    }
}

#[test]
fn help_prints_the_usage_on_stdout_and_succeeds() {
    let (reference, _, _) = ctl(&["--help"]);
    for flag in ["--help", "-h", "help"] {
        let (stdout, stderr, ok) = ctl(&[flag]);
        assert!(ok, "{flag} must exit 0");
        assert!(stderr.is_empty(), "{flag}: {stderr}");
        assert_eq!(stdout, reference, "{flag} prints the same text");
    }
    assert!(reference.starts_with("usage: mms-ctl"), "{reference}");
    // One line per subcommand, led by its name, carrying its flags.
    for name in SUBCOMMANDS {
        let lines: Vec<&str> = reference
            .lines()
            .filter(|l| l.trim_start().starts_with(&format!("{name} ")))
            .collect();
        assert_eq!(lines.len(), 1, "`{name}` in:\n{reference}");
    }
    for flag in [
        "--rebuild DISK@CYCLE",
        "--policy reject|degrade|queue",
        "--fail-node N@CYCLE",
    ] {
        assert!(
            reference.contains(flag),
            "{flag} missing from:\n{reference}"
        );
    }
    assert!(reference.contains("--fast-forward"), "{reference}");
    assert!(!reference.contains("in source"), "{reference}");
}

#[test]
fn a_bad_or_missing_subcommand_prints_the_usage_on_stderr_and_fails() {
    let (help, _, _) = ctl(&["--help"]);
    let (stdout, stderr, ok) = ctl(&["nonsense"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown subcommand `nonsense`"), "{stderr}");
    // The error names every subcommand, from the table the usage uses.
    let first = stderr.lines().next().unwrap_or_default();
    for name in SUBCOMMANDS {
        assert!(first.contains(name), "`{name}` missing from: {first}");
    }
    assert!(
        stderr.ends_with(&help),
        "usage follows the error:\n{stderr}"
    );

    let (stdout, stderr, ok) = ctl(&[]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("missing subcommand"), "{stderr}");
    assert!(stderr.ends_with(&help), "{stderr}");
}

/// Each of these used to panic (exit 101) in an assert of the session
/// engine, the arrival process, the Zipf sampler or the Markov chain —
/// `mttf 0 0` after printing its header — and `workload --movies 0`
/// silently ran one movie. Now the value is checked where the command
/// reads it: an error naming the argument, nothing printed, exit 1.
#[test]
fn an_out_of_range_value_is_an_error_naming_the_argument() {
    let cases: [(&[&str], &str); 10] = [
        (&["workload", "--abandon", "2"], "--abandon"),
        (&["workload", "--rate", "-1"], "--rate"),
        (&["workload", "--rate", "nan"], "--rate"),
        (&["workload", "--theta", "-1"], "--theta"),
        (&["workload", "--vbr", "0"], "--vbr"),
        (
            &["workload", "--policy", "degrade", "--quality", "0"],
            "--quality",
        ),
        (&["workload", "--burst", "1:2:3:4"], "--burst"),
        (&["fleet", "--rate", "-1"], "--rate"),
        (&["mttf", "0", "0"], "disk count"),
        (&["workload", "--movies", "0"], "--movies"),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
            .args(args)
            .output()
            .expect("run mms-ctl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{args:?}: {stderr}"
        );
    }
}

/// `table x`, `design x`, `mttf x 5` and `trace /nonexistent` used to answer with
/// the parser's or the OS's words alone (`invalid digit found in
/// string`, `No such file or directory`), not naming what was wrong.
#[test]
fn a_bad_positional_is_named_in_its_error() {
    let cases: [(&[&str], &str); 4] = [
        (&["table", "x"], "`x` is not a valid parity group size"),
        (&["design", "x"], "`x` is not a valid stream count"),
        (&["mttf", "x", "5"], "`x` is not a valid disk count"),
        (&["trace", "/nonexistent"], "cannot read /nonexistent"),
    ];
    for (args, named) in cases {
        let (stdout, stderr, ok) = ctl(args);
        assert!(!ok, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

/// `simulate` admits one viewer a cycle before its main loop; a fault
/// dated inside that warm-up used to be skipped without a word.
#[test]
fn simulate_applies_a_fault_dated_inside_the_viewer_warm_up() {
    let (stdout, stderr, ok) = ctl(&["simulate", "--fail", "1@2"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("cycle 2: disk 1 FAILED"), "{stdout}");
}
