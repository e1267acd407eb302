//! The two fault corpora print, byte for byte, what they printed before
//! the scenario engine became one corpus runner — at every thread
//! count and in both step modes. This is the engine's oracle, the way
//! `crates/bench/tests/repro.rs` is `repro`'s.

use std::process::Command;

/// `(arguments, FNV-1a 64 of stdout)`, captured from the `mms-ctl` of
/// the commit before the one-engine refactor. The `scenario all` rows
/// were re-captured once since, when a rebuild that finishes during a
/// cycle began to leave degraded mode at the next one (eight
/// `rebuild-under-load` lines moved by one cycle). The fast-forward run
/// prints what the per-cycle run prints, so the two share a digest.
const GOLDEN: [(&[&str], u64); 7] = [
    (&["scenario", "all", "--quick"], 0xcddb_9014_5586_eec4),
    (&["scenario", "all"], 0xbefc_ecfb_856f_1f1c),
    (
        &["scenario", "all", "--quick", "--fast-forward"],
        0xcddb_9014_5586_eec4,
    ),
    (&["scenario", "nc-transition-simple"], 0x1890_4ab6_9d3e_5d03),
    (&["fleet", "corpus", "--quick"], 0xc8c3_d5ce_bdea_2741),
    (&["fleet", "corpus"], 0x075e_6949_10c5_72db),
    (&["fleet", "fleet-failover"], 0x6ac6_d16e_6578_168d),
];

/// `(arguments, FNV-1a 64 of the listing with each line's column
/// padding collapsed to one space)`: the names and summaries, in
/// order, are pinned; the padding between them is not.
const LISTS: [(&[&str], u64); 2] = [
    (&["scenario", "list"], 0xd5a3_759d_5aad_4f76),
    (&["fleet", "list"], 0xcf3c_a792_c707_8544),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn ctl(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
        .args(args)
        .output()
        .expect("run mms-ctl");
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn every_corpus_run_prints_its_pinned_bytes_at_any_thread_count() {
    for (args, digest) in GOLDEN {
        for threads in ["seq", "2", "8"] {
            let args = [args, &["--threads", threads]].concat();
            let stdout = ctl(&args);
            assert_eq!(fnv1a(stdout.as_bytes()), digest, "{args:?}:\n{stdout}");
        }
    }
}

#[test]
fn every_listing_names_the_pinned_cases_in_order() {
    for (args, digest) in LISTS {
        let stdout = ctl(args);
        let collapsed: String = stdout
            .lines()
            .map(|line| {
                let (name, summary) = line.split_once(' ').expect("name, then summary");
                format!("{name} {}\n", summary.trim_start())
            })
            .collect();
        assert_eq!(fnv1a(collapsed.as_bytes()), digest, "{args:?}:\n{stdout}");
    }
}

/// The paper's two transition figures, read off the pinned output
/// rather than its digest: Fig. 6 loses exactly 6 tracks, Fig. 7
/// exactly 3, with and without fast-forward.
#[test]
fn the_corpus_reproduces_figures_6_and_7() {
    for step in [&[][..], &["--fast-forward"]] {
        let stdout = ctl(&[&["scenario", "all", "--quick"], step].concat());
        for (case, lost) in [("nc-transition-simple", 6), ("nc-transition-delayed", 3)] {
            let report: Vec<&str> = stdout
                .lines()
                .skip_while(|l| !l.starts_with(&format!("[PASS] {case} / NC")))
                .take(3)
                .collect();
            let expected = format!("delivery: {lost} lost tracks");
            assert!(
                report.iter().any(|l| l.contains(&expected)),
                "{case} {step:?}: {report:?}"
            );
        }
    }
}
