//! Pins what every table/figure generator prints: FNV-1a 64 of its
//! stdout, captured from this commit's per-figure binaries.

use std::path::Path;
use std::process::{Command, Output};

/// `(id, arguments, FNV-1a 64 of stdout)`. Every generator runs at its
/// default arguments except `reliability_mc`, whose default `auto`
/// thread count prints the host's core count: it is pinned to the two
/// cores of the host the table was captured on (the numbers themselves
/// are the same at any thread count).
const GOLDEN: [(&str, &[&str], u64); 17] = [
    ("section2_table", &[], 0xf6b0_4cd5_c057_1e42),
    ("table2", &[], 0xab6a_5e3c_0bae_989e),
    ("table3", &[], 0x5bc8_019a_0bbf_e137),
    ("fig2_schedule", &[], 0x5222_0a5e_fcd5_4fc3),
    ("fig3_layout", &[], 0x146d_b2e1_f8fe_9400),
    ("fig4_memory", &[], 0x5362_563d_4fa2_9748),
    ("fig5_schedule", &[], 0x800e_857e_c928_525a),
    ("fig6_transition", &[], 0xd9ec_6eb3_50db_f4b6),
    ("fig7_transition", &[], 0xb3e5_f74d_ecd8_574a),
    ("fig8_layout", &[], 0x3f77_8cd9_da39_310d),
    ("fig9_cost", &[], 0x806c_49f7_e694_f4c2),
    ("reliability_mc", &["400", "2"], 0xb957_510c_9d01_2551),
    ("baseline_vs_schemes", &[], 0xc621_f170_0b1e_4382),
    ("ablation_transition", &[], 0x3ef0_91ea_e685_9f6e),
    ("ablation_ib_reserve", &[], 0x6461_cea7_3f1b_fa9b),
    ("ablation_kprime", &[], 0x71cd_4710_2350_84e0),
    ("design_space", &[], 0xe5c9_a5f1_0029_a6f2),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn generate(id: &str, args: &[&str]) -> Output {
    let bin = Path::new(env!("CARGO_BIN_EXE_table2")).with_file_name(id);
    Command::new(bin)
        .args(args)
        .output()
        .expect("generator binary runs")
}

#[test]
fn every_generator_prints_its_pinned_bytes() {
    for (id, args, digest) in GOLDEN {
        let out = generate(id, args);
        assert!(out.status.success(), "{id} exited with {}", out.status);
        assert_eq!(
            fnv1a(&out.stdout),
            digest,
            "{id} printed something else:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
