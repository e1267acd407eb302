//! `repro <id> [args…] | all | list` — regenerate one table or figure of
//! the paper on stdout. [`GENERATORS`] is the whole catalogue: a new
//! experiment is one function and one row.

mod ablations;
mod figures;
mod tables;

use ablations::*;
use figures::*;
use mms_server::Args;
use std::process::ExitCode;
use tables::*;

enum Generator {
    /// Takes no arguments.
    Fixed(fn()),
    /// Parses its own positionals (and must `finish` them) before it
    /// prints anything.
    WithArgs(fn(&mut Args) -> Result<(), String>),
}
use Generator::{Fixed, WithArgs};

/// `(id, what it reproduces, generator)`.
#[rustfmt::skip]
const GENERATORS: [(&str, &str, Generator); 17] = [
    ("section2_table",      "§2 in-text streams-per-disk table",                       Fixed(section2_table)),
    ("table2",              "Table 2: six metrics, four schemes, C = 5",               Fixed(table2)),
    ("table3",              "Table 3: six metrics, four schemes, C = 7",               Fixed(table3)),
    ("fig2_schedule",       "Figure 2: k/k′ read vs transmission cycles",              Fixed(fig2_schedule)),
    ("fig3_layout",         "Figure 3: Streaming RAID layout",                         Fixed(fig3_layout)),
    ("fig4_memory",         "Figure 4: staggered-group memory profile",                Fixed(fig4_memory)),
    ("fig5_schedule",       "Figure 5: NC normal-mode schedule",                       Fixed(fig5_schedule)),
    ("fig6_transition",     "Figure 6: NC simple transition (6 lost tracks)",          Fixed(fig6_transition)),
    ("fig7_transition",     "Figure 7: NC delayed transition (3 lost tracks)",         Fixed(fig7_transition)),
    ("fig8_layout",         "Figure 8: improved-bandwidth layout",                     Fixed(fig8_layout)),
    ("fig9_cost",           "Figure 9(a)+(b): cost and stream sweeps",                 Fixed(fig9_cost)),
    ("reliability_mc",      "§1–§4 MTTF quotes vs Monte Carlo; [trials] [threads]",    WithArgs(reliability_mc)),
    ("baseline_vs_schemes", "§1's no-fault-tolerance motivation, measured",            Fixed(baseline_vs_schemes)),
    ("ablation_transition", "NC transition losses across C × failed disk × policy",    Fixed(ablation_transition)),
    ("ablation_ib_reserve", "IB reserved capacity vs dropped streams at full load",    Fixed(ablation_ib_reserve)),
    ("ablation_kprime",     "the k′ continuum between SG and SR, endpoints asserted",  Fixed(ablation_kprime)),
    ("design_space",        "§5 design exercise; [streams] [mpeg1] [mpeg2] [threads]", WithArgs(design_space)),
];

const USAGE: &str = "usage: repro <id> [args…]   one generator (`repro list` names them)\n       \
                     repro all            every generator at its default arguments\n       \
                     repro list           the ids and what each reproduces";

fn generate(generator: &Generator, args: &mut Args) -> Result<(), String> {
    match generator {
        Fixed(run) => {
            args.finish()?;
            run();
            Ok(())
        }
        WithArgs(run) => run(args),
    }
}

fn run(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let id = argv.next().ok_or("which table or figure?")?;
    let mut args = Args::parse(argv, &[])?;
    match id.as_str() {
        "list" => {
            args.finish()?;
            for (id, what, _) in &GENERATORS {
                println!("{id:<20} {what}");
            }
            Ok(())
        }
        "all" => {
            args.finish()?;
            for (id, _, generator) in &GENERATORS {
                println!("===== {id} =====\n");
                generate(generator, &mut args)?;
                println!();
            }
            Ok(())
        }
        id => {
            let (_, _, generator) = GENERATORS
                .iter()
                .find(|(known, _, _)| *known == id)
                .ok_or_else(|| format!("no generator named `{id}`"))?;
            generate(generator, &mut args)
        }
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("error: {problem}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
