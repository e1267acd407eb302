//! `bench <name> [out.json] [--quick]` — take one of the five
//! `BENCH_<name>.json` measurements. [`BENCHES`] is the catalogue; this
//! file owns what they share: the command line, the wall clock, and the
//! envelope every result file opens with.

mod datapath;
mod fleet;
mod parallel;
mod steady;
mod workload;

use mms_bench::args::Args;
use mms_bench::json::{obj, Json};
use mms_server::{Parallelism, Scheme};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// A bench parses what is left of the command line (and must `finish`
/// it) before it measures anything; its exit code is its verdict.
type Bench = fn(&Harness, &mut Args) -> Result<ExitCode, String>;

/// `(name, what it measures, bench)`.
#[rustfmt::skip]
const BENCHES: [(&str, &str, Bench); 5] = [
    ("parallel", "the mms-exec worker pool at 1/2/4/8 threads; also takes [mc_trials]",   parallel::run),
    ("datapath", "XOR and generator kernels, verified deliveries, allocations per cycle", datapath::run),
    ("workload", "stall rate vs utilization: 4 schemes x 6 loads x normal/degraded",      workload::run),
    ("steady",   "cycle-by-cycle vs event-horizon stepping",                              steady::run),
    ("fleet",    "an 8-node million-session day, fleet MTTF and MTTDS",                   fleet::run),
];

/// The four schemes, and the labels the result files key them by.
pub const SCHEMES: [(Scheme, &str); 4] = [
    (Scheme::StreamingRaid, "SR"),
    (Scheme::StaggeredGroup, "SG"),
    (Scheme::NonClustered, "NC"),
    (Scheme::ImprovedBandwidth, "IB"),
];

/// What `main` hands a bench: the run size, and where its result goes.
pub struct Harness {
    name: &'static str,
    out_path: String,
    /// `--quick`: a smoke-sized run for CI. The checked-in files come
    /// from full runs.
    pub quick: bool,
}

impl Harness {
    /// Write the result file: the envelope saying where and how the
    /// numbers were taken, then the bench's own `data` keys.
    pub fn write(&self, seed: Option<u64>, data: Vec<(&'static str, Json)>) {
        let commit = first_line_of("git", &["rev-parse", "HEAD"]);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let envelope = [
            ("bench", Json::from(self.name)),
            ("commit", commit.into()),
            ("host_cores", Parallelism::Auto.thread_count().into()),
            ("rustc", first_line_of("rustc", &["--version"]).into()),
            ("profile", profile.into()),
            ("seed", seed.map_or(Json::Null, Json::from)),
            ("quick", self.quick.into()),
        ];
        let doc = obj(envelope.into_iter().chain(data));
        std::fs::write(&self.out_path, doc.render()).expect("write benchmark json");
        println!("wrote {}", self.out_path);
    }
}

/// `f`'s result and the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[allow(clippy::disallowed_methods)] // benchmark timing is wall-clock by definition
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
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

fn run(mut argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let name = argv.next().ok_or("which bench?")?;
    let &(name, _, bench) = BENCHES
        .iter()
        .find(|(known, _, _)| *known == name)
        .ok_or_else(|| format!("no bench named `{name}`"))?;
    let mut args = Args::parse(argv, &["--quick"])?;
    let harness = Harness {
        name,
        out_path: args.positional("output path", format!("BENCH_{name}.json"))?,
        quick: args.flag("--quick"),
    };
    bench(&harness, &mut args)
}

fn main() -> ExitCode {
    run(std::env::args().skip(1)).unwrap_or_else(|problem| {
        eprintln!("error: {problem}\nusage: bench <name> [out.json] [--quick]");
        for (name, what, _) in BENCHES {
            eprintln!("  {name:<9} {what}");
        }
        ExitCode::from(2)
    })
}
