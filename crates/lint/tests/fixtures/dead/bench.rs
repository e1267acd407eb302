//! `dead-pub` fixture benchmark (`benchmark/src/main.rs`): read for the
//! functions it names, never linted — its own dead `pub fn` is no finding.

pub fn benchmark_helper() -> u32 {
    media::benchmarked()
}

fn main() {
    println!("{}", benchmark_helper());
}
