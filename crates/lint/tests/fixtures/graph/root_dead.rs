pub struct Simulator;

impl Simulator {
    fn run_sessions(&mut self) -> usize {
        7
    }
}
