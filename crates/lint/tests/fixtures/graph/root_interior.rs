pub struct Simulator {
    words: [u64; 4],
}

impl Simulator {
    pub fn run_sessions(&mut self) -> bool {
        slice_is_zero(&self.words)
    }
}
