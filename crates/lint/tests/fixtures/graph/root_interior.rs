pub struct Simulator {
    recorder: FlightRecorder,
}

impl Simulator {
    pub fn run_sessions(&mut self) -> usize {
        self.recorder.record(1)
    }
}
