pub struct FlightRecorder {
    len: usize,
}

impl FlightRecorder {
    pub fn record(&mut self, _event: u32) -> usize {
        self.len += 1;
        self.len
    }
}
