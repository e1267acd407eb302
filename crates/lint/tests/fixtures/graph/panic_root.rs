pub struct Simulator;

impl Simulator {
    pub fn run_sessions(&mut self) -> u32 {
        tool_step()
    }
}
