pub struct Simulator;

impl Simulator {
    pub fn run_all_sessions(&mut self) -> usize {
        gather()
    }
}

pub fn gather() -> usize {
    let v: Vec<u32> = Vec::new();
    v.len()
}
