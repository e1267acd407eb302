pub fn tool_step() -> u32 {
    let first: Option<u32> = Some(1);
    first.unwrap()
}

fn main() {
    println!("{}", tool_step());
}
