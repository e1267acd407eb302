pub fn cold(v: &[u32]) -> u32 {
    *v.first().unwrap()
}
