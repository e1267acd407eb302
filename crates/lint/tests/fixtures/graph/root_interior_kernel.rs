pub fn slice_is_zero(words: &[u64]) -> bool {
    words.iter().all(|w| *w == 0)
}
