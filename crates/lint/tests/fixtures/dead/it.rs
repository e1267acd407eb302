//! `dead-pub` fixture integration test (`crates/media/tests/it.rs`).

#[test]
fn integration() {
    assert_eq!(media::integration_tested(), 3);
}
