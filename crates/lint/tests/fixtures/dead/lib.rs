//! `dead-pub` fixture library (`crates/media/src/lib.rs`): one `pub` fn
//! nothing names, and one fn for each way code can keep another alive.

use std::collections::BTreeMap;

/// Bad: nothing calls or names it.
pub fn never_named() -> u32 {
    1
}

/// Good: called only from a `#[cfg(test)]` fn.
pub fn unit_tested() -> u32 {
    2
}

/// Good: called only from a `tests/` file.
pub fn integration_tested() -> u32 {
    3
}

/// Good: called only from a `benchmark/src` file.
pub fn benchmarked() -> u32 {
    4
}

/// Good: called only through `$crate::` in a `macro_rules!` body.
pub fn through_a_macro() -> u32 {
    5
}

#[macro_export]
macro_rules! five {
    () => {
        $crate::through_a_macro()
    };
}

pub struct Histogram;

impl Histogram {
    /// Good: named as a value (`Type::f` with no call).
    pub fn default_bounds() -> Vec<f64> {
        vec![1.0]
    }
}

/// Good: a trait-impl method is never a finding.
impl Default for Histogram {
    fn default() -> Self {
        Histogram
    }
}

/// Good: dead, and kept by an allow with a reason.
// lint:allow(dead-pub): a documented entry point for downstream users
pub fn kept_on_purpose() -> u32 {
    6
}

fn bounds(map: &mut BTreeMap<u32, Vec<f64>>) {
    map.entry(0).or_insert_with(Histogram::default_bounds);
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::unit_tested(), 2);
    }
}
