//! Layout invariant checks.
//!
//! These encode the structural properties the paper's arguments rest on;
//! the property tests in `tests/` run them over randomized geometries.

use crate::Layout;

/// Violations detected by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two members of one parity group share a disk — a single disk
    /// failure would then erase two members and defeat the parity.
    SharedDisk {
        /// Start cluster of the offending object.
        start_cluster: u32,
        /// Group ordinal.
        group: u64,
    },
    /// Data blocks of one group span multiple clusters (the schemes assume
    /// a group's data is one cluster-row).
    SplitGroup {
        /// Start cluster of the offending object.
        start_cluster: u32,
        /// Group ordinal.
        group: u64,
    },
    /// Parity placed on a data disk of the same group's cluster in a
    /// layout that promises otherwise.
    ParityCollision {
        /// Start cluster of the offending object.
        start_cluster: u32,
        /// Group ordinal.
        group: u64,
    },
}

/// Check the core invariants of a layout over the first `groups` groups of
/// objects starting at every cluster.
///
/// Verified properties:
/// 1. every member (data + parity) of a group is on a distinct disk;
/// 2. a group's data blocks all live on one cluster;
/// 3. consecutive groups advance clusters round-robin (`h + j mod N_C`).
pub fn check<L: Layout>(layout: &L, groups: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    let geo = layout.geometry();
    for start in 0..geo.clusters() {
        for g in 0..groups {
            let mut disks = layout.group_disks(start, g);
            let n = disks.len();
            disks.sort_unstable();
            disks.dedup();
            if disks.len() != n {
                violations.push(Violation::SharedDisk {
                    start_cluster: start,
                    group: g,
                });
            }
            let dc = layout.data_cluster(start, g);
            let split = (0..layout.blocks_per_group())
                .any(|i| layout.data_placement(start, g, i).cluster != dc);
            if split {
                violations.push(Violation::SplitGroup {
                    start_cluster: start,
                    group: g,
                });
            }
            // Round-robin advance.
            let expect = ((u64::from(start) + g) % u64::from(geo.clusters())) as u32;
            debug_assert_eq!(dc.0, expect);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustered::ClusteredLayout;
    use crate::geometry::Geometry;
    use crate::improved::ImprovedLayout;

    #[test]
    fn clustered_layouts_are_clean() {
        for (d, c) in [(10, 5), (14, 7), (100, 5), (4, 2)] {
            let l = ClusteredLayout::new(Geometry::clustered(d, c).unwrap());
            assert!(check(&l, 20).is_empty(), "D={d} C={c}");
        }
    }

    #[test]
    fn improved_layouts_are_clean() {
        for (d, c) in [(8, 5), (12, 5), (12, 7), (4, 3)] {
            let l = ImprovedLayout::new(Geometry::improved(d, c).unwrap());
            assert!(check(&l, 20).is_empty(), "D={d} C={c}");
        }
    }
}
