//! Property tests over randomized geometries: layout bijectivity, group
//! disjointness, and Observation-1 structure.

use mms_disk::DiskId;
use mms_layout::{
    invariants, BandwidthClass, Catalog, ClusteredLayout, Geometry, ImprovedLayout, Layout,
    MediaObject, ObjectId,
};
use proptest::prelude::*;

fn arb_clustered() -> impl Strategy<Value = (usize, usize)> {
    // C in 2..=10, clusters in 1..=8 -> D = C * clusters.
    (2usize..=10, 1usize..=8).prop_map(|(c, n)| (c * n, c))
}

fn arb_improved() -> impl Strategy<Value = (usize, usize)> {
    // C in 2..=10, clusters in 2..=8 -> D = (C-1) * clusters.
    (2usize..=10, 2usize..=8).prop_map(|(c, n)| ((c - 1) * n, c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All invariants hold for any clustered geometry.
    #[test]
    fn clustered_invariants((d, c) in arb_clustered()) {
        let layout = ClusteredLayout::new(Geometry::clustered(d, c).unwrap());
        prop_assert!(invariants::check(&layout, 32).is_empty());
    }

    /// All invariants hold for any improved geometry.
    #[test]
    fn improved_invariants((d, c) in arb_improved()) {
        let layout = ImprovedLayout::new(Geometry::improved(d, c).unwrap());
        prop_assert!(invariants::check(&layout, 32).is_empty());
    }

    /// Every stored block appears on exactly one disk, and the union of
    /// per-disk inverse maps is exactly the set of placed blocks.
    #[test]
    fn catalog_inverse_map_is_a_partition(
        (d, c) in arb_clustered(),
        tracks in 1u64..60,
        start in 0u32..8,
    ) {
        let geo = Geometry::clustered(d, c).unwrap();
        let start = start % geo.clusters();
        let layout = ClusteredLayout::new(geo);
        let mut cat = Catalog::new(layout, 10_000);
        let obj = MediaObject::new(ObjectId(1), "x", tracks, BandwidthClass::Mpeg1);
        let groups = cat.add_at(obj, start).unwrap().groups;

        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for disk in 0..d as u32 {
            for addr in cat.blocks_on_disk(DiskId(disk)) {
                prop_assert!(seen.insert(addr), "block {addr} on two disks");
                total += 1;
            }
        }
        // Each group contributes C-1 data blocks + 1 parity block.
        prop_assert_eq!(total as u64, groups * c as u64);
        // Occupancy agrees with the inverse map.
        let occ_total: u64 = cat.occupancy().iter().sum();
        prop_assert_eq!(occ_total, groups * c as u64);
    }

    /// Observation 1 structurally: the disks of groups of two different
    /// objects may overlap, but any single parity group touches C distinct
    /// disks in a single cluster-row (clustered) or a row plus one
    /// next-cluster disk (improved).
    #[test]
    fn improved_parity_always_on_successor_cluster(
        (d, c) in arb_improved(),
        group in 0u64..64,
        start in 0u32..8,
    ) {
        let geo = Geometry::improved(d, c).unwrap();
        let start = start % geo.clusters();
        let layout = ImprovedLayout::new(geo);
        let dc = layout.data_cluster(start, group);
        let pc = layout.parity_placement(start, group).cluster;
        prop_assert_eq!(pc, geo.next_cluster(dc));
    }

    /// Track numbers enumerate the object contiguously: group-major,
    /// index-minor.
    #[test]
    fn track_numbers_are_dense((d, c) in arb_clustered(), groups in 1u64..10) {
        let geo = Geometry::clustered(d, c).unwrap();
        let layout = ClusteredLayout::new(geo);
        let bpg = layout.blocks_per_group();
        let mut tracks = Vec::new();
        for g in 0..groups {
            for i in 0..bpg {
                let addr = mms_layout::BlockAddr::data(ObjectId(0), g, i);
                tracks.push(addr.track_number(bpg).unwrap());
            }
        }
        let expect: Vec<u64> = (0..groups * u64::from(bpg)).collect();
        prop_assert_eq!(tracks, expect);
    }
}
