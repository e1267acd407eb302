//! The Improved-bandwidth layout (Section 4, Figure 8).

use crate::geometry::{ClusterId, Geometry};
use crate::placement::Placement;
use crate::Layout;

/// The improved-bandwidth layout: "Instead of having dedicated parity
/// disks, which are only used for reading in case of failure, we can
/// intermix data and parity information on disks … distribute the parity
/// information associated with data on disk cluster `i` over the disks of
/// disk cluster `i + 1`."
///
/// Clusters here are `C − 1` disks wide (all data): a parity group's
/// `C − 1` data blocks occupy one whole cluster row and its parity block
/// sits on a disk of the *next* cluster. In Figure 8, `X0–X3` sit on disks
/// 0–3 (cluster 0) and `X0p` on disk 4 (cluster 1); `Y0p` on disk 5, `Z0p`
/// on disk 6 — parity is rotated across the next cluster's disks so no
/// single disk absorbs all of a cluster's parity load. We rotate by the
/// group ordinal; the figure's `X/Y/Z` staircase across objects is the
/// same rotation shifted by one disk per object (`repro fig8_layout`
/// draws it).
///
/// The consequence the paper highlights: "certain disks belong to two
/// parity groups; for instance, disk 4 in Figure 8 belongs to two different
/// parity groups because it acts as the parity disk for cluster 0 and as a
/// data disk for cluster 1" — which is why a failure in each of two
/// *adjacent* clusters loses data (see `mms-reliability`).
#[derive(Debug, Clone, Copy)]
pub struct ImprovedLayout {
    geometry: Geometry,
}

impl ImprovedLayout {
    /// Build over an improved geometry.
    ///
    /// # Panics
    /// Panics if the geometry has dedicated parity disks.
    #[must_use]
    pub fn new(geometry: Geometry) -> Self {
        assert!(
            !geometry.has_parity_disk(),
            "ImprovedLayout requires an improved geometry"
        );
        ImprovedLayout { geometry }
    }
}

impl Layout for ImprovedLayout {
    fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    fn data_placement(&self, start_cluster: u32, group: u64, index: u32) -> Placement {
        debug_assert!(index < self.blocks_per_group());
        let cluster = self.data_cluster(start_cluster, group);
        Placement {
            cluster,
            disk: self.geometry.disk_at(cluster, index),
        }
    }

    fn parity_placement(&self, start_cluster: u32, group: u64) -> Placement {
        let data_cluster = self.data_cluster(start_cluster, group);
        let cluster = self.geometry.next_cluster(data_cluster);
        let width = u64::from(self.geometry.disks_per_cluster());
        let pos = group % width;
        Placement {
            cluster,
            disk: self.geometry.disk_at(cluster, pos as u32),
        }
    }

    fn data_cluster(&self, start_cluster: u32, group: u64) -> ClusterId {
        let nc = u64::from(self.geometry.clusters());
        ClusterId(((u64::from(start_cluster) + group) % nc) as u32)
    }

    fn blocks_per_group(&self) -> u32 {
        self.geometry.data_blocks_per_group()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_disk::DiskId;

    fn layout() -> ImprovedLayout {
        ImprovedLayout::new(Geometry::improved(8, 5).unwrap())
    }

    #[test]
    fn figure8_data_row() {
        // X0..X3 on disks 0..3 (cluster 0).
        let l = layout();
        for i in 0..4 {
            let p = l.data_placement(0, 0, i);
            assert_eq!(p.cluster, ClusterId(0));
            assert_eq!(p.disk, DiskId(i));
        }
    }

    #[test]
    fn figure8_parity_on_next_cluster() {
        // X0p lands on cluster 1 (disk 4 with salt 0).
        let l = layout();
        let p = l.parity_placement(0, 0);
        assert_eq!(p.cluster, ClusterId(1));
        assert_eq!(p.disk, DiskId(4));
        // Group 1's data is on cluster 1; its parity wraps to cluster 0.
        let p1 = l.parity_placement(0, 1);
        assert_eq!(p1.cluster, ClusterId(0));
        assert_eq!(p1.disk, DiskId(1)); // rotated by group ordinal
    }

    #[test]
    fn parity_never_on_data_cluster() {
        let l = layout();
        for start in 0..2 {
            for group in 0..10 {
                let dc = l.data_cluster(start, group);
                let pc = l.parity_placement(start, group).cluster;
                assert_ne!(dc, pc, "start {start} group {group}");
                assert_eq!(pc, l.geometry().next_cluster(dc));
            }
        }
    }

    #[test]
    fn group_disks_are_distinct() {
        let l = layout();
        for group in 0..8 {
            let mut disks = l.group_disks(0, group);
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "improved geometry")]
    fn rejects_clustered_geometry() {
        let _ = ImprovedLayout::new(Geometry::clustered(10, 5).unwrap());
    }
}
