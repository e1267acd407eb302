//! Disk/cluster geometry arithmetic.

use mms_disk::DiskId;
use std::fmt;

/// Identifier of a disk cluster, dense from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The id as an index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Errors constructing a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// Total disks is not a positive multiple of the cluster width.
    NotDivisible {
        /// Total disk count requested.
        disks: usize,
        /// Disks per cluster requested.
        per_cluster: usize,
    },
    /// The parity-group size is too small (need at least 2: one data block
    /// plus parity, the degenerate mirroring case).
    GroupTooSmall {
        /// The requested group size `C`.
        c: usize,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NotDivisible { disks, per_cluster } => write!(
                f,
                "{disks} disks cannot be divided into clusters of {per_cluster}"
            ),
            GeometryError::GroupTooSmall { c } => {
                write!(f, "parity group size {c} < 2")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// How the array is carved into clusters.
///
/// Two variants exist because the improved-bandwidth scheme has no parity
/// disk: for a parity-group size `C`,
///
/// * **clustered** geometry (SR/SG/NC) has clusters of `C` disks —
///   `C−1` data disks followed by one dedicated parity disk;
/// * **improved** geometry has clusters of `C−1` disks, all of which hold
///   data (parity rides on the next cluster's disks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    disks: u32,
    group_size: u32,
    disks_per_cluster: u32,
    /// `disks / disks_per_cluster`, kept so the per-stream planners that
    /// ask for it (and for the next cluster) do not divide each time.
    clusters: u32,
    has_parity_disk: bool,
}

impl Geometry {
    /// Geometry for the clustered schemes: `disks` drives in clusters of
    /// `c` (the parity-group size, including the parity disk). `disks` must
    /// be a positive multiple of `c`.
    pub fn clustered(disks: usize, c: usize) -> Result<Self, GeometryError> {
        if c < 2 {
            return Err(GeometryError::GroupTooSmall { c });
        }
        if disks == 0 || !disks.is_multiple_of(c) {
            return Err(GeometryError::NotDivisible {
                disks,
                per_cluster: c,
            });
        }
        Ok(Geometry {
            disks: disks as u32,
            group_size: c as u32,
            disks_per_cluster: c as u32,
            clusters: (disks / c) as u32,
            has_parity_disk: true,
        })
    }

    /// Geometry for the improved-bandwidth scheme: `disks` drives in
    /// clusters of `c − 1` (all data). There must be at least two clusters,
    /// since parity lives on the *next* cluster.
    pub fn improved(disks: usize, c: usize) -> Result<Self, GeometryError> {
        if c < 2 {
            return Err(GeometryError::GroupTooSmall { c });
        }
        let per = c - 1;
        if disks == 0 || !disks.is_multiple_of(per) || disks / per < 2 {
            return Err(GeometryError::NotDivisible {
                disks,
                per_cluster: per,
            });
        }
        Ok(Geometry {
            disks: disks as u32,
            group_size: c as u32,
            disks_per_cluster: per as u32,
            clusters: (disks / per) as u32,
            has_parity_disk: false,
        })
    }

    /// Total drives, the paper's `D`.
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// Parity-group size `C` (data blocks + parity block).
    #[must_use]
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Data blocks per group, `C − 1`.
    #[must_use]
    pub fn data_blocks_per_group(&self) -> u32 {
        self.group_size - 1
    }

    /// Drives per cluster (`C` for clustered, `C − 1` for improved).
    #[must_use]
    pub fn disks_per_cluster(&self) -> u32 {
        self.disks_per_cluster
    }

    /// Number of clusters, the paper's `N_C`.
    #[must_use]
    #[inline]
    pub fn clusters(&self) -> u32 {
        self.clusters
    }

    /// Whether each cluster has a dedicated parity disk.
    #[must_use]
    pub fn has_parity_disk(&self) -> bool {
        self.has_parity_disk
    }

    /// The paper's `D'`: disks from which data is read. Equals `D` for the
    /// improved geometry and `D·(C−1)/C` for clustered ones.
    #[must_use]
    pub fn data_disks(&self) -> u32 {
        if self.has_parity_disk {
            self.clusters() * (self.group_size - 1)
        } else {
            self.disks
        }
    }

    /// The cluster containing a disk.
    #[must_use]
    pub fn cluster_of(&self, disk: DiskId) -> ClusterId {
        debug_assert!(disk.0 < self.disks);
        ClusterId(disk.0 / self.disks_per_cluster)
    }

    /// A disk's index within its cluster.
    #[must_use]
    pub fn position_in_cluster(&self, disk: DiskId) -> u32 {
        debug_assert!(disk.0 < self.disks);
        disk.0 % self.disks_per_cluster
    }

    /// The `pos`-th disk of a cluster.
    #[must_use]
    pub fn disk_at(&self, cluster: ClusterId, pos: u32) -> DiskId {
        debug_assert!(cluster.0 < self.clusters());
        debug_assert!(pos < self.disks_per_cluster);
        DiskId(cluster.0 * self.disks_per_cluster + pos)
    }

    /// All disks of a cluster, in position order.
    #[must_use]
    pub fn cluster_disks(&self, cluster: ClusterId) -> Vec<DiskId> {
        (0..self.disks_per_cluster)
            .map(|p| self.disk_at(cluster, p))
            .collect()
    }

    /// The dedicated parity disk of a cluster (clustered geometry only).
    #[must_use]
    pub fn parity_disk(&self, cluster: ClusterId) -> Option<DiskId> {
        self.has_parity_disk
            .then(|| self.disk_at(cluster, self.disks_per_cluster - 1))
    }

    /// Whether `disk` is a dedicated parity disk.
    #[must_use]
    pub fn is_parity_disk(&self, disk: DiskId) -> bool {
        self.has_parity_disk && self.position_in_cluster(disk) == self.disks_per_cluster - 1
    }

    /// The cluster after `cluster`, wrapping around (used both for
    /// round-robin group placement and for the improved scheme's
    /// "shift to the right").
    #[must_use]
    #[inline]
    pub fn next_cluster(&self, cluster: ClusterId) -> ClusterId {
        debug_assert!(cluster.0 < self.clusters);
        let next = cluster.0 + 1;
        ClusterId(if next == self.clusters { 0 } else { next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_geometry_figure3() {
        // Figure 3: two clusters of 5 (4 data + parity on disks 4 and 9).
        let g = Geometry::clustered(10, 5).unwrap();
        assert_eq!(g.clusters(), 2);
        assert_eq!(g.data_disks(), 8);
        assert_eq!(g.parity_disk(ClusterId(0)), Some(DiskId(4)));
        assert_eq!(g.parity_disk(ClusterId(1)), Some(DiskId(9)));
        assert!(g.is_parity_disk(DiskId(4)));
        assert!(!g.is_parity_disk(DiskId(3)));
        assert_eq!(g.cluster_of(DiskId(7)), ClusterId(1));
        assert_eq!(g.position_in_cluster(DiskId(7)), 2);
    }

    #[test]
    fn improved_geometry_figure8() {
        // Figure 8: two clusters of 4 disks, parity group size 5.
        let g = Geometry::improved(8, 5).unwrap();
        assert_eq!(g.clusters(), 2);
        assert_eq!(g.disks_per_cluster(), 4);
        assert_eq!(g.data_disks(), 8); // D' = D
        assert_eq!(g.parity_disk(ClusterId(0)), None);
        assert!(!g.is_parity_disk(DiskId(3)));
        assert_eq!(g.cluster_of(DiskId(4)), ClusterId(1));
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert!(matches!(
            Geometry::clustered(11, 5),
            Err(GeometryError::NotDivisible { .. })
        ));
        assert!(matches!(
            Geometry::clustered(10, 1),
            Err(GeometryError::GroupTooSmall { .. })
        ));
        // Improved needs >= 2 clusters.
        assert!(matches!(
            Geometry::improved(4, 5),
            Err(GeometryError::NotDivisible { .. })
        ));
        assert!(Geometry::improved(8, 5).is_ok());
    }

    #[test]
    fn next_cluster_wraps() {
        let g = Geometry::clustered(15, 5).unwrap();
        assert_eq!(g.next_cluster(ClusterId(0)), ClusterId(1));
        assert_eq!(g.next_cluster(ClusterId(2)), ClusterId(0));
    }

    #[test]
    fn cluster_disks_are_contiguous() {
        let g = Geometry::clustered(10, 5).unwrap();
        let d: Vec<u32> = g.cluster_disks(ClusterId(1)).iter().map(|d| d.0).collect();
        assert_eq!(d, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn mirroring_case_c2() {
        // C = 2 "effectively mirroring" — one data disk + one parity disk.
        let g = Geometry::clustered(4, 2).unwrap();
        assert_eq!(g.data_blocks_per_group(), 1);
        assert_eq!(g.clusters(), 2);
    }
}
