//! Server configuration and construction.

use crate::any::AnyScheduler;
use crate::server::MultimediaServer;
use mms_disk::DiskParams;
use mms_exec::Parallelism;
use mms_layout::{
    BandwidthClass, Catalog, CatalogError, ClusteredLayout, Geometry, GeometryError,
    ImprovedLayout, MediaObject, ObjectId,
};
use mms_sched::{CycleConfig, GroupedScheduler, NonClusteredScheduler, TransitionPolicy};
use mms_sim::{DataMode, ObjectDirectory, Simulator, StepMode};
use std::fmt;

/// The fault-tolerance scheme to deploy (Section 5's comparison set).
pub type Scheme = mms_sched::SchemeKind;

/// Errors from [`ServerBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Disk count does not divide into the scheme's clusters.
    Geometry(GeometryError),
    /// An object did not fit or was duplicated.
    Catalog(CatalogError),
    /// No objects were registered.
    EmptyCatalog,
    /// Objects must share one bandwidth class per server (the paper's
    /// cycle length is a function of a single `b₀`; heterogeneous rates
    /// are handled by running one logical server per class, see the GSS
    /// reference \[3\] in the paper).
    MixedBandwidth,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Geometry(e) => write!(f, "geometry: {e}"),
            BuildError::Catalog(e) => write!(f, "catalog: {e}"),
            BuildError::EmptyCatalog => write!(f, "no objects registered"),
            BuildError::MixedBandwidth => {
                write!(f, "all objects of one server must share a bandwidth class")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GeometryError> for BuildError {
    fn from(e: GeometryError) -> Self {
        BuildError::Geometry(e)
    }
}

impl From<CatalogError> for BuildError {
    fn from(e: CatalogError) -> Self {
        BuildError::Catalog(e)
    }
}

/// Builder for a [`MultimediaServer`].
#[derive(Debug)]
pub struct ServerBuilder {
    scheme: Scheme,
    disks: usize,
    c: usize,
    disk_params: DiskParams,
    nc_policy: TransitionPolicy,
    nc_buffer_servers: usize,
    ib_reserved_slots: usize,
    ib_parity_prefetch: bool,
    data_mode: DataMode,
    parallelism: Parallelism,
    step_mode: StepMode,
    movies: Vec<(String, f64, BandwidthClass)>,
    raw_objects: Vec<MediaObject>,
}

impl ServerBuilder {
    /// Start building a server for `scheme` with the paper's Table 1
    /// disk parameters, 10 disks, and parity groups of 5.
    #[must_use]
    pub fn new(scheme: Scheme) -> Self {
        ServerBuilder {
            scheme,
            disks: 10,
            c: 5,
            disk_params: DiskParams::paper_table1(),
            nc_policy: TransitionPolicy::Delayed,
            nc_buffer_servers: 3,
            ib_reserved_slots: 1,
            ib_parity_prefetch: false,
            data_mode: DataMode::Verified { track_bytes: 256 },
            parallelism: Parallelism::Auto,
            step_mode: StepMode::CycleByCycle,
            movies: Vec::new(),
            raw_objects: Vec::new(),
        }
    }

    /// Total disks `D`. Must be a multiple of `C` (clustered schemes) or
    /// `C−1` (improved-bandwidth).
    #[must_use]
    pub fn disks(mut self, d: usize) -> Self {
        self.disks = d;
        self
    }

    /// Parity-group size `C`.
    #[must_use]
    pub fn parity_group(mut self, c: usize) -> Self {
        self.c = c;
        self
    }

    /// Override disk model parameters.
    #[must_use]
    pub fn disk_params(mut self, p: DiskParams) -> Self {
        self.disk_params = p;
        self
    }

    /// Non-clustered transition policy (Figure 6 simple vs Figure 7
    /// delayed; default delayed).
    #[must_use]
    pub fn transition_policy(mut self, p: TransitionPolicy) -> Self {
        self.nc_policy = p;
        self
    }

    /// Non-clustered buffer servers (`K_NC`; default 3, as in the
    /// published tables).
    #[must_use]
    pub fn buffer_servers(mut self, k: usize) -> Self {
        self.nc_buffer_servers = k;
        self
    }

    /// Improved-bandwidth per-disk reserved slots (default 1).
    #[must_use]
    pub fn reserved_slots(mut self, k: usize) -> Self {
        self.ib_reserved_slots = k;
        self
    }

    /// Enable Section 4's adaptive parity prefetch for the
    /// Improved-bandwidth scheme: under light load, parity is read during
    /// normal operation so even a mid-cycle failure causes no hiccup.
    #[must_use]
    pub fn parity_prefetch(mut self, enabled: bool) -> Self {
        self.ib_parity_prefetch = enabled;
        self
    }

    /// Data mode: verified synthetic content (default) or metadata only.
    #[must_use]
    pub fn data_mode(mut self, m: DataMode) -> Self {
        self.data_mode = m;
        self
    }

    /// Worker-pool width for the server's batch experiments (the
    /// Monte-Carlo reliability measurement and any `mms_sim::batch`
    /// grids driven through this server). Purely a performance knob:
    /// results are bit-identical for every setting. Default
    /// [`Parallelism::Auto`].
    #[must_use]
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Simulator step mode (`EventHorizon` fast-forwards idle spans;
    /// observably identical to `Cycle`).
    #[must_use]
    pub fn step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Apply a unified [`crate::RunConfig`]: worker pool and step mode
    /// in one call, so drivers configure the server from the same
    /// object that configures their telemetry.
    #[must_use]
    pub fn run_config(self, cfg: &crate::RunConfig) -> Self {
        self.parallelism(cfg.threads).step_mode(cfg.step_mode)
    }

    /// Register a movie by play length in minutes.
    #[must_use]
    pub fn movie(mut self, name: impl Into<String>, minutes: f64, class: BandwidthClass) -> Self {
        self.movies.push((name.into(), minutes, class));
        self
    }

    /// Register a pre-built object (track count already chosen).
    #[must_use]
    pub fn object(mut self, object: MediaObject) -> Self {
        self.raw_objects.push(object);
        self
    }

    /// Build the server.
    pub fn build(self) -> Result<MultimediaServer, BuildError> {
        // Materialize movie objects with dense ids after raw objects.
        let mut objects = self.raw_objects.clone();
        let first_id = objects.iter().map(|o| o.id.0 + 1).max().unwrap_or(0);
        for (offset, (name, minutes, class)) in self.movies.iter().enumerate() {
            objects.push(MediaObject::movie(
                ObjectId(first_id + offset as u64),
                name.clone(),
                *minutes,
                *class,
                self.disk_params.track_size,
            ));
        }
        if objects.is_empty() {
            return Err(BuildError::EmptyCatalog);
        }
        let b0 = objects[0].class.rate();
        if objects
            .iter()
            .any(|o| (o.class.rate().as_megabits() - b0.as_megabits()).abs() > 1e-9)
        {
            return Err(BuildError::MixedBandwidth);
        }

        let capacity_tracks = self.disk_params.tracks_per_disk();
        let directory = ObjectDirectory::new(
            objects.iter().map(|o| (o.id, o.tracks)),
            (self.c - 1) as u32,
        );
        let object_ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();

        // Tracks read per read cycle and transmitted per cycle. Streaming
        // RAID and Staggered-group are one scheduler at two values of k′.
        let (k, k_prime) = match self.scheme {
            Scheme::StreamingRaid | Scheme::ImprovedBandwidth => (self.c - 1, self.c - 1),
            Scheme::StaggeredGroup => (self.c - 1, 1),
            Scheme::NonClustered => (1, 1),
        };
        let scheduler = match self.scheme {
            Scheme::StreamingRaid | Scheme::StaggeredGroup | Scheme::NonClustered => {
                let geo = Geometry::clustered(self.disks, self.c)?;
                let layout = ClusteredLayout::new(geo);
                let mut catalog = Catalog::new(layout, capacity_tracks);
                for o in objects {
                    catalog.add(o)?;
                }
                let cfg = CycleConfig::new(self.disk_params, b0, k, k_prime);
                if self.scheme == Scheme::NonClustered {
                    AnyScheduler::NonClustered(NonClusteredScheduler::new(
                        cfg,
                        catalog,
                        self.nc_policy,
                        self.nc_buffer_servers,
                    ))
                } else {
                    AnyScheduler::Grouped(GroupedScheduler::new(cfg, catalog))
                }
            }
            Scheme::ImprovedBandwidth => {
                let geo = Geometry::improved(self.disks, self.c)?;
                let layout = ImprovedLayout::new(geo);
                let mut catalog = Catalog::new(layout, capacity_tracks);
                for o in objects {
                    catalog.add(o)?;
                }
                let cfg = CycleConfig::new(self.disk_params, b0, k, k_prime);
                let mut sched =
                    GroupedScheduler::with_reserve(cfg, catalog, self.ib_reserved_slots);
                sched.set_parity_prefetch(self.ib_parity_prefetch);
                AnyScheduler::Improved(sched)
            }
        };

        let sim = Simulator::new(
            scheduler,
            self.disk_params,
            self.disks,
            self.data_mode,
            directory,
        );
        let mut server = MultimediaServer::from_parts(sim, object_ids, self.c, self.parallelism);
        server.set_step_mode(self.step_mode);
        Ok(server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_sched::SchemeScheduler;

    #[test]
    fn builds_every_scheme() {
        for scheme in [
            Scheme::StreamingRaid,
            Scheme::StaggeredGroup,
            Scheme::NonClustered,
        ] {
            let s = ServerBuilder::new(scheme)
                .disks(10)
                .parity_group(5)
                .movie("m", 1.0, BandwidthClass::Mpeg1)
                .build()
                .unwrap();
            assert_eq!(s.scheme(), scheme);
        }
        let s = ServerBuilder::new(Scheme::ImprovedBandwidth)
            .disks(8)
            .parity_group(5)
            .movie("m", 1.0, BandwidthClass::Mpeg1)
            .build()
            .unwrap();
        assert_eq!(s.scheme(), Scheme::ImprovedBandwidth);
    }

    #[test]
    fn rejects_bad_geometry() {
        let err = ServerBuilder::new(Scheme::StreamingRaid)
            .disks(11)
            .parity_group(5)
            .movie("m", 1.0, BandwidthClass::Mpeg1)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Geometry(_)));
    }

    #[test]
    fn rejects_empty_catalog() {
        let err = ServerBuilder::new(Scheme::StreamingRaid)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::EmptyCatalog));
    }

    #[test]
    fn rejects_mixed_bandwidths() {
        let err = ServerBuilder::new(Scheme::StreamingRaid)
            .movie("a", 1.0, BandwidthClass::Mpeg1)
            .movie("b", 1.0, BandwidthClass::Mpeg2)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::MixedBandwidth));
    }

    #[test]
    fn movie_ids_are_dense_after_raw_objects() {
        let server = ServerBuilder::new(Scheme::StreamingRaid)
            .object(MediaObject::new(
                ObjectId(5),
                "raw",
                8,
                BandwidthClass::Mpeg1,
            ))
            .movie("m", 1.0, BandwidthClass::Mpeg1)
            .build()
            .unwrap();
        assert_eq!(server.objects(), &[ObjectId(5), ObjectId(6)]);
    }

    #[test]
    fn scheduler_kind_is_wired_through() {
        let server = ServerBuilder::new(Scheme::NonClustered)
            .movie("m", 1.0, BandwidthClass::Mpeg1)
            .build()
            .unwrap();
        assert!(server.simulator().scheduler().as_non_clustered().is_some());
        assert_eq!(
            server.simulator().scheduler().scheme(),
            Scheme::NonClustered
        );
    }
}
