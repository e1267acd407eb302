//! Scheme-erased scheduler.

use mms_disk::DiskId;
use mms_layout::{Catalog, ClusteredLayout, ImprovedLayout, Layout, ObjectId};
use mms_sched::{
    AdmissionError, CycleConfig, CyclePlan, FailureReport, GroupedScheduler, NonClusteredScheduler,
    PlanStability, SchemeKind, SchemeScheduler, SteadyCycle, StreamId, StreamInfo,
};

/// A scheduler for any of the four schemes, so [`crate::MultimediaServer`]
/// is a single concrete type.
///
/// Two scheduler types serve four schemes: Streaming RAID and
/// Staggered-group are the whole-group scheduler at `k′ = C−1` and
/// `k′ = 1` ([`SchemeScheduler::scheme`] tells them apart), and
/// Improved-bandwidth is the same scheduler over the layout that keeps
/// parity on the next cluster — a variant of its own only because the
/// layout is a type parameter.
///
/// An enum (rather than `Box<dyn SchemeScheduler>`) keeps the concrete
/// schedulers inspectable — e.g. the Non-clustered buffer-server pool —
/// without downcasting.
#[derive(Debug)]
pub enum AnyScheduler {
    /// Streaming RAID or Staggered-group, by the `k′` of its config.
    Grouped(GroupedScheduler<ClusteredLayout>),
    /// Non-clustered with buffer pool.
    NonClustered(NonClusteredScheduler),
    /// Improved-bandwidth.
    Improved(GroupedScheduler<ImprovedLayout>),
}

macro_rules! delegate {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            AnyScheduler::Grouped($s) => $body,
            AnyScheduler::NonClustered($s) => $body,
            AnyScheduler::Improved($s) => $body,
        }
    };
}

/// [`AnyScheduler::rebuild_spec`] over any layout's catalog.
fn parity_rebuild<L: Layout>(catalog: &Catalog<L>, disk: DiskId) -> (Vec<DiskId>, u64) {
    let geo = catalog.layout().geometry();
    let cluster = geo.cluster_of(disk);
    let mut sources = geo.cluster_disks(cluster);
    sources.retain(|&d| d != disk);
    if !geo.has_parity_disk() {
        sources.extend(geo.cluster_disks(geo.next_cluster(cluster)));
    }
    (sources, catalog.blocks_on_disk(disk).len() as u64)
}

impl AnyScheduler {
    /// The Non-clustered scheduler, if that is the configured scheme.
    #[must_use]
    pub fn as_non_clustered(&self) -> Option<&NonClusteredScheduler> {
        match self {
            AnyScheduler::NonClustered(s) => Some(s),
            _ => None,
        }
    }

    /// The Improved-bandwidth scheduler, if that is the configured scheme.
    #[must_use]
    pub fn as_improved(&self) -> Option<&GroupedScheduler<ImprovedLayout>> {
        match self {
            AnyScheduler::Improved(s) => Some(s),
            _ => None,
        }
    }

    /// Source disks and track count for rebuilding `disk` from parity:
    /// the other disks of its cluster (whose surviving group members and
    /// parity XOR back to the lost contents), plus — for a layout without
    /// a dedicated parity disk — the next cluster's disks, which host this
    /// cluster's parity blocks.
    #[must_use]
    pub fn rebuild_spec(&self, disk: DiskId) -> (Vec<DiskId>, u64) {
        delegate!(self, s => parity_rebuild(s.catalog(), disk))
    }
}

impl AnyScheduler {
    /// Register a newly staged object in whichever scheme's catalog.
    pub fn register_object(
        &mut self,
        object: mms_layout::MediaObject,
    ) -> Result<(), mms_layout::CatalogError> {
        delegate!(self, s => s.register_object(object))
    }

    /// Retire an object from whichever scheme's catalog.
    pub fn retire_object(&mut self, object: ObjectId) -> Result<(), mms_sched::RetireError> {
        delegate!(self, s => s.retire_object(object))
    }
}

impl SchemeScheduler for AnyScheduler {
    fn scheme(&self) -> SchemeKind {
        delegate!(self, s => s.scheme())
    }

    fn config(&self) -> &CycleConfig {
        delegate!(self, s => s.config())
    }

    fn admit(&mut self, object: ObjectId, at_cycle: u64) -> Result<StreamId, AdmissionError> {
        delegate!(self, s => s.admit(object, at_cycle))
    }

    fn stream_capacity(&self) -> usize {
        delegate!(self, s => s.stream_capacity())
    }

    fn active_streams(&self) -> usize {
        delegate!(self, s => s.active_streams())
    }

    fn stream_info(&self, id: StreamId) -> Option<StreamInfo> {
        delegate!(self, s => s.stream_info(id))
    }

    fn release(&mut self, id: StreamId) -> bool {
        delegate!(self, s => s.release(id))
    }

    fn plan_cycle_into(&mut self, cycle: u64, plan: &mut CyclePlan) {
        delegate!(self, s => s.plan_cycle_into(cycle, plan))
    }

    fn on_disk_failure(&mut self, disk: DiskId, cycle: u64, mid_cycle: bool) -> FailureReport {
        delegate!(self, s => s.on_disk_failure(disk, cycle, mid_cycle))
    }

    fn on_disk_repair(&mut self, disk: DiskId, cycle: u64) {
        delegate!(self, s => s.on_disk_repair(disk, cycle))
    }

    fn buffer_in_use(&self) -> usize {
        delegate!(self, s => s.buffer_in_use())
    }

    fn buffer_high_water(&self) -> usize {
        delegate!(self, s => s.buffer_high_water())
    }

    fn plan_stability(&self, cycle: u64) -> PlanStability {
        delegate!(self, s => s.plan_stability(cycle))
    }

    fn steady_cycle(&self, cycle: u64, out: &mut SteadyCycle) -> bool {
        delegate!(self, s => s.steady_cycle(cycle, out))
    }

    fn fast_forward(&mut self, cycles: u64) {
        delegate!(self, s => s.fast_forward(cycles))
    }
}
