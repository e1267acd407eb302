//! # mms-sched — cycle-based scheduling substrate
//!
//! Implements the scheduling disciplines of *Berson, Golubchik & Muntz
//! (SIGMOD 1995)* on top of the layout, parity, and buffer substrates:
//!
//! | Scheduler | Paper section | `k` | `k'` | Normal-mode parity reads |
//! |---|---|---|---|---|
//! | [`GroupedScheduler`] over a dedicated parity disk | §2: Streaming RAID (Tobagi et al.) at `k' = C−1`, Staggered-group at `k' = 1` | `C−1` | `C−1` or `1` | yes, at each read cycle (every `k/k'` cycles) |
//! | [`GroupedScheduler`] over `ImprovedLayout` | §4: Improved-bandwidth | `C−1` | `C−1` | no (parity on next cluster, on demand) |
//! | [`NonClusteredScheduler`] | §3 | `1` | `1` | no (degraded mode only) |
//! | [`NonClusteredScheduler::unprotected`] | §1's strawman | `1` | `1` | never |
//!
//! Two scheduler types, because the paper has two read disciplines.
//! [`GroupedScheduler`] reads a whole parity group per read cycle: the
//! paper defines Streaming RAID and Staggered-group as two settings of
//! `k'` in one cycle model (Figure 2), any `k′ | C−1` in between is
//! accepted too (the GSS-style continuum of the paper's reference \[3\]),
//! and the layout it is built over says where parity lives — with the
//! group on a dedicated disk, or on the next cluster, which makes it
//! Improved-bandwidth. [`NonClusteredScheduler`] reads one block per
//! stream per cycle and falls back on group-at-a-time reads when a disk
//! fails; built with nothing to fall back on it is the unprotected
//! striped server of Section 1 — no parity at all — the quantitative foil
//! ("without some form of fault tolerance, such a system is not likely to
//! be acceptable").
//!
//! All of them share the cycle model of Section 2: during each time period
//! data for each active stream is read into memory while the data read in
//! the previous cycle is transmitted; reads within a cycle are unordered so
//! one maximum seek bounds the cycle's disk time (`T(r) = τ_seek +
//! r·τ_trk`), which yields the per-disk, per-cycle **slot** capacity used
//! for admission control.
//!
//! Each scheduler exposes the same [`SchemeScheduler`] interface: admit
//! streams, plan one cycle's reads/deliveries, and react to disk failures
//! and repairs. Failure reactions implement the paper's mechanisms
//! exactly — Streaming RAID and Staggered-group mask failures with the
//! already-read parity; the Non-clustered scheduler performs the Figure 6
//! *simple* or Figure 7 *delayed* transition to degraded mode (losing the
//! exact track sets shown in those figures); the Improved-bandwidth
//! scheduler performs Section 4's cascading "shift to the right".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod churn_tests;
mod cycle;
mod grouped;
mod nonclustered;
mod plan;
mod streams;
pub mod table;
#[doc(hidden)]
pub mod test_support;
mod traits;

pub use cycle::CycleConfig;
pub use grouped::GroupedScheduler;
pub use nonclustered::{NonClusteredScheduler, TransitionPolicy};
pub use plan::{
    CyclePlan, Deliveries, Delivery, DeliveryRun, DiskReads, DiskReadsIter, GroupRead, LossReason,
    LostBlock, MemberSet, PlannedRead, ReadPurpose, ReadsOn, ReadsOnIter,
};
pub use streams::{StreamId, StreamInfo};
pub use traits::{
    emit_mode_transition, AdmissionError, FailureReport, PlanStability, RetireError, SchemeKind,
    SchemeScheduler, SteadyCycle,
};
