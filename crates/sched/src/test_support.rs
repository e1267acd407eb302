//! Helpers for tests of schedulers, in this crate and downstream.

use crate::{CyclePlan, SchemeScheduler};

/// Plan `cycle` into a fresh plan. Drivers reuse one plan through
/// [`SchemeScheduler::plan_cycle_into`]; a test that wants to hold
/// several cycles' plans side by side calls this instead.
pub fn plan_cycle<S: SchemeScheduler + ?Sized>(scheduler: &mut S, cycle: u64) -> CyclePlan {
    let mut plan = CyclePlan::empty(cycle);
    scheduler.plan_cycle_into(cycle, &mut plan);
    plan
}
