//! The collector: an in-memory [`Recorder`] that buffers events and owns
//! a [`Registry`], and the thread-local stack the macros dispatch to.
//!
//! Installing a recorder is scoped and stack-shaped:
//! [`Recorder::install`] returns a guard; the macros dispatch to the top
//! of the stack. With the stack empty (the default everywhere) every
//! macro reduces to one thread-local flag read — the no-op fast path.

use crate::event::EventRecord;
use crate::registry::{Labels, Registry};
use crate::Level;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A recorder's state, shared by its clones and the collector stack.
struct Inner {
    max_level: Level,
    events: RefCell<Vec<EventRecord>>,
    registry: RefCell<Registry>,
}

thread_local! {
    static STACK: RefCell<Vec<Rc<Inner>>> = const { RefCell::new(Vec::new()) };
    /// Cached `(stack non-empty, top max_level)` for the fast path.
    static TOP_LEVEL: Cell<Option<Level>> = const { Cell::new(None) };
}

/// Pops the recorder installed by the matching [`Recorder::install`].
#[must_use = "dropping the guard immediately uninstalls the collector"]
#[derive(Debug)]
pub struct CollectorGuard {
    _private: (),
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            TOP_LEVEL.with(|t| t.set(s.last().map(|top| top.max_level)));
        });
    }
}

/// Whether any collector is installed on this thread.
#[inline]
#[must_use]
pub fn active() -> bool {
    TOP_LEVEL.with(|t| t.get().is_some())
}

/// The installed collector's max level, if one is installed.
#[inline]
#[must_use]
pub fn current_max_level() -> Option<Level> {
    TOP_LEVEL.with(Cell::get)
}

/// Whether a record at `level` would reach the installed collector.
/// The macros call this before building fields, so disabled levels cost
/// nothing but this check.
#[inline]
#[must_use]
pub fn enabled(level: Level) -> bool {
    current_max_level().is_some_and(|max| level <= max)
}

fn with_top(f: impl FnOnce(&Inner)) {
    STACK.with(|s| {
        if let Some(top) = s.borrow().last() {
            f(top);
        }
    });
}

fn with_registry(f: impl FnOnce(&mut Registry)) {
    with_top(|top| f(&mut top.registry.borrow_mut()));
}

/// Dispatch an event to the installed collector (top of stack).
pub fn dispatch_event(event: EventRecord) {
    with_top(|top| {
        if event.level <= top.max_level {
            top.events.borrow_mut().push(event);
        }
    });
}

/// Dispatch a counter increment.
pub fn dispatch_counter(name: &'static str, labels: Labels, delta: u64) {
    with_registry(|r| r.counter_add(name, labels, delta));
}

/// Dispatch a gauge write.
pub fn dispatch_gauge(name: &'static str, labels: Labels, value: f64) {
    with_registry(|r| r.gauge_set(name, labels, value));
}

/// Dispatch a histogram observation.
pub fn dispatch_histogram(name: &'static str, labels: Labels, value: f64) {
    with_registry(|r| r.histogram_observe(name, labels, value));
}

/// Dispatch a streaming-quantile observation.
pub fn dispatch_quantile(name: &'static str, labels: Labels, value: f64) {
    with_registry(|r| r.quantile_observe(name, labels, value));
}

/// Hand a finished parallel job's captured telemetry to the installed
/// collector (no-op if none): its events are replayed in order, then
/// its registry merged. Parallel layers call this once per job, in job
/// index order, which is what makes traced parallel runs bit-identical
/// to sequential ones.
pub fn dispatch_absorb(events: Vec<EventRecord>, registry: &Registry) {
    with_top(|top| {
        top.events
            .borrow_mut()
            .extend(events.into_iter().filter(|e| e.level <= top.max_level));
        top.registry.borrow_mut().merge(registry);
    });
}

/// An in-memory collector: events accumulate in arrival order, metrics
/// in a [`Registry`]. Clone-cheap (`Rc` inside); clones share the same
/// buffers. Single-threaded: installed per thread, or per job in a
/// worker pool — that is what keeps the hot path lock-free and the
/// merged output deterministic.
///
/// This is the collector `mms-exec` creates per parallel job and the one
/// `mms-ctl` installs for `--telemetry`.
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("max_level", &self.inner.max_level)
            .field("events", &self.inner.events.borrow().len())
            .finish()
    }
}

impl Recorder {
    /// A recorder that keeps records up to and including `max_level`.
    #[must_use]
    pub fn new(max_level: Level) -> Self {
        Recorder {
            inner: Rc::new(Inner {
                max_level,
                events: RefCell::new(Vec::new()),
                registry: RefCell::new(Registry::new()),
            }),
        }
    }

    /// Install this recorder on the current thread's collector stack;
    /// it receives records until the guard drops. Nested installs
    /// shadow outer ones.
    pub fn install(&self) -> CollectorGuard {
        STACK.with(|s| {
            TOP_LEVEL.with(|t| t.set(Some(self.inner.max_level)));
            s.borrow_mut().push(self.inner.clone());
        });
        CollectorGuard { _private: () }
    }

    /// Number of buffered events.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.inner.events.borrow().len()
    }

    /// Drain the buffered events, leaving the buffer empty.
    #[must_use]
    pub fn take_events(&self) -> Vec<EventRecord> {
        self.inner.events.take()
    }

    /// A copy of the current metrics. The registry's maps are
    /// key-ordered, so the copy exports deterministically.
    #[must_use]
    pub fn snapshot(&self) -> Registry {
        self.inner.registry.borrow().clone()
    }

    /// Run `f` with mutable access to the underlying registry. Post-run
    /// publishers (e.g. [`HealthModel::publish_to`](crate::HealthModel::publish_to))
    /// use this to add derived metrics before the final snapshot.
    pub fn with_registry_mut(&self, f: impl FnOnce(&mut Registry)) {
        f(&mut self.inner.registry.borrow_mut());
    }

    /// Extract the buffered events and the registry as owned (and
    /// `Send`) data, emptying this recorder. This is how a worker thread
    /// returns a job's telemetry to the caller for in-order absorption.
    #[must_use]
    pub fn into_parts(self) -> (Vec<EventRecord>, Registry) {
        (self.inner.events.take(), self.inner.registry.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, event, gauge, histogram, span};

    #[test]
    fn stack_install_and_shadowing() {
        assert!(!active());
        assert!(!enabled(Level::Error));
        let outer = Recorder::new(Level::Info);
        let _g1 = outer.install();
        assert!(active());
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        {
            let inner = Recorder::new(Level::Trace);
            let _g2 = inner.install();
            assert!(enabled(Level::Trace));
            event!(Level::Debug, "inner_only");
            assert_eq!(inner.take_events().len(), 1);
        }
        // Back to the outer collector and its filter.
        assert!(!enabled(Level::Debug));
        event!(Level::Info, "outer");
        assert_eq!(outer.take_events().len(), 1);
    }

    #[test]
    fn no_collector_means_no_dispatch() {
        // Must not panic, must not leak anywhere.
        event!(Level::Error, "nobody_listens", x = 1u64);
        counter!("c", 1);
        assert_eq!(current_max_level(), None);
    }

    #[test]
    fn records_respect_max_level() {
        let rec = Recorder::new(Level::Info);
        let _g = rec.install();
        event!(Level::Warn, "kept");
        event!(Level::Debug, "filtered");
        drop(_g);
        let events = rec.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "kept");
    }

    #[test]
    fn spans_nest_strictly() {
        let rec = Recorder::new(Level::Debug);
        {
            let _g = rec.install();
            let _outer = span!(Level::Debug, "outer", cycle = 1u64);
            {
                let _inner = span!(Level::Debug, "inner");
                event!(Level::Info, "mid");
            }
        }
        let names: Vec<_> = rec.take_events().iter().map(|e| (e.name, e.kind)).collect();
        use crate::EventKind::*;
        assert_eq!(
            names,
            vec![
                ("outer", SpanOpen),
                ("inner", SpanOpen),
                ("mid", Event),
                ("inner", SpanClose),
                ("outer", SpanClose),
            ]
        );
    }

    #[test]
    fn metrics_land_in_registry() {
        let rec = Recorder::new(Level::Info);
        let _g = rec.install();
        counter!("sim.delivered", 5, scheme = "SR");
        counter!("sim.delivered", 2, scheme = "SR");
        gauge!("rebuild.progress", 0.5, disk = 2u64);
        histogram!("disk.service_ms", 12.0, disk = 0u64);
        drop(_g);
        let snap = rec.snapshot();
        assert_eq!(snap.counters().len(), 1);
        assert_eq!(snap.counter_total("sim.delivered"), 7);
        assert_eq!(snap.gauges().values().next(), Some(&0.5));
        assert_eq!(snap.histograms().values().next().unwrap().count(), 1);
    }

    #[test]
    fn absorb_replays_in_order_and_merges_metrics() {
        // Simulate two "jobs", absorb them in index order, and check the
        // ambient recorder sees the concatenation.
        let job = |tag: &'static str| {
            let r = Recorder::new(Level::Debug);
            {
                let _g = r.install();
                event!(Level::Debug, "job", tag = tag);
                counter!("jobs", 1);
            }
            r.into_parts()
        };
        let (e0, r0) = job("a");
        let (e1, r1) = job("b");

        let ambient = Recorder::new(Level::Debug);
        {
            let _g = ambient.install();
            dispatch_absorb(e0, &r0);
            dispatch_absorb(e1, &r1);
        }
        let events = ambient.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].field("tag").unwrap().to_string(), "a");
        assert_eq!(events[1].field("tag").unwrap().to_string(), "b");
        assert_eq!(
            ambient.snapshot().counter_total("jobs"),
            2,
            "counters sum across absorbed jobs"
        );
    }

    #[test]
    fn into_parts_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let rec = Recorder::new(Level::Info);
        let parts = rec.into_parts();
        assert_send(&parts);
    }
}
