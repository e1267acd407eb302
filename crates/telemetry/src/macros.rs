//! The user-facing macros. All of them hit the same fast path: one
//! thread-local check ([`enabled`](crate::enabled) /
//! [`active`](crate::active)) before any field or label is built.

/// Emit a point-in-time event.
///
/// ```
/// use mms_telemetry::{event, Level};
/// event!(Level::Info, "disk_failure", disk = 2u64, mid_cycle = false);
/// ```
///
/// Field values may be any type convertible into
/// [`Value`](crate::Value): unsigned/signed integers, floats, bools,
/// `&'static str`, or `String`.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        if $crate::enabled(level) {
            $crate::dispatch_event($crate::EventRecord {
                level,
                target: module_path!(),
                name: $name,
                kind: $crate::EventKind::Event,
                fields: vec![$((stringify!($key), $crate::Value::from($value))),*],
            });
        }
    }};
}

/// Open a span, returning a [`SpanGuard`](crate::SpanGuard) that closes
/// it on drop. Bind the guard (`let _span = span!(…)`) so it lives to
/// the end of the scope.
///
/// ```
/// use mms_telemetry::{span, Level};
/// let _cycle = span!(Level::Debug, "cycle", cycle = 7u64);
/// ```
#[macro_export]
macro_rules! span {
    ($level:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        let fields = if $crate::enabled(level) {
            vec![$((stringify!($key), $crate::Value::from($value))),*]
        } else {
            Vec::new()
        };
        $crate::SpanGuard::new(level, module_path!(), $name, fields)
    }};
}

/// Add `delta` to the counter `name` with the given labels.
///
/// ```
/// use mms_telemetry::counter;
/// counter!("sim.delivered", 5, scheme = "SR");
/// ```
///
/// Label values may be unsigned integers, bools, `&'static str`, or
/// `String` (see [`LabelValue`](crate::LabelValue)).
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        if $crate::active() {
            $crate::dispatch_counter(
                $name,
                $crate::Labels::new(vec![
                    $((stringify!($key), $crate::LabelValue::from($value))),*
                ]),
                $delta,
            );
        }
    }};
}

/// Set the gauge `name` with the given labels to `value` (an `f64`).
///
/// ```
/// use mms_telemetry::gauge;
/// gauge!("rebuild.progress", 0.25, disk = 2u64);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr $(, $key:ident = $value2:expr)* $(,)?) => {{
        if $crate::active() {
            $crate::dispatch_gauge(
                $name,
                $crate::Labels::new(vec![
                    $((stringify!($key), $crate::LabelValue::from($value2))),*
                ]),
                $value,
            );
        }
    }};
}

/// Record one `f64` sample into the histogram `name` with the given
/// labels.
///
/// ```
/// use mms_telemetry::histogram;
/// histogram!("disk.service_ms", 11.9, disk = 0u64);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr $(, $key:ident = $value2:expr)* $(,)?) => {{
        if $crate::active() {
            $crate::dispatch_histogram(
                $name,
                $crate::Labels::new(vec![
                    $((stringify!($key), $crate::LabelValue::from($value2))),*
                ]),
                $value,
            );
        }
    }};
}

/// Record one `f64` sample into the streaming p50/p95/p99 quantile set
/// `name` with the given labels.
///
/// ```
/// use mms_telemetry::quantile;
/// quantile!("workload.wait_cycles", 3.0, scheme = "SR");
/// ```
#[macro_export]
macro_rules! quantile {
    ($name:expr, $value:expr $(, $key:ident = $value2:expr)* $(,)?) => {{
        if $crate::active() {
            $crate::dispatch_quantile(
                $name,
                $crate::Labels::new(vec![
                    $((stringify!($key), $crate::LabelValue::from($value2))),*
                ]),
                $value,
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::{Labels, Level, Recorder, Value};

    #[test]
    fn macros_capture_fields_and_labels() {
        let rec = Recorder::new(Level::Trace);
        {
            let _g = rec.install();
            crate::event!(Level::Warn, "hiccup", reason = "failed-disk", cycle = 4u64);
            crate::counter!("sim.hiccups", 1, reason = "failed-disk");
            crate::gauge!("sim.buffer", 3.0);
            crate::histogram!("svc", 2.5, disk = 1u64);
            crate::quantile!("wait", 4.0, scheme = "SR");
        }
        let events = rec.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field("reason"), Some(&Value::from("failed-disk")));
        let snap = rec.snapshot();
        let reason = Labels::new(vec![("reason", "failed-disk".into())]);
        assert_eq!(snap.counter("sim.hiccups", &reason), 1);
        assert_eq!(snap.gauge("sim.buffer", &Labels::empty()), Some(3.0));
        let disk = Labels::new(vec![("disk", 1u64.into())]);
        assert_eq!(snap.histogram("svc", &disk).unwrap().sum(), 2.5);
        let quantiles = snap.quantiles().values().next().unwrap();
        assert_eq!(quantiles.count(), 1);
        assert_eq!(quantiles.p50(), Some(4.0));
    }

    #[test]
    fn disabled_level_skips_field_construction() {
        let rec = Recorder::new(Level::Error);
        let _g = rec.install();
        let mut evaluated = false;
        crate::event!(
            Level::Debug,
            "quiet",
            x = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated, "fields must not be built for filtered levels");
        let _span = crate::span!(
            Level::Debug,
            "quiet_span",
            y = {
                evaluated = true;
                2u64
            }
        );
        assert!(!evaluated);
    }
}
