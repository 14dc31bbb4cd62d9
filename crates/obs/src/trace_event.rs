//! chrome://tracing / Perfetto export.
//!
//! Renders a recorded [`TimeSeries`] as a Trace Event Format JSON
//! document (the `{"traceEvents": [...]}` dialect chrome://tracing and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly):
//!
//! * each [`Phase`] becomes a thread track of complete-duration (`"X"`)
//!   events — one span per sample interval, with the phase's accumulated
//!   wall time in that interval as the span duration;
//! * the sampled series (in-flight packets, queue depth, event-list load,
//!   spill bytes, ...) become counter (`"C"`) tracks.
//!
//! The time axis is the *wall* time of the instrumented run,
//! reconstructed from the cumulative [`Phase::Dispatch`] timer at each
//! tick (the dispatch phase covers the whole event loop). When the run
//! recorded no dispatch time — gate off, probe on — the export falls
//! back to virtual time so the counter tracks still render.

use crate::gate::{Counter, Phase};
use crate::probe::{SeriesRow, TimeSeries};

/// One exported counter track: `(track name, per-row extractor)`.
type CounterTrack = (&'static str, fn(&SeriesRow) -> u64);

/// Counter tracks exported per sample row.
fn counter_tracks() -> Vec<CounterTrack> {
    vec![
        ("in_flight", |r| r.sample.in_flight),
        ("pending_events", |r| r.sample.pending_events),
        ("queued_packets", |r| r.sample.queued_packets),
        ("queued_bytes", |r| r.sample.queued_bytes),
        ("max_port_depth", |r| r.sample.max_port_depth),
        ("events", |r| r.sample.events),
        ("arena_high_water", |r| {
            r.gate.counter(Counter::ArenaHighWater)
        }),
        ("spill_bytes", |r| r.gate.counter(Counter::SpillBytes)),
        ("rank_heap_sift_steps", |r| {
            r.gate.counter(Counter::RankHeapSiftSteps)
        }),
    ]
}

/// Microsecond timestamp of a row on the export axis: cumulative
/// dispatch wall time when available, virtual time otherwise.
fn ts_us(row: &SeriesRow, wall_axis: bool) -> f64 {
    if wall_axis {
        row.gate.phase_ns(Phase::Dispatch) as f64 / 1e3
    } else {
        row.sample.t_ps as f64 / 1e6
    }
}

/// One instant (`"i"`) event to pin onto the exported timeline — how the
/// forensics layer marks replay divergences on the same tracks as the
/// phase spans and counters. Timestamps are *virtual* (picoseconds of
/// sim time); the export maps them onto whichever axis the series uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantMarker {
    /// Virtual time of the event, picoseconds.
    pub t_ps: u64,
    /// Event name as shown in the Perfetto UI (e.g. the divergence
    /// cause).
    pub name: String,
    /// Free-form detail rendered into the event's `args`.
    pub detail: String,
}

/// Map a marker's virtual time onto the export axis: the timestamp of
/// the last sample row at or before `t_ps` (markers between samples
/// snap backward — the sample cadence bounds the error). Falls back to
/// the virtual axis directly when the series is empty or wall time was
/// never recorded.
fn marker_ts_us(series: &TimeSeries, wall_axis: bool, t_ps: u64) -> f64 {
    if !wall_axis {
        return t_ps as f64 / 1e6;
    }
    series
        .rows
        .iter()
        .take_while(|r| r.sample.t_ps <= t_ps)
        .last()
        .or(series.rows.first())
        .map(|r| ts_us(r, wall_axis))
        .unwrap_or(t_ps as f64 / 1e6)
}

/// Render `series` as a Trace Event Format JSON document, with
/// `markers` pinned onto the timeline (rendered as global-scope `"i"`
/// events, which Perfetto draws as flags above the tracks).
pub fn trace_event_json_with_markers(series: &TimeSeries, markers: &[InstantMarker]) -> String {
    let wall_axis = series.final_gate().phase_ns(Phase::Dispatch) > 0;
    let mut ev: Vec<String> = Vec::new();
    ev.push(
        r#"{"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "ups-sim"}}"#
            .to_string(),
    );
    ev.push(
        r#"{"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "samples"}}"#
            .to_string(),
    );
    for p in Phase::ALL {
        ev.push(format!(
            r#"{{"ph": "M", "pid": 1, "tid": {}, "name": "thread_name", "args": {{"name": "phase:{}"}}}}"#,
            p as usize + 1,
            p.name()
        ));
    }

    // Phase spans: one "X" per phase per inter-sample interval, duration
    // = that phase's wall-time delta across the interval.
    for w in series.rows.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        let start = ts_us(prev, wall_axis);
        for p in Phase::ALL {
            let delta_ns = cur.gate.phase_ns(p).saturating_sub(prev.gate.phase_ns(p));
            if delta_ns == 0 {
                continue;
            }
            ev.push(format!(
                r#"{{"ph": "X", "pid": 1, "tid": {}, "name": "{}", "ts": {:.3}, "dur": {:.3}, "args": {{"t_virtual_us": {:.3}}}}}"#,
                p as usize + 1,
                p.name(),
                start,
                delta_ns as f64 / 1e3,
                cur.sample.t_ps as f64 / 1e6
            ));
        }
    }

    // Counter tracks.
    for (name, get) in counter_tracks() {
        for row in &series.rows {
            ev.push(format!(
                r#"{{"ph": "C", "pid": 1, "tid": 0, "name": "{}", "ts": {:.3}, "args": {{"value": {}}}}}"#,
                name,
                ts_us(row, wall_axis),
                get(row)
            ));
        }
    }

    // Instant markers (divergence events and the like).
    for m in markers {
        ev.push(format!(
            r#"{{"ph": "i", "pid": 1, "tid": 0, "s": "g", "name": "{}", "ts": {:.3}, "args": {{"detail": "{}", "t_virtual_us": {:.3}}}}}"#,
            ups_metrics::json_escape(&m.name),
            marker_ts_us(series, wall_axis, m.t_ps),
            ups_metrics::json_escape(&m.detail),
            m.t_ps as f64 / 1e6
        ));
    }

    format!(
        "{{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n{}\n]\n}}\n",
        ev.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::ObsSnapshot;
    use crate::probe::SimSample;

    fn row(t_ps: u64, dispatch_ns: u64, in_flight: u64) -> SeriesRow {
        let mut gate = ObsSnapshot::default();
        gate.phase_ns[Phase::Dispatch as usize] = dispatch_ns;
        gate.phase_ns[Phase::Enqueue as usize] = dispatch_ns / 2;
        SeriesRow {
            sample: SimSample {
                t_ps,
                in_flight,
                pending_events: 5,
                queued_packets: 2,
                queued_bytes: 3000,
                max_port_depth: 2,
                events: 10,
            },
            gate,
        }
    }

    #[test]
    fn export_has_spans_counters_and_balanced_json() {
        let series = TimeSeries {
            interval_ps: 1000,
            rows: vec![row(1000, 10_000, 3), row(2000, 25_000, 4)],
            ..TimeSeries::default()
        };
        let j = trace_event_json_with_markers(&series, &[]);
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("phase:dispatch"));
        assert!(j.contains(r#""ph": "X""#), "phase spans present");
        assert!(j.contains(r#""ph": "C""#), "counter events present");
        assert!(j.contains("in_flight"));
        // Structural sanity: brackets/braces balance.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = j.matches(open).count();
            let c = j.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn markers_render_as_instant_events() {
        let series = TimeSeries {
            interval_ps: 1000,
            rows: vec![row(1000, 10_000, 3), row(2000, 25_000, 4)],
            ..TimeSeries::default()
        };
        let markers = vec![InstantMarker {
            t_ps: 1500,
            name: "overdue_beyond_t".into(),
            detail: "packet 7 \"late\" at NodeId(2)".into(),
        }];
        let j = trace_event_json_with_markers(&series, &markers);
        assert!(j.contains(r#""ph": "i""#), "instant event present: {j}");
        assert!(j.contains("overdue_beyond_t"));
        assert!(
            j.contains(r#"packet 7 \"late\" at NodeId(2)"#),
            "escaped detail"
        );
        // Wall axis: t_ps 1500 snaps back to the row at t_ps 1000, whose
        // dispatch time is 10 µs.
        assert!(
            j.contains(r#""name": "overdue_beyond_t", "ts": 10.000"#),
            "{j}"
        );
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(j.matches(open).count(), j.matches(close).count());
        }
    }

    #[test]
    fn virtual_axis_fallback_when_no_dispatch_time() {
        let series = TimeSeries {
            interval_ps: 1000,
            rows: vec![row(1_000_000, 0, 1)],
            ..TimeSeries::default()
        };
        let j = trace_event_json_with_markers(&series, &[]);
        // t_ps = 1e6 ps = 1 µs on the virtual axis.
        assert!(j.contains("\"ts\": 1.000"), "virtual-time fallback: {j}");
    }
}
