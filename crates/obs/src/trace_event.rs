//! chrome://tracing / Perfetto export.
//!
//! Renders a recorded [`TimeSeries`] as a Trace Event Format JSON
//! document (the `{"traceEvents": [...]}` dialect chrome://tracing and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly): one counter
//! (`"C"`) track per [`SimSample`] field, plus instant (`"i"`) markers.
//! The time axis is virtual time, in microseconds.

use crate::probe::{SimSample, TimeSeries};

/// One exported counter track: `(track name, per-row extractor)`.
type CounterTrack = (&'static str, fn(&SimSample) -> u64);

/// Counter tracks exported per sample row.
const COUNTER_TRACKS: [CounterTrack; 6] = [
    ("in_flight", |s| s.in_flight),
    ("pending_events", |s| s.pending_events),
    ("queued_packets", |s| s.queued_packets),
    ("queued_bytes", |s| s.queued_bytes),
    ("max_port_depth", |s| s.max_port_depth),
    ("events", |s| s.events),
];

/// Microseconds of virtual time.
fn ts_us(t_ps: u64) -> f64 {
    t_ps as f64 / 1e6
}

/// One instant (`"i"`) event to pin onto the exported timeline — how the
/// forensics layer marks replay divergences on the same axis as the
/// counter tracks.
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

/// Render `series` as a Trace Event Format JSON document, with
/// `markers` pinned onto the timeline (rendered as global-scope `"i"`
/// events, which Perfetto draws as flags above the tracks).
pub fn trace_event_json_with_markers(series: &TimeSeries, markers: &[InstantMarker]) -> String {
    let mut ev: Vec<String> = Vec::new();
    ev.push(
        r#"{"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "ups-sim"}}"#
            .to_string(),
    );
    ev.push(
        r#"{"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "samples"}}"#
            .to_string(),
    );

    for (name, get) in COUNTER_TRACKS {
        for row in &series.rows {
            ev.push(format!(
                r#"{{"ph": "C", "pid": 1, "tid": 0, "name": "{}", "ts": {:.3}, "args": {{"value": {}}}}}"#,
                name,
                ts_us(row.t_ps),
                get(row)
            ));
        }
    }

    // Instant markers (divergence events and the like).
    for m in markers {
        ev.push(format!(
            r#"{{"ph": "i", "pid": 1, "tid": 0, "s": "g", "name": "{}", "ts": {:.3}, "args": {{"detail": "{}", "t_virtual_us": {:.3}}}}}"#,
            ups_metrics::json_escape(&m.name),
            ts_us(m.t_ps),
            ups_metrics::json_escape(&m.detail),
            ts_us(m.t_ps)
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

    fn row(t_ps: u64, in_flight: u64) -> SimSample {
        SimSample {
            t_ps,
            in_flight,
            pending_events: 5,
            queued_packets: 2,
            queued_bytes: 3000,
            max_port_depth: 2,
            events: 10,
        }
    }

    fn series() -> TimeSeries {
        TimeSeries {
            interval_ps: 1_000_000,
            rows: vec![row(1_000_000, 3), row(2_000_000, 4)],
        }
    }

    fn assert_balanced(j: &str) {
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                j.matches(open).count(),
                j.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn export_has_one_counter_track_per_sample_field() {
        let j = trace_event_json_with_markers(&series(), &[]);
        assert!(j.contains("\"traceEvents\""));
        for (name, _) in COUNTER_TRACKS {
            assert_eq!(j.matches(&format!(r#""name": "{name}""#)).count(), 2);
        }
        assert!(!j.contains(r#""ph": "X""#), "no duration spans");
        assert_balanced(&j);
    }

    #[test]
    fn markers_render_as_instant_events() {
        let markers = vec![InstantMarker {
            t_ps: 1_500_000,
            name: "overdue_beyond_t".into(),
            detail: "packet 7 \"late\" at NodeId(2)".into(),
        }];
        let j = trace_event_json_with_markers(&series(), &markers);
        assert!(j.contains(r#""ph": "i""#), "instant event present: {j}");
        assert!(
            j.contains(r#"packet 7 \"late\" at NodeId(2)"#),
            "escaped detail"
        );
        // Virtual axis: the marker sits at its own time, 1.5 µs.
        assert!(
            j.contains(r#""name": "overdue_beyond_t", "ts": 1.500"#),
            "{j}"
        );
        assert!(j.contains(r#""t_virtual_us": 1.500"#), "{j}");
        assert_balanced(&j);
    }
}
