//! Plain-text observability report.
//!
//! [`render_report`] turns a final gate snapshot plus an optional
//! recorded [`TimeSeries`] into an aligned-table summary: a phase table
//! (calls, total time, mean span), a counter table, and — when a series
//! was recorded — quantiles of the sampled queue/occupancy/load
//! distributions.

use ups_metrics::table::Table;
use ups_metrics::QuantileSketch;

use crate::gate::{Counter, ObsSnapshot, Phase};
use crate::probe::TimeSeries;

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn fmt_mean_ns(total_ns: u64, calls: u64) -> String {
    if calls == 0 {
        "-".to_string()
    } else {
        format!("{:.0}", total_ns as f64 / calls as f64)
    }
}

/// Phase table: one row per [`Phase`] with spans, total ms, mean ns.
pub fn phase_table(gate: &ObsSnapshot) -> String {
    let mut t = Table::new(&["phase", "spans", "total_ms", "mean_ns"]);
    for p in Phase::ALL {
        t.row(&[
            p.name().to_string(),
            gate.phase_calls(p).to_string(),
            fmt_ms(gate.phase_ns(p)),
            fmt_mean_ns(gate.phase_ns(p), gate.phase_calls(p)),
        ]);
    }
    t.render()
}

/// Counter table: one row per [`Counter`].
pub fn counter_table(gate: &ObsSnapshot) -> String {
    let mut t = Table::new(&["counter", "value"]);
    for c in Counter::ALL {
        t.row(&[c.name().to_string(), gate.counter(c).to_string()]);
    }
    t.render()
}

fn sketch_row(name: &str, s: &QuantileSketch) -> [String; 5] {
    if s.is_empty() {
        [
            name.to_string(),
            "0".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]
    } else {
        [
            name.to_string(),
            s.len().to_string(),
            format!("{:.1}", s.quantile(0.5)),
            format!("{:.1}", s.quantile(0.99)),
            format!("{:.1}", s.max()),
        ]
    }
}

/// Sampled-series table: quantiles of each recorded distribution.
pub fn series_table(series: &TimeSeries) -> String {
    let mut t = Table::new(&["series", "samples", "p50", "p99", "max"]);
    t.row(&sketch_row("port_depth_pkts", &series.depth_sketch));
    t.row(&sketch_row(
        "port_occupancy_bytes",
        &series.occupancy_sketch,
    ));
    t.row(&sketch_row("in_flight_pkts", &series.in_flight_sketch));
    t.row(&sketch_row("pending_events", &series.pending_events_sketch));
    t.render()
}

/// The full report: phase + counter tables from `gate`, plus the sampled
/// series tables when a probe recorded one.
pub fn render_report(gate: &ObsSnapshot, series: Option<&TimeSeries>) -> String {
    let mut out = String::new();
    out.push_str("== phases ==\n");
    out.push_str(&phase_table(gate));
    out.push_str("\n== counters ==\n");
    out.push_str(&counter_table(gate));
    if let Some(s) = series {
        out.push_str(&format!(
            "\n== sampled series ({} rows, every {:.1} us virtual) ==\n",
            s.rows.len(),
            s.interval_ps as f64 / 1e6
        ));
        out.push_str(&series_table(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{SimProbe, SimSample, TimeSeriesProbe};

    #[test]
    fn report_renders_all_sections() {
        let mut gate = ObsSnapshot::default();
        gate.counters[Counter::SpillBytes as usize] = 4096;
        gate.phase_ns[Phase::Dispatch as usize] = 2_000_000;
        gate.phase_calls[Phase::Dispatch as usize] = 1_000;

        let mut p = TimeSeriesProbe::new(1_000);
        p.on_port_depth(4, 6000);
        p.on_sample(&SimSample {
            t_ps: 1_000,
            in_flight: 2,
            pending_events: 7,
            queued_packets: 4,
            queued_bytes: 6000,
            max_port_depth: 4,
            events: 11,
        });
        let series = p.into_series();

        let r = render_report(&gate, Some(&series));
        assert!(r.contains("== phases =="));
        assert!(r.contains("dispatch"));
        assert!(r.contains("2000")); // mean_ns = 2e6 / 1e3
        assert!(r.contains("spill_bytes"));
        assert!(r.contains("4096"));
        assert!(r.contains("== sampled series"));
        assert!(r.contains("port_depth_pkts"));
    }

    #[test]
    fn report_without_series_omits_sampled_section() {
        let r = render_report(&ObsSnapshot::default(), None);
        assert!(r.contains("== counters =="));
        assert!(!r.contains("sampled series"));
        // Zero-span phases render a "-" mean rather than dividing by zero.
        assert!(r.contains('-'));
    }
}
