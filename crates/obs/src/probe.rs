//! The sampled series: [`SimSample`] rows on a virtual-time interval,
//! recorded through a [`SharedProbe`].
//!
//! The simulator drives the probe on its interval, handing it one
//! [`SimSample`] of aggregate state per tick. The probe never touches
//! engine state — sampling is read-only by construction (the simulator
//! passes values, not references into its arenas), which is what keeps
//! probed runs bit-identical to unprobed ones.
//!
//! Attachment is `Option<SharedProbe>` on the simulator: with no probe
//! attached the per-event cost is a single never-taken branch.

use std::sync::{Arc, Mutex};

use crate::gate::{Counter, Phase};

/// Aggregate simulator state at one sample tick. All values are computed
/// by the simulator; the probe cannot reach back into it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSample {
    /// Virtual time of the tick, picoseconds.
    pub t_ps: u64,
    /// Packets alive in the arena (injected, not yet delivered/dropped).
    pub in_flight: u64,
    /// Events pending in the future-event list (every tier).
    pub pending_events: u64,
    /// Packets queued across all ports.
    pub queued_packets: u64,
    /// Bytes queued across all ports.
    pub queued_bytes: u64,
    /// Deepest single port queue, packets.
    pub max_port_depth: u64,
    /// Events dispatched so far (cumulative).
    pub events: u64,
}

/// A recorded series, detached from its probe for export once the run
/// finishes. Rows need not be equally spaced: in a quiet network the
/// clock jumps, and a tick fires on the first event at-or-after each
/// interval boundary.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Virtual-time sampling interval used, picoseconds.
    pub interval_ps: u64,
    /// One row per tick, in time order.
    pub rows: Vec<SimSample>,
}

/// The simulator's sampler: a cloneable handle over one [`TimeSeries`].
/// Attach one clone to the simulator and keep another to read the series
/// back after the run. The mutex is uncontended (the simulator is
/// single-threaded) and locked once per sample tick, not per event.
#[derive(Debug, Clone)]
pub struct SharedProbe {
    inner: Arc<Mutex<TimeSeries>>,
}

const POISONED: &str = "probe lock poisoned: a thread panicked while recording";

impl SharedProbe {
    /// A probe sampling every `interval_ps` picoseconds of virtual time.
    ///
    /// # Panics
    /// If `interval_ps` is zero.
    pub fn new(interval_ps: u64) -> Self {
        assert!(interval_ps > 0, "sampling interval must be positive");
        SharedProbe {
            inner: Arc::new(Mutex::new(TimeSeries {
                interval_ps,
                rows: Vec::new(),
            })),
        }
    }

    /// Virtual-time sampling interval, picoseconds.
    pub fn interval_ps(&self) -> u64 {
        self.inner.lock().expect(POISONED).interval_ps
    }

    /// Append the row for the current tick.
    pub fn record(&self, sample: SimSample) {
        self.inner.lock().expect(POISONED).rows.push(sample);
    }

    /// Move the recorded series out, leaving an empty one behind.
    pub fn take_series(&self) -> TimeSeries {
        let mut s = self.inner.lock().expect(POISONED);
        let rows = std::mem::take(&mut s.rows);
        TimeSeries {
            interval_ps: s.interval_ps,
            rows,
        }
    }
}

/// What a counter or phase is called and what it measures — the rows
/// `sweep --list` prints under its gate heading.
pub fn describe_probes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for p in Phase::ALL {
        out.push((format!("phase:{}", p.name()), p.describe().to_string()));
    }
    for c in Counter::ALL {
        out.push((format!("counter:{}", c.name()), c.describe().to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_rows_through_any_clone() {
        let p = SharedProbe::new(1_000);
        let sample = SimSample {
            t_ps: 1_000,
            in_flight: 4,
            pending_events: 9,
            queued_packets: 4,
            queued_bytes: 6_000,
            max_port_depth: 3,
            events: 17,
        };
        p.clone().record(sample);
        let s = p.take_series();
        assert_eq!(s.interval_ps, 1_000);
        assert_eq!(s.rows, vec![sample]);
        assert!(p.take_series().rows.is_empty(), "taking leaves it empty");
        assert_eq!(p.interval_ps(), 1_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = SharedProbe::new(0);
    }
}
