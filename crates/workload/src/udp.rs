//! Packetizing flows into open-loop UDP packet trains.
//!
//! The replay experiments (§2.3) and the tail-latency experiment (§3.2)
//! "use UDP flows": a flow's packets are handed to the source host's NIC
//! when the flow starts and are paced onto the wire by the host link —
//! exactly the behaviour the paper leans on when explaining the
//! `I2:1Gbps-1Gbps` row ("packets are paced by the endhost link").

use ups_netsim::prelude::{Dur, Packet, PacketBuilder, PacketId};

use crate::flows::FlowSpec;

/// Standard MTU used throughout the evaluation.
pub const MTU: u32 = 1500;

/// Expand flows into injectable packets, in flow-start order, with dense
/// packet ids starting at 0.
///
/// Each packet carries `header.flow_size` (for SJF) and
/// `header.remaining` (bytes outstanding *including* this packet, for
/// SRPT) — stamped here because the paper's SJF/SRPT originals rely on
/// source-provided priorities.
pub fn udp_packet_train(flows: &[FlowSpec], mtu: u32) -> Vec<Packet> {
    udp_packet_stream(flows, mtu).collect()
}

/// Lazy form of [`udp_packet_train`]: the same packets, one at a time, so
/// a multi-million-packet train can feed
/// [`Simulator::run_with_injections`](ups_netsim::prelude::Simulator::run_with_injections)
/// without ever existing as a `Vec`.
///
/// The yield order is the canonical stream order `(i(p), id)`: flows are
/// packetized in slice order (the workload generators emit them sorted by
/// start time), every packet of a flow shares the flow's start as its
/// injection time, and ids are dense in yield order.
pub fn udp_packet_stream<'a>(flows: &'a [FlowSpec], mtu: u32) -> impl Iterator<Item = Packet> + 'a {
    assert!(mtu > 0);
    let mut next_id = 0u64;
    flows.iter().flat_map(move |flow| {
        assert!(
            flow.size != u64::MAX,
            "long-lived flows need a closed-loop transport, not a UDP train"
        );
        // Reserve this flow's dense id range up front so the outer
        // counter and the inner lazy iterator don't share state.
        let mut id = next_id;
        next_id += flow.size.div_ceil(mtu as u64);
        let mut remaining = flow.size;
        let mut seq = 0u64;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let size = remaining.min(mtu as u64) as u32;
            let p = PacketBuilder::new(PacketId(id), flow.id, size, flow.path, flow.start)
                .seq(seq)
                .flow_bytes(flow.size, remaining)
                .build();
            id += 1;
            seq += size as u64;
            remaining -= size as u64;
            Some(p)
        })
    })
}

/// Packets `flows` packetize into at [`MTU`] granularity: the length of
/// their [`udp_packet_train`], without building it.
pub fn train_packets(flows: &[FlowSpec]) -> u64 {
    flows.iter().map(|f| f.size.div_ceil(MTU as u64)).sum()
}

/// Grow the arrival window (doubling from `start_window`, up to
/// `max_window`) until the flows `generate` makes for it packetize to at
/// least `packet_floor` packets — the one calibration loop behind
/// [`WorkloadProfile::udp_train_with_floor`](crate::WorkloadProfile::udp_train_with_floor)
/// and the scale bench. Returns the flows and the window that produced
/// them.
///
/// # Panics
/// If the floor is still unmet at `max_window`.
pub fn flows_with_floor(
    packet_floor: u64,
    start_window: Dur,
    max_window: Dur,
    mut generate: impl FnMut(Dur) -> Vec<FlowSpec>,
) -> (Vec<FlowSpec>, Dur) {
    let mut window = start_window;
    loop {
        let flows = generate(window);
        if train_packets(&flows) >= packet_floor {
            return (flows, window);
        }
        window = window.times(2);
        assert!(
            window <= max_window,
            "workload never reached the {packet_floor}-packet floor"
        );
    }
}

/// Total bytes across a packet list — workload sanity checks.
pub fn total_bytes(packets: &[Packet]) -> u64 {
    packets.iter().map(|p| p.size as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowSpec;
    use ups_netsim::prelude::{FlowId, NodeId, PathId, SimTime};

    fn flow(id: u64, size: u64) -> FlowSpec {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        FlowSpec {
            id: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            start: SimTime::from_us(id),
            path,
        }
    }

    #[test]
    fn splits_on_mtu_with_remainder() {
        let packets = udp_packet_train(&[flow(0, 3200)], 1500);
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].size, 1500);
        assert_eq!(packets[1].size, 1500);
        assert_eq!(packets[2].size, 200);
        assert_eq!(total_bytes(&packets), 3200);
        // Sequence numbers are byte offsets.
        assert_eq!(
            packets.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![0, 1500, 3000]
        );
    }

    #[test]
    fn srpt_remaining_decreases_sjf_size_constant() {
        let packets = udp_packet_train(&[flow(0, 4000)], 1500);
        assert_eq!(
            packets
                .iter()
                .map(|p| p.header.remaining)
                .collect::<Vec<_>>(),
            vec![4000, 2500, 1000]
        );
        assert!(packets.iter().all(|p| p.header.flow_size == 4000));
    }

    #[test]
    fn ids_dense_across_flows_and_start_times_kept() {
        let packets = udp_packet_train(&[flow(0, 1500), flow(1, 3000)], 1500);
        assert_eq!(
            packets.iter().map(|p| p.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(packets[0].injected_at, SimTime::from_us(0));
        assert_eq!(packets[1].injected_at, SimTime::from_us(1));
        assert_eq!(packets[2].injected_at, SimTime::from_us(1));
    }

    #[test]
    fn single_byte_flow() {
        let packets = udp_packet_train(&[flow(0, 1)], 1500);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].size, 1);
    }

    #[test]
    #[should_panic(expected = "long-lived")]
    fn rejects_infinite_flows() {
        let _ = udp_packet_train(&[flow(0, u64::MAX)], 1500);
    }
}
