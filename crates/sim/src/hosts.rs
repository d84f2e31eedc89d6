//! Calibrated host and network cost profiles: the one place the 1999
//! testbed's costs live.
//!
//! The paper's testbed — Sun Sparc 20 / UltraSparc 1 clients and
//! servers and a quad Pentium II 200 NT box on 10 Mbps shared Ethernet,
//! running a multi-threaded Java server — is unreproducible hardware.
//! These profiles substitute a cost per host class and per network
//! segment, calibrated so the single-server 1000-byte round-trip curve
//! lands in the paper's regime (tens to hundreds of milliseconds across
//! 10–60 clients). [`SimNet`](crate::net::SimNet) charges them to the
//! frames the shipping servers queue and receive; the shapes the paper
//! reports then come from the servers' own behaviour, or are reported
//! where they do not:
//!
//! * round-trip delay linear in the number of clients (the server
//!   queues N point-to-point sends),
//! * stateful ≈ stateless (applying an update is a small constant per
//!   message, and disk logging is off the critical path),
//! * larger payloads steepen the slope (per-byte costs),
//! * the quad Pentium II outruns the UltraSparc 1 where the server CPU
//!   is the bottleneck.
//!
//! All times are in the engine's microsecond unit.

use crate::engine::SimTime;

/// CPU cost model of one host class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProfile {
    /// Name for reports.
    pub name: &'static str,
    /// Fixed CPU cost to send one message (syscalls, framing,
    /// scheduling).
    pub send_per_msg_us: SimTime,
    /// Additional CPU cost per byte sent (serialisation; the paper
    /// notes "a significant part of the cost ... is due to the
    /// serialized read/write operations on the shared objects").
    pub send_per_kb_us: SimTime,
    /// Fixed CPU cost to receive one message.
    pub recv_per_msg_us: SimTime,
    /// Additional CPU cost per byte received.
    pub recv_per_kb_us: SimTime,
    /// Cost to apply one update to the in-memory shared state (paid
    /// only by stateful servers).
    pub state_apply_per_kb_us: SimTime,
    /// Occasional scheduling / garbage-collection jitter amortised per
    /// message (the paper folds "thread scheduling and occasional
    /// garbage collection" into its measured delays).
    pub jitter_us: SimTime,
}

impl HostProfile {
    /// CPU time to send a message of `bytes` (encode + enqueue; use
    /// for unicast paths that serialise per send).
    pub fn send_cost(&self, bytes: usize) -> SimTime {
        self.encode_cost(bytes) + self.enqueue_cost()
    }

    /// CPU time to serialise a message of `bytes` into a wire frame.
    /// Under the encode-once fan-out a multicast pays this once per
    /// message, not once per recipient.
    pub fn encode_cost(&self, bytes: usize) -> SimTime {
        self.send_per_kb_us * (bytes as SimTime) / 1024
    }

    /// CPU time to hand one already-encoded frame to one recipient's
    /// transmit queue (syscalls, framing, scheduling).
    pub fn enqueue_cost(&self) -> SimTime {
        self.send_per_msg_us + self.jitter_us
    }

    /// CPU time to receive a message of `bytes`.
    pub fn recv_cost(&self, bytes: usize) -> SimTime {
        self.recv_per_msg_us + self.recv_per_kb_us * (bytes as SimTime) / 1024
    }

    /// CPU time to fold an update into the in-memory state copy.
    pub fn state_apply_cost(&self, bytes: usize) -> SimTime {
        self.state_apply_per_kb_us * (bytes as SimTime).max(1) / 1024
    }
}

/// UltraSparc 1 (64 MB) running the Java server on Solaris — the
/// paper's primary server host.
pub const ULTRASPARC_1: HostProfile = HostProfile {
    name: "UltraSparc 1",
    send_per_msg_us: 700,
    send_per_kb_us: 260,
    recv_per_msg_us: 350,
    recv_per_kb_us: 200,
    state_apply_per_kb_us: 60,
    jitter_us: 60,
};

/// Quad Pentium II 200 (256 MB) running Windows NT — the paper's
/// faster server host (it sustained 600 kB/s).
pub const PENTIUM_II_200: HostProfile = HostProfile {
    name: "Pentium II 200 (quad)",
    send_per_msg_us: 420,
    send_per_kb_us: 160,
    recv_per_msg_us: 220,
    recv_per_kb_us: 120,
    state_apply_per_kb_us: 40,
    jitter_us: 40,
};

/// Sun Sparc 20 class client workstation.
pub const SPARC_20_CLIENT: HostProfile = HostProfile {
    name: "Sparc 20 client",
    send_per_msg_us: 500,
    send_per_kb_us: 300,
    recv_per_msg_us: 400,
    recv_per_kb_us: 250,
    state_apply_per_kb_us: 80,
    jitter_us: 80,
};

/// Network segment model: a serially shared medium (10 Mbps Ethernet)
/// plus a fixed propagation/stack latency per hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Name for reports.
    pub name: &'static str,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Per-hop latency (propagation + protocol stack) in µs.
    pub hop_latency_us: SimTime,
}

impl NetworkProfile {
    /// Wire time to transmit `bytes` (plus Ethernet/IP/TCP overhead of
    /// ~58 bytes per frame, single-frame approximation for small
    /// messages, proportional for large).
    pub fn transmission_us(&self, bytes: usize) -> SimTime {
        let on_wire = bytes as u64 + 58 * (1 + bytes as u64 / 1460);
        on_wire * 8 * 1_000_000 / self.bandwidth_bps
    }
}

/// The paper's 10 Mbps shared Ethernet LAN.
pub const ETHERNET_10MBPS: NetworkProfile = NetworkProfile {
    name: "10 Mbps Ethernet",
    bandwidth_bps: 10_000_000,
    hop_latency_us: 300,
};

/// A few-routers-away campus path (Table 2's "some of them in
/// different local networks, situated a few routers away").
pub const CAMPUS_BACKBONE: NetworkProfile = NetworkProfile {
    name: "campus backbone",
    bandwidth_bps: 10_000_000,
    hop_latency_us: 900,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_cost_scales_with_bytes() {
        let small = ULTRASPARC_1.send_cost(1000);
        let large = ULTRASPARC_1.send_cost(10_000);
        assert!(large > small);
        assert!(
            large < small * 11,
            "per-message overhead must amortise for large messages"
        );
    }

    #[test]
    fn pentium_outruns_ultrasparc() {
        for bytes in [100, 1000, 10_000] {
            assert!(PENTIUM_II_200.send_cost(bytes) < ULTRASPARC_1.send_cost(bytes));
            assert!(PENTIUM_II_200.recv_cost(bytes) < ULTRASPARC_1.recv_cost(bytes));
        }
    }

    #[test]
    fn transmission_time_matches_bandwidth() {
        // 1000 bytes + overhead at 10 Mbps ≈ 0.85 ms.
        let t = ETHERNET_10MBPS.transmission_us(1000);
        assert!((800..900).contains(&t), "got {t} µs");
        // 10x payload ≈ ~10x wire time.
        let t10 = ETHERNET_10MBPS.transmission_us(10_000);
        assert!(t10 > 9 * t && t10 < 11 * t);
    }

    #[test]
    fn state_apply_is_cheap_relative_to_send() {
        // The paper's core claim: state maintenance is a minor cost.
        let apply = ULTRASPARC_1.state_apply_cost(1000);
        let send = ULTRASPARC_1.send_cost(1000);
        assert!(apply * 10 < send, "apply {apply} vs send {send}");
    }
}
