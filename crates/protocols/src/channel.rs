//! Metered inter-cloud channel.
//!
//! The paper's §11.2.5 evaluates the communication *bandwidth* (bytes exchanged between
//! S1 and S2 per depth and in total) and the resulting *latency* under an assumed link
//! speed (50 Mbps between the two clouds).  S2 sits behind a transport — in process, or
//! in a pool or a daemon behind a socket — and every protocol round is metered once,
//! when its reply reaches S1, into the session's [`ChannelMetrics`]: rounds, payload
//! bytes and ciphertexts as the wire codec measured them.  The figures/table harness
//! reads these counters to regenerate Table 3 and Fig. 13.

use serde::{Deserialize, Serialize};

/// Accumulated communication statistics for one protocol execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelMetrics {
    /// Protocol round trips: a request and its reply.
    pub rounds: u64,
    /// Total payload bytes shipped (both directions).
    pub bytes: u64,
    /// Total ciphertexts shipped (both directions).
    pub ciphertexts: u64,
}

impl ChannelMetrics {
    /// Bandwidth in mebibytes.
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }

    /// Estimated network latency in seconds if the two clouds were connected by a link of
    /// `link_mbps` megabits per second (the paper assumes a standard 50 Mbps setting for
    /// Table 3) plus `rtt_ms` milliseconds of per-round-trip delay.
    pub fn latency_seconds(&self, link_mbps: f64, rtt_ms: f64) -> f64 {
        assert!(link_mbps > 0.0, "link speed must be positive");
        let transfer = (self.bytes as f64 * 8.0) / (link_mbps * 1_000_000.0);
        let rtts = self.rounds as f64 * (rtt_ms / 1000.0);
        transfer + rtts
    }

    /// The difference `self − earlier`, used to attribute traffic to one depth or one
    /// sub-protocol ("bandwidth per depth" in Fig. 13a).
    pub fn since(&self, earlier: &ChannelMetrics) -> ChannelMetrics {
        ChannelMetrics {
            rounds: self.rounds - earlier.rounds,
            bytes: self.bytes - earlier.bytes,
            ciphertexts: self.ciphertexts - earlier.ciphertexts,
        }
    }

    /// Merge another metric set into this one.
    pub fn merge(&mut self, other: &ChannelMetrics) {
        self.rounds += other.rounds;
        self.bytes += other.bytes;
        self.ciphertexts += other.ciphertexts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_link_speed() {
        let m = ChannelMetrics { rounds: 1, bytes: 2_000_000, ciphertexts: 20 };
        let fast = m.latency_seconds(100.0, 0.0);
        let slow = m.latency_seconds(50.0, 0.0);
        assert!((slow - 2.0 * fast).abs() < 1e-9);
        // Adding RTT increases latency by rounds * rtt.
        let with_rtt = m.latency_seconds(50.0, 10.0);
        assert!((with_rtt - slow - 0.010).abs() < 1e-9);
    }

    #[test]
    fn since_isolates_a_window() {
        let snapshot = ChannelMetrics { rounds: 1, bytes: 10, ciphertexts: 1 };
        let m = ChannelMetrics { rounds: 2, bytes: 30, ciphertexts: 3 };
        let delta = m.since(&snapshot);
        assert_eq!(delta, ChannelMetrics { rounds: 1, bytes: 20, ciphertexts: 2 });
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ChannelMetrics { rounds: 1, bytes: 5, ciphertexts: 1 };
        a.merge(&ChannelMetrics { rounds: 2, bytes: 7, ciphertexts: 2 });
        assert_eq!(a, ChannelMetrics { rounds: 3, bytes: 12, ciphertexts: 3 });
    }

    #[test]
    fn megabytes_conversion() {
        let m = ChannelMetrics { bytes: 2 * 1024 * 1024, ..ChannelMetrics::default() };
        assert!((m.megabytes() - 2.0).abs() < 1e-9);
    }
}
