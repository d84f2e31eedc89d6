//! Per-hop latency breakdown derived from recorded span chains.
//!
//! Spans sharing a [`TraceId`] form one message's chain. Sorting a
//! chain by timestamp, a hop's *latency contribution* is the gap
//! between its timestamp and the previous hop's (the chain's first
//! span contributes nothing — it anchors the clock), and the chain's
//! round trip is last-minus-first. Per-trace the contributions sum to
//! the round trip *exactly*; across many messages the per-hop p50s
//! therefore sum close to the round-trip p50 whenever the stage mix
//! is stable — the consistency check the repo benchmark reports as
//! `trace.hop_sum_share` (`crates/e2e-bench`, on real sockets).

use crate::{Hop, SpanEvent, TraceId};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Latency statistics for one hop across all complete chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStats {
    /// Which hop.
    pub hop: Hop,
    /// Chains in which the hop appeared (past the chain anchor).
    pub count: u64,
    /// Median latency contribution in µs.
    pub p50_us: u64,
    /// 99th-percentile latency contribution in µs.
    pub p99_us: u64,
}

/// A per-hop latency breakdown plus round-trip statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// Per-hop statistics, in causal path order.
    pub hops: Vec<HopStats>,
    /// Number of multi-span chains measured.
    pub chains: u64,
    /// Median round trip (first span to last span of a chain) in µs.
    pub rtt_p50_us: u64,
    /// 99th-percentile round trip in µs.
    pub rtt_p99_us: u64,
}

/// Exact quantile over a sorted sample vector (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl Breakdown {
    /// Builds a breakdown from raw spans. Untraced spans
    /// ([`TraceId::NONE`]) and single-span chains are ignored; a hop
    /// appearing several times in one chain (e.g. delivery to many
    /// clients) contributes each occurrence.
    pub fn from_spans(spans: &[SpanEvent]) -> Breakdown {
        let mut chains: BTreeMap<TraceId, Vec<SpanEvent>> = BTreeMap::new();
        for s in spans {
            if s.trace.is_some() {
                chains.entry(s.trace).or_default().push(*s);
            }
        }
        let mut per_hop: BTreeMap<u8, Vec<u64>> = BTreeMap::new();
        let mut rtts: Vec<u64> = Vec::new();
        let mut measured = 0u64;
        for chain in chains.values_mut() {
            if chain.len() < 2 {
                continue;
            }
            chain.sort_by_key(|s| (s.ts_us, s.hop as u8));
            measured += 1;
            rtts.push(chain.last().unwrap().ts_us - chain[0].ts_us);
            for pair in chain.windows(2) {
                per_hop
                    .entry(pair[1].hop as u8)
                    .or_default()
                    .push(pair[1].ts_us - pair[0].ts_us);
            }
        }
        rtts.sort_unstable();
        let mut hops = Vec::new();
        for hop in Hop::ALL {
            if let Some(samples) = per_hop.get_mut(&(hop as u8)) {
                samples.sort_unstable();
                hops.push(HopStats {
                    hop,
                    count: samples.len() as u64,
                    p50_us: quantile(samples, 0.50),
                    p99_us: quantile(samples, 0.99),
                });
            }
        }
        Breakdown {
            hops,
            chains: measured,
            rtt_p50_us: quantile(&rtts, 0.50),
            rtt_p99_us: quantile(&rtts, 0.99),
        }
    }

    /// Sum of the per-hop p50 contributions — the "does the breakdown
    /// explain the round trip" figure compared against
    /// [`Breakdown::rtt_p50_us`].
    pub fn hop_p50_sum_us(&self) -> u64 {
        self.hops.iter().map(|h| h.p50_us).sum()
    }

    /// Renders the breakdown as one JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"hops\":[");
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"hop\":\"{}\",\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                h.hop.name(),
                h.count,
                h.p50_us,
                h.p99_us
            );
        }
        let _ = write!(
            out,
            "],\"chains\":{},\"hop_p50_sum_us\":{},\"rtt_p50_us\":{},\"rtt_p99_us\":{}}}",
            self.chains,
            self.hop_p50_sum_us(),
            self.rtt_p50_us,
            self.rtt_p99_us
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, hop: Hop, ts_us: u64) -> SpanEvent {
        SpanEvent {
            trace: TraceId(trace),
            hop,
            ts_us,
            dur_us: 0,
            arg: 0,
        }
    }

    #[test]
    fn identical_chains_sum_exactly() {
        // 10 messages, each submit@t, ingress@t+100, deliver@t+350.
        let mut spans = Vec::new();
        for m in 1..=10u64 {
            let base = m * 1000;
            spans.push(span(m, Hop::ClientSubmit, base));
            spans.push(span(m, Hop::ServerIngress, base + 100));
            spans.push(span(m, Hop::ClientDeliver, base + 350));
        }
        let b = Breakdown::from_spans(&spans);
        assert_eq!(b.chains, 10);
        assert_eq!(b.rtt_p50_us, 350);
        assert_eq!(b.hop_p50_sum_us(), 350);
        let ingress = b.hops.iter().find(|h| h.hop == Hop::ServerIngress).unwrap();
        assert_eq!(
            (ingress.count, ingress.p50_us, ingress.p99_us),
            (10, 100, 100)
        );
    }

    #[test]
    fn untraced_and_singleton_chains_are_ignored() {
        let spans = vec![
            span(0, Hop::LogFsync, 5),
            span(9, Hop::ClientSubmit, 10),
            span(3, Hop::ClientSubmit, 0),
            span(3, Hop::ClientDeliver, 40),
        ];
        let b = Breakdown::from_spans(&spans);
        assert_eq!(b.chains, 1);
        assert_eq!(b.rtt_p50_us, 40);
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let spans = vec![
            span(1, Hop::ClientSubmit, 0),
            span(1, Hop::ClientDeliver, 20),
        ];
        let json = Breakdown::from_spans(&spans).render_json();
        assert!(json.starts_with("{\"hops\":["));
        assert!(json.contains("\"hop\":\"client_deliver\""));
        assert!(json.contains("\"rtt_p50_us\":20"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn empty_input_yields_empty_breakdown() {
        let b = Breakdown::from_spans(&[]);
        assert_eq!(b.chains, 0);
        assert!(b.hops.is_empty());
        assert_eq!(
            b.render_json(),
            "{\"hops\":[],\"chains\":0,\"hop_p50_sum_us\":0,\"rtt_p50_us\":0,\"rtt_p99_us\":0}"
        );
    }
}
