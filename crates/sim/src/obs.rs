//! The observability layer: per-flow metrics timelines sampled on the
//! sim clock.
//!
//! The paper's conclusions rest on instrumentation — MAGNET packet-path
//! traces, per-optimization CPU-load numbers, and cwnd/throughput-over-time
//! plots that explain the WAN record's AIMD behaviour. This module provides
//! the time-series half of the simulated equivalents (the packet half is
//! the sanitizer's flight recorder, [`crate::trace`]):
//!
//! * [`Timelines`] — compact step-series of per-flow TCP state (cwnd,
//!   ssthresh, srtt/rttvar, bytes in flight, retransmits), per-host NIC and
//!   CPU state, and per-link drop counters, sampled on a sim-clock cadence.
//! * [`ObsConfig`] — the sampling cadence.
//!
//! Everything here honors the house determinism rules: values are integer
//! (`u64` / [`Nanos`]), there is no wall-clock anywhere, and serialization
//! is byte-deterministic — the same run on 1 and N sweep threads emits
//! identical timeline JSONL. [`Timelines`] stores its series densely, in
//! one `Vec` sorted by `(scope, metric)`, so a record is usually a key
//! compare and a step push, and iteration, merge, equality and
//! serialization read the deterministic key order straight from
//! storage. A sample costs its reads of lab state more than its
//! records, so the lab's sampler reads a flow endpoint or link only
//! when something changed it since the previous sample, and a
//! sanitizer proves each skip exact (`ViolationKind::ObsStale`).

use crate::time::Nanos;
use std::fmt;
use std::fmt::Write as _;

/// Configuration of the observability layer for one lab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Sim-clock cadence between metric samples.
    pub sample_interval: Nanos,
    /// Retired and ignored (the flight recorder is the sanitizer's, not
    /// obs's). Kept only because `benchmark/` builds this struct with a
    /// literal.
    pub ring_capacity: usize,
    /// Retired and ignored (the flight recorder keeps every event). Kept
    /// only because `benchmark/` builds this struct with a literal.
    pub sample_every: u64,
}

impl ObsConfig {
    /// Default sampling cadence: 1 ms of sim time — fine enough to resolve
    /// AIMD sawtooth on a 180 ms-RTT WAN path, coarse enough to stay
    /// compact on microsecond-scale LAN runs.
    pub const DEFAULT_INTERVAL: Nanos = Nanos::from_millis(1);

    /// The sampling cadence guarded against a zero interval: a sampler
    /// armed every 0 ns would reschedule itself at the current instant
    /// forever (and an interval divisor of 0 is a divide-by-zero), so a
    /// misconfigured cadence clamps to 1 ns. Zero is a configuration bug
    /// and trips a debug assertion; release runs keep going, clamped.
    pub fn clamped_interval(&self) -> Nanos {
        debug_assert!(
            self.sample_interval > Nanos::ZERO,
            "obs sampling interval must be positive"
        );
        self.sample_interval.max(Nanos::from_nanos(1))
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_interval: Self::DEFAULT_INTERVAL,
            ring_capacity: 0,
            sample_every: 0,
        }
    }
}

/// What a step-series measures. Values are integers; times are
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// Congestion window, segments.
    Cwnd,
    /// Slow-start threshold, segments.
    Ssthresh,
    /// Smoothed RTT estimate, nanoseconds (0 until the first sample).
    SrttNanos,
    /// RTT variance estimate, nanoseconds.
    RttvarNanos,
    /// Unacknowledged bytes in flight.
    BytesInFlight,
    /// Cumulative retransmissions.
    Retransmits,
    /// Frames DMA-complete in the NIC receive ring, awaiting an interrupt.
    RxRingFrames,
    /// Frames held by the interrupt coalescer, awaiting timer or cap.
    CoalescePending,
    /// Configured interrupt-coalescing delay, nanoseconds.
    CoalesceDelayNanos,
    /// Cumulative drops on the link (overflow + loss model).
    QueueDrops,
    /// Cumulative impairment-layer drops on the link (burst loss + flaps).
    ImpairDrops,
    /// Cumulative corrupted frames discarded by this host's NIC (bad FCS).
    RxCrcDrops,
    /// Cumulative busy nanoseconds of the hottest CPU. A cumulative value
    /// stays constant while a shard idles, so per-shard series collapse
    /// to the same change points at any shard count and merge
    /// invariantly (a windowed delta decays to zero and would not).
    CpuBusyNanos,
}

impl MetricKind {
    /// Every kind, in serialization order.
    pub const ALL: [MetricKind; 13] = [
        MetricKind::Cwnd,
        MetricKind::Ssthresh,
        MetricKind::SrttNanos,
        MetricKind::RttvarNanos,
        MetricKind::BytesInFlight,
        MetricKind::Retransmits,
        MetricKind::RxRingFrames,
        MetricKind::CoalescePending,
        MetricKind::CoalesceDelayNanos,
        MetricKind::QueueDrops,
        MetricKind::ImpairDrops,
        MetricKind::RxCrcDrops,
        MetricKind::CpuBusyNanos,
    ];

    /// Parse the serialized name back into a kind.
    pub fn parse(name: &str) -> Option<MetricKind> {
        MetricKind::ALL
            .iter()
            .copied()
            .find(|k| k.to_string() == name)
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MetricKind::Cwnd => "cwnd",
            MetricKind::Ssthresh => "ssthresh",
            MetricKind::SrttNanos => "srtt_ns",
            MetricKind::RttvarNanos => "rttvar_ns",
            MetricKind::BytesInFlight => "bytes_in_flight",
            MetricKind::Retransmits => "retransmits",
            MetricKind::RxRingFrames => "rx_ring_frames",
            MetricKind::CoalescePending => "coalesce_pending",
            MetricKind::CoalesceDelayNanos => "coalesce_delay_ns",
            MetricKind::QueueDrops => "queue_drops",
            MetricKind::ImpairDrops => "impair_drops",
            MetricKind::RxCrcDrops => "rx_crc_drops",
            MetricKind::CpuBusyNanos => "cpu_busy_ns",
        };
        f.write_str(s)
    }
}

/// What a series is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// One endpoint of one flow.
    Flow {
        /// Flow index in the lab.
        flow: u32,
        /// Endpoint (0 = initiator/sender, 1 = peer).
        ep: u32,
    },
    /// One host.
    Host {
        /// Host index in the lab.
        host: u32,
    },
    /// One link (a hop path between two hosts).
    Link {
        /// Link index in the lab.
        link: u32,
    },
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Flow { flow, ep } => write!(f, "flow {flow}/{ep}"),
            Scope::Host { host } => write!(f, "host {host}"),
            Scope::Link { link } => write!(f, "link {link}"),
        }
    }
}

/// A compact step-series: `(t, v)` points recorded only when the value
/// changes, so a steady metric sampled ten thousand times costs one point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepSeries {
    points: Vec<(Nanos, u64)>,
}

impl StepSeries {
    /// An empty series.
    pub fn new() -> Self {
        StepSeries { points: Vec::new() }
    }

    /// Record a sample. Consecutive samples with an unchanged value are
    /// collapsed into the first point (step semantics). Sample times must
    /// strictly increase: [`StepSeries::value_at`] binary-searches them.
    pub fn push(&mut self, t: Nanos, v: u64) {
        debug_assert!(
            self.points.last().map_or(true, |&(last, _)| t > last),
            "step-series sample at {t} does not follow the last point"
        );
        if self.points.last().map(|&(_, last)| last) == Some(v) {
            return;
        }
        self.points.push((t, v));
    }

    /// The recorded change points, in time order.
    pub fn points(&self) -> &[(Nanos, u64)] {
        &self.points
    }

    /// Number of change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The step value in effect at time `t` (the last change at or before
    /// `t`), if any sample precedes it.
    pub fn value_at(&self, t: Nanos) -> Option<u64> {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => None,
            n => self.points.get(n - 1).map(|&(_, v)| v),
        }
    }

    /// Smallest recorded value.
    pub fn min(&self) -> Option<u64> {
        self.points.iter().map(|&(_, v)| v).min()
    }

    /// Largest recorded value.
    pub fn max(&self) -> Option<u64> {
        self.points.iter().map(|&(_, v)| v).max()
    }

    /// The last recorded value.
    pub fn last(&self) -> Option<u64> {
        self.points.last().map(|&(_, v)| v)
    }
}

/// The full set of step-series recorded by one run, keyed by
/// `(scope, metric)`.
///
/// Series are stored densely in one `Vec` sorted by key, each next to
/// its key, so a [`Timelines::record`] that hits the slot after the one
/// it hit last costs a key compare plus a step push. The lab's sampler
/// records each scope's metrics in key order and visits scopes in key
/// order, skipping those nothing changed since its last sample, so
/// every record of a scope after its first hits. A miss
/// binary-searches the `Vec`, inserting the key if it is new. Every
/// reader — iteration, `get`, merge, serialization — sees the
/// deterministic `(scope, metric)` order because that is the storage
/// order.
#[derive(Debug, Clone)]
pub struct Timelines {
    /// The sampling cadence the series were recorded on.
    pub interval: Nanos,
    series: Vec<((Scope, MetricKind), StepSeries)>,
    /// The slot the last record landed in.
    cursor: usize,
}

impl PartialEq for Timelines {
    /// Equal when the cadences and every series match; the cursor is a
    /// lookup hint, not content.
    fn eq(&self, other: &Self) -> bool {
        self.interval == other.interval && self.series == other.series
    }
}

impl Eq for Timelines {}

impl Timelines {
    /// An empty timeline set for the given sampling cadence. A zero
    /// interval is a configuration bug (it would make the sampler spin at
    /// one instant forever): it trips a debug assertion and clamps to
    /// 1 ns in release builds.
    pub fn new(interval: Nanos) -> Self {
        debug_assert!(
            interval > Nanos::ZERO,
            "timelines sampling interval must be positive"
        );
        Timelines {
            interval: interval.max(Nanos::from_nanos(1)),
            series: Vec::new(),
            cursor: 0,
        }
    }

    /// The slot of `key`, registering an empty series for it if new.
    fn slot(&mut self, key: (Scope, MetricKind)) -> usize {
        match self.series.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                self.series.insert(i, (key, StepSeries::new()));
                i
            }
        }
    }

    /// Fold another timeline set into this one. A sharded run records
    /// each scope's series on the one shard that owns it, so merging per-shard
    /// timelines reassembles the full picture; where both sides somehow
    /// recorded the same `(scope, metric)`, the change points are
    /// interleaved in time order and re-collapsed under step semantics.
    pub fn merge(&mut self, other: &Timelines) {
        debug_assert_eq!(
            self.interval, other.interval,
            "merging timelines with mismatched cadences"
        );
        // New keys go after the sorted prefix and one sort (two sorted
        // runs, so linear) restores key order; inserting each in place
        // would shift the tail once per key.
        let n = self.series.len();
        for (key, s) in &other.series {
            let Ok(i) = self.series[..n].binary_search_by_key(key, |&(k, _)| k) else {
                self.series.push((*key, s.clone()));
                continue;
            };
            let dst = &mut self.series[i].1;
            let mut all: Vec<(Nanos, u64)> =
                dst.points.iter().chain(s.points.iter()).copied().collect();
            all.sort_by_key(|&(t, _)| t);
            let mut merged = StepSeries::new();
            for (t, v) in all {
                merged.push(t, v);
            }
            *dst = merged;
        }
        self.series.sort_by_key(|&(k, _)| k);
    }

    /// Record one sample. The slot after the last one recorded is tried
    /// first; on a miss a binary search finds the key's slot, inserting
    /// the key if it is new.
    pub fn record(&mut self, scope: Scope, metric: MetricKind, t: Nanos, v: u64) {
        let key = (scope, metric);
        let next = if self.cursor + 1 < self.series.len() {
            self.cursor + 1
        } else {
            0
        };
        let i = match self.series.get(next) {
            Some((k, _)) if *k == key => next,
            _ => self.slot(key),
        };
        self.cursor = i;
        self.series[i].1.push(t, v);
    }

    /// The series for one `(scope, metric)` pair, if recorded.
    pub fn get(&self, scope: Scope, metric: MetricKind) -> Option<&StepSeries> {
        self.series
            .binary_search_by_key(&(scope, metric), |&(k, _)| k)
            .ok()
            .map(|i| &self.series[i].1)
    }

    /// All series in deterministic `(scope, metric)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&(Scope, MetricKind), &StepSeries)> {
        self.series.iter().map(|(key, s)| (key, s))
    }

    /// Number of recorded series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Serialize as JSON lines: one header object, then one object per
    /// series in `(scope, metric)` order. All values are integers, so the
    /// bytes are exactly reproducible on any platform.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"obs\":\"timelines\",\"interval_ns\":{},\"series\":{}}}",
            self.interval.as_nanos(),
            self.len()
        );
        for ((scope, metric), s) in self.iter() {
            match scope {
                Scope::Flow { flow, ep } => {
                    let _ = write!(out, "{{\"scope\":\"flow\",\"flow\":{flow},\"ep\":{ep}");
                }
                Scope::Host { host } => {
                    let _ = write!(out, "{{\"scope\":\"host\",\"host\":{host}");
                }
                Scope::Link { link } => {
                    let _ = write!(out, "{{\"scope\":\"link\",\"link\":{link}");
                }
            }
            let _ = write!(out, ",\"metric\":\"{metric}\",\"points\":[");
            for (i, (t, v)) in s.points().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", t.as_nanos(), v);
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parse a document produced by [`Timelines::to_jsonl`]. The parser
    /// accepts exactly that shape (this is a round-trip format, not a
    /// general JSON reader) and rejects what `to_jsonl` never writes: a
    /// zero interval, an index beyond `u32`, a repeated series, or a
    /// series count that disagrees with the header (a truncated file).
    pub fn from_jsonl(text: &str) -> Result<Timelines, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| "empty timelines document".to_string())?;
        if !header.contains("\"obs\":\"timelines\"") {
            return Err(format!("not a timelines document: {header}"));
        }
        let interval = field_u64(header, "interval_ns")
            .ok_or_else(|| format!("header missing interval_ns: {header}"))?;
        if interval == 0 {
            return Err(format!("header interval_ns must be positive: {header}"));
        }
        let declared = field_u64(header, "series")
            .ok_or_else(|| format!("header missing series: {header}"))?;
        let mut tl = Timelines::new(Nanos::from_nanos(interval));
        for (idx, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let scope = match field_str(line, "scope") {
                Some("flow") => Scope::Flow {
                    flow: field_u32(line, "flow", lineno)?,
                    ep: field_u32(line, "ep", lineno)?,
                },
                Some("host") => Scope::Host {
                    host: field_u32(line, "host", lineno)?,
                },
                Some("link") => Scope::Link {
                    link: field_u32(line, "link", lineno)?,
                },
                other => return Err(format!("line {lineno}: unknown scope {other:?}")),
            };
            let metric_name = field_str(line, "metric").ok_or_else(|| err_at(lineno, "metric"))?;
            let metric = MetricKind::parse(metric_name)
                .ok_or_else(|| format!("line {lineno}: unknown metric `{metric_name}`"))?;
            let points = parse_points(line).map_err(|e| format!("line {lineno}: {e}"))?;
            if tl.get(scope, metric).is_some() {
                return Err(format!("line {lineno}: repeated series {scope} {metric}"));
            }
            // Registering first keeps a series whose line lists no points.
            let i = tl.slot((scope, metric));
            for (t, v) in points {
                tl.series[i].1.push(Nanos::from_nanos(t), v);
            }
        }
        if declared != tl.len() as u64 {
            return Err(format!(
                "header declares {declared} series, document has {}",
                tl.len()
            ));
        }
        Ok(tl)
    }

    /// A human-readable per-series summary (count, range, final value).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "timelines: {} series, {} sampling interval\n",
            self.len(),
            self.interval
        );
        for ((scope, metric), s) in self.iter() {
            let _ = writeln!(
                out,
                "  {:<10} {:<18} steps={:<6} min={:<12} max={:<12} last={}",
                scope.to_string(),
                metric.to_string(),
                s.len(),
                s.min().unwrap_or(0),
                s.max().unwrap_or(0),
                s.last().unwrap_or(0),
            );
        }
        out
    }

    /// Differences between two timeline sets, one line per divergence
    /// (empty = identical). Reports series present on only one side and,
    /// for shared series, the first diverging change point.
    pub fn diff(&self, other: &Timelines) -> Vec<String> {
        let mut out = Vec::new();
        if self.interval != other.interval {
            out.push(format!(
                "sampling interval differs: {} vs {}",
                self.interval, other.interval
            ));
        }
        for ((scope, metric), a) in self.iter() {
            match other.get(*scope, *metric) {
                None => out.push(format!("{scope} {metric}: only in left")),
                Some(b) => {
                    if let Some(i) =
                        (0..a.len().max(b.len())).find(|&i| a.points().get(i) != b.points().get(i))
                    {
                        let render = |p: Option<&(Nanos, u64)>| match p {
                            Some((t, v)) => format!("{v} @ {t}"),
                            None => "—".to_string(),
                        };
                        out.push(format!(
                            "{scope} {metric}: first divergence at step {i}: {} vs {}",
                            render(a.points().get(i)),
                            render(b.points().get(i)),
                        ));
                        // Surrounding context: the change points around
                        // the divergence on each side, so the reader sees
                        // the step shape, not just one number.
                        let ctx = |s: &StepSeries| -> String {
                            let lo = i.saturating_sub(2).min(s.len());
                            let hi = (i + 3).min(s.len());
                            let mut parts: Vec<String> =
                                s.points()[lo..hi].iter().map(|p| render(Some(p))).collect();
                            if lo > 0 {
                                parts.insert(0, "…".to_string());
                            }
                            if hi < s.len() {
                                parts.push("…".to_string());
                            }
                            if parts.is_empty() {
                                "(no points)".to_string()
                            } else {
                                parts.join(", ")
                            }
                        };
                        out.push(format!("  left:  {}", ctx(a)));
                        out.push(format!("  right: {}", ctx(b)));
                    }
                }
            }
        }
        for ((scope, metric), _) in other.iter() {
            if self.get(*scope, *metric).is_none() {
                out.push(format!("{scope} {metric}: only in right"));
            }
        }
        out
    }
}

/// `"key":value` integer field lookup on one serialized line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `"key":"value"` string field lookup on one serialized line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Parse the `"points":[[t,v],...]` array of one serialized line.
fn parse_points(line: &str) -> Result<Vec<(u64, u64)>, String> {
    let pat = "\"points\":[";
    let start = line
        .find(pat)
        .ok_or_else(|| "missing points array".to_string())?
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .rfind(']')
        .ok_or_else(|| "unterminated points".to_string())?;
    let body = &rest[..end];
    let mut out = Vec::new();
    for pair in body.split("],[") {
        let pair = pair.trim_matches(|c| c == '[' || c == ']');
        if pair.is_empty() {
            continue;
        }
        let (t, v) = pair
            .split_once(',')
            .ok_or_else(|| format!("malformed point `{pair}`"))?;
        let t: u64 = t.parse().map_err(|e| format!("point time `{t}`: {e}"))?;
        let v: u64 = v.parse().map_err(|e| format!("point value `{v}`: {e}"))?;
        if let Some(&(prev, _)) = out.last() {
            if t <= prev {
                return Err(format!("point time {t} does not follow {prev}"));
            }
        }
        out.push((t, v));
    }
    Ok(out)
}

/// A scope index field: present, and within `u32`.
fn field_u32(line: &str, key: &str, lineno: usize) -> Result<u32, String> {
    let v = field_u64(line, key).ok_or_else(|| err_at(lineno, key))?;
    u32::try_from(v).map_err(|_| format!("line {lineno}: `{key}` {v} exceeds u32"))
}

fn err_at(lineno: usize, key: &str) -> String {
    format!("line {lineno}: missing field `{key}`")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow0() -> Scope {
        Scope::Flow { flow: 0, ep: 0 }
    }

    #[test]
    fn step_series_collapses_repeats() {
        let mut s = StepSeries::new();
        s.push(Nanos(10), 5);
        s.push(Nanos(20), 5);
        s.push(Nanos(30), 7);
        s.push(Nanos(40), 7);
        s.push(Nanos(50), 5);
        assert_eq!(
            s.points(),
            &[(Nanos(10), 5), (Nanos(30), 7), (Nanos(50), 5)]
        );
        assert_eq!(s.value_at(Nanos(9)), None);
        assert_eq!(s.value_at(Nanos(10)), Some(5));
        assert_eq!(s.value_at(Nanos(35)), Some(7));
        assert_eq!(s.value_at(Nanos(99)), Some(5));
        assert_eq!(s.min(), Some(5));
        assert_eq!(s.max(), Some(7));
        assert_eq!(s.last(), Some(5));
    }

    #[test]
    fn timelines_round_trip_jsonl() {
        let mut tl = Timelines::new(Nanos::from_millis(1));
        tl.record(flow0(), MetricKind::Cwnd, Nanos(1_000), 8948);
        tl.record(flow0(), MetricKind::Cwnd, Nanos(2_000), 17896);
        tl.record(
            Scope::Host { host: 1 },
            MetricKind::CpuBusyNanos,
            Nanos(1_000),
            512,
        );
        tl.record(
            Scope::Link { link: 0 },
            MetricKind::QueueDrops,
            Nanos(1_000),
            0,
        );
        let text = tl.to_jsonl();
        let back = Timelines::from_jsonl(&text).expect("round trip parses");
        assert_eq!(back, tl);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_is_deterministic_regardless_of_record_order() {
        let build = |swap: bool| {
            let mut tl = Timelines::new(Nanos::from_millis(1));
            let records = [
                (Scope::Host { host: 0 }, MetricKind::RxRingFrames, 3u64),
                (flow0(), MetricKind::Cwnd, 8948),
            ];
            let order: Vec<_> = if swap {
                records.iter().rev().collect()
            } else {
                records.iter().collect()
            };
            for (scope, metric, v) in order {
                tl.record(*scope, *metric, Nanos(1000), *v);
            }
            tl
        };
        assert_eq!(build(false).to_jsonl(), build(true).to_jsonl());
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn diff_reports_divergence_and_missing_series() {
        let mut a = Timelines::new(Nanos::from_millis(1));
        let mut b = Timelines::new(Nanos::from_millis(1));
        a.record(flow0(), MetricKind::Cwnd, Nanos(1000), 10);
        b.record(flow0(), MetricKind::Cwnd, Nanos(1000), 11);
        a.record(flow0(), MetricKind::Retransmits, Nanos(1000), 0);
        assert!(a.diff(&a.clone()).is_empty());
        let d = a.diff(&b);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d[0].contains("first divergence"), "{d:?}");
        assert!(
            d[0].contains("flow 0/0") && d[0].contains("cwnd"),
            "divergence names (scope, metric): {d:?}"
        );
        assert!(
            d[0].contains("10 @ 1.000us") && d[0].contains("11 @ 1.000us"),
            "divergence carries (t, value) for both sides: {d:?}"
        );
        assert!(d[1].contains("left:"), "{d:?}");
        assert!(d[2].contains("right:"), "{d:?}");
        assert!(d[3].contains("only in left"), "{d:?}");
    }

    #[test]
    fn diff_context_windows_the_divergence() {
        let mut a = Timelines::new(Nanos::from_millis(1));
        let mut b = Timelines::new(Nanos::from_millis(1));
        for (i, v) in [1u64, 2, 3, 4, 5, 6, 7].iter().enumerate() {
            a.record(flow0(), MetricKind::Cwnd, Nanos(1000 * (i as u64 + 1)), *v);
            let v = if i == 3 { 99 } else { *v };
            b.record(flow0(), MetricKind::Cwnd, Nanos(1000 * (i as u64 + 1)), v);
        }
        let d = a.diff(&b);
        assert!(d[0].contains("step 3"), "{d:?}");
        // Context shows ±2 points with ellipses marking the truncation.
        assert!(d[1].starts_with("  left:  …, "), "{d:?}");
        assert!(d[1].contains("4 @ 4.000us"), "{d:?}");
        assert!(d[2].contains("99 @ 4.000us"), "{d:?}");
        assert!(d[1].ends_with(", …"), "{d:?}");
    }

    #[test]
    fn value_at_boundaries_and_before_first_point() {
        let mut s = StepSeries::new();
        s.push(Nanos(100), 1);
        s.push(Nanos(200), 2);
        // Strictly before the first change point: no value in effect.
        assert_eq!(s.value_at(Nanos(0)), None);
        assert_eq!(s.value_at(Nanos(99)), None);
        // Exactly at a change point the new value is already in effect.
        assert_eq!(s.value_at(Nanos(100)), Some(1));
        assert_eq!(s.value_at(Nanos(199)), Some(1));
        assert_eq!(s.value_at(Nanos(200)), Some(2));
        assert_eq!(s.value_at(Nanos(u64::MAX)), Some(2));
        assert_eq!(StepSeries::new().value_at(Nanos(0)), None);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines() {
        let err = |text: &str| Timelines::from_jsonl(text).expect_err("must be rejected");
        assert!(err("").contains("empty timelines document"));
        assert!(err("{\"nope\":1}").contains("not a timelines document"));
        assert!(err("{\"obs\":\"timelines\",\"series\":0}").contains("interval_ns"));
        let hdr = "{\"obs\":\"timelines\",\"interval_ns\":1000,\"series\":1}\n";
        let with = |line: &str| format!("{hdr}{line}\n");
        assert!(err(&with("{\"scope\":\"galaxy\",\"points\":[]}")).contains("unknown scope"));
        assert!(err(&with("{\"scope\":\"flow\",\"ep\":0}")).contains("missing field `flow`"));
        assert!(err(&with(
            "{\"scope\":\"flow\",\"flow\":0,\"ep\":0,\"metric\":\"warp\",\"points\":[]}"
        ))
        .contains("unknown metric"),);
        let e = err(&with(
            "{\"scope\":\"host\",\"host\":0,\"metric\":\"cwnd\",\"points\":[[1,2],[oops]]}",
        ));
        assert!(e.contains("line 2"), "{e}");
        let e = err(&with("{\"scope\":\"host\",\"host\":0,\"metric\":\"cwnd\"}"));
        assert!(e.contains("missing points"), "{e}");
        // A zero cadence is rejected, not clamped (nor a debug panic).
        let e = err("{\"obs\":\"timelines\",\"interval_ns\":0,\"series\":0}");
        assert!(e.contains("interval_ns must be positive"), "{e}");
        // Indices beyond u32 are rejected rather than truncated: flow 2^32
        // must not alias flow 0.
        for (key, fields) in [
            ("flow", "\"scope\":\"flow\",\"flow\":4294967296,\"ep\":0"),
            ("ep", "\"scope\":\"flow\",\"flow\":0,\"ep\":4294967296"),
            ("host", "\"scope\":\"host\",\"host\":4294967296"),
            ("link", "\"scope\":\"link\",\"link\":4294967296"),
        ] {
            let e = err(&with(&format!(
                "{{{fields},\"metric\":\"cwnd\",\"points\":[]}}"
            )));
            assert!(
                e.contains(&format!("`{key}` 4294967296 exceeds u32")),
                "{e}"
            );
        }
        // The header's series count must match the series lines: a
        // truncated sidecar is not a smaller valid document.
        let one = "{\"scope\":\"host\",\"host\":0,\"metric\":\"cwnd\",\"points\":[[1,2]]}";
        let e = err(&format!(
            "{{\"obs\":\"timelines\",\"interval_ns\":1000,\"series\":2}}\n{one}\n"
        ));
        assert!(e.contains("declares 2 series, document has 1"), "{e}");
        let e = err(hdr);
        assert!(e.contains("declares 1 series, document has 0"), "{e}");
        assert!(err("{\"obs\":\"timelines\",\"interval_ns\":1}").contains("missing series"));
        let e = err(&format!("{hdr}{one}\n{one}\n"));
        assert!(e.contains("line 3: repeated series host 0 cwnd"), "{e}");
        // Point times must strictly increase, or `value_at` and `diff`
        // misread the series.
        for (points, want) in [
            ("[[5,1],[3,2]]", "line 2: point time 3 does not follow 5"),
            ("[[5,1],[5,2]]", "line 2: point time 5 does not follow 5"),
        ] {
            let e = err(&with(&format!(
                "{{\"scope\":\"host\",\"host\":0,\"metric\":\"cwnd\",\"points\":{points}}}"
            )));
            assert!(e.contains(want), "{e}");
        }
        assert!(Timelines::from_jsonl(&with(one)).is_ok());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "sampling interval"))]
    fn zero_interval_clamps_to_one_nanosecond() {
        // Debug builds assert; release builds clamp and carry on.
        let tl = Timelines::new(Nanos::ZERO);
        assert_eq!(tl.interval, Nanos(1));
        let cfg = ObsConfig {
            sample_interval: Nanos::ZERO,
            ..ObsConfig::default()
        };
        assert_eq!(cfg.clamped_interval(), Nanos(1));
    }

    #[test]
    fn merge_unions_disjoint_scopes_and_interleaves_shared_ones() {
        let mut a = Timelines::new(Nanos::from_millis(1));
        let mut b = Timelines::new(Nanos::from_millis(1));
        a.record(
            Scope::Host { host: 0 },
            MetricKind::RxRingFrames,
            Nanos(10),
            3,
        );
        b.record(
            Scope::Host { host: 1 },
            MetricKind::RxRingFrames,
            Nanos(20),
            4,
        );
        // A shared series split across the two sides: interleave + collapse.
        a.record(flow0(), MetricKind::Cwnd, Nanos(10), 5);
        a.record(flow0(), MetricKind::Cwnd, Nanos(30), 7);
        b.record(flow0(), MetricKind::Cwnd, Nanos(20), 5);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(
            a.get(Scope::Host { host: 1 }, MetricKind::RxRingFrames)
                .map(StepSeries::points),
            Some(&[(Nanos(20), 4u64)][..])
        );
        // 5@10, 5@20 collapse; 7@30 survives.
        assert_eq!(
            a.get(flow0(), MetricKind::Cwnd).map(StepSeries::points),
            Some(&[(Nanos(10), 5u64), (Nanos(30), 7)][..])
        );
    }

    #[test]
    fn metric_names_round_trip() {
        for k in MetricKind::ALL {
            assert_eq!(MetricKind::parse(&k.to_string()), Some(k));
        }
        assert_eq!(MetricKind::parse("nope"), None);
    }
}
