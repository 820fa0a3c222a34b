//! Engine self-profiling: the two-plane instrumentation substrate.
//!
//! The paper's method is *profile, then tune* — MAGNET told the authors
//! where the 10GigE path burned cycles before they touched MMRBC or the
//! MTU. This module gives the simulator the same visibility into itself,
//! split into two rigorously separated planes:
//!
//! * **Deterministic plane** — pure-integer counters and log-bucketed
//!   histograms ([`Hist`]) driven exclusively by simulation-domain
//!   quantities (event counts, batch lengths, calendar routing). Every
//!   value is a function of the executed schedule alone, so the plane is
//!   byte-identical across shard counts and sweep threads and can be
//!   golden-gated like any other sim output.
//! * **Wall-time plane** — per-shard barrier-wait and window-execute
//!   accounting ([`WallStats`]) fed by the *single* sanctioned wall-clock
//!   read in the workspace ([`wall_now_ns`], a `lint:trusted` boundary).
//!   Host-domain numbers land in their own report section, are never
//!   golden-gated, and never feed back into the simulation: the clock is
//!   read, subtracted, and accumulated — nothing downstream of it can
//!   reach a calendar.
//!
//! [`Hist`] is the HDR-style streaming histogram named on the roadmap:
//! 65 power-of-two buckets cover the full `u64` range with bounded
//! relative error, merging is bucket-wise addition (associative and
//! commutative, so per-shard histograms fold into one shard-count
//! invariant whole), and it is pure-integer end to end and round-trips
//! through a compact JSON rendering.

use std::sync::OnceLock;

/// Number of buckets in a [`Hist`]: bucket 0 holds exact zeros, bucket
/// `k >= 1` holds values in `[2^(k-1), 2^k - 1]`, so bucket 64 ends at
/// `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A pure-integer, mergeable, log-bucketed (HDR-style) histogram.
///
/// Records `u64` samples into 65 power-of-two buckets plus an exact
/// min/max, supports bucket-wise merge, and reads out percentiles as the
/// upper bound of the bucket containing the requested rank (clamped to
/// the observed `[min, max]`). All arithmetic is integer, so rendering
/// is bit-stable across platforms — safe for golden files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    count: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            count: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// The bucket index of value `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `k`.
    #[inline]
    fn bucket_top(k: usize) -> u64 {
        if k == 0 {
            0
        } else if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one: bucket-wise addition plus
    /// min/max union. Associative and commutative, so any merge order
    /// over per-shard histograms yields identical bytes.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The `p`-th percentile (`p` in `0..=100`): the upper bound of the
    /// bucket containing sample rank `ceil(p * count / 100)`, clamped to
    /// the observed `[min, max]`. Returns 0 when empty. Integer-only, so
    /// the answer is exact with respect to the bucketed distribution.
    pub fn percentile(&self, p: u64) -> u64 {
        self.permille(p.min(100).saturating_mul(10))
    }

    /// The quantile at permille `p` (`p` in `0..=1000`): like
    /// [`Hist::percentile`] but at tail resolution — `permille(999)` is
    /// the p999 the FCT reporting plane leans on, which integer percent
    /// cannot express. Same rank rule with a 1000 denominator
    /// (`percentile(p)` ≡ `permille(10 * p)` exactly).
    pub fn permille(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.min(1000);
        // ceil(p * count / 1000), at least rank 1.
        let rank = (p.saturating_mul(self.count).div_ceil(1000)).max(1);
        let mut seen = 0u64;
        for (k, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_top(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Render as a compact single-line JSON object:
    /// `{"count":N,"min":m,"max":M,"buckets":[[k,c],...]}` with only the
    /// nonzero buckets listed, in ascending bucket order.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count, self.min, self.max
        );
        let mut first = true;
        for (k, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("[{k},{b}]"));
        }
        s.push_str("]}");
        s
    }

    /// Parse a rendering produced by [`Hist::render`] (the object may be
    /// embedded in a larger JSON line; parsing starts at `text`'s first
    /// `{`). Errors name the missing or malformed field.
    pub fn parse(text: &str) -> Result<Hist, String> {
        let field = |name: &str| -> Result<u64, String> {
            let pat = format!("\"{name}\":");
            let at = text.find(&pat).ok_or_else(|| format!("missing {name}"))?;
            let rest = &text[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end]
                .parse::<u64>()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        let mut h = Hist::new();
        h.count = field("count")?;
        h.min = field("min")?;
        h.max = field("max")?;
        let bat = text.find("\"buckets\":[").ok_or("missing buckets")?;
        let rest = &text[bat + "\"buckets\":[".len()..];
        // The (nonempty) pair list ends at the first "]]"; an empty list
        // closes immediately with "]".
        let list = if rest.starts_with(']') {
            ""
        } else {
            let end = rest.find("]]").ok_or("unterminated buckets")?;
            &rest[..end + 1]
        };
        for pair in list.split("],[") {
            let pair = pair.trim_matches(|c| c == '[' || c == ']');
            if pair.is_empty() {
                continue;
            }
            let (k, c) = pair.split_once(',').ok_or("malformed bucket pair")?;
            let k: usize = k.parse().map_err(|e| format!("bad bucket index: {e}"))?;
            let c: u64 = c.parse().map_err(|e| format!("bad bucket count: {e}"))?;
            if k >= HIST_BUCKETS {
                return Err(format!("bucket index {k} out of range"));
            }
            h.buckets[k] = c;
        }
        let total: u64 = h.buckets.iter().sum();
        if total != h.count {
            return Err(format!("bucket sum {total} != count {}", h.count));
        }
        Ok(h)
    }

    /// One-line human summary: count plus the p50/p90/p99/max readout.
    pub fn summary(&self) -> String {
        format!(
            "n={} min={} p50={} p90={} p99={} max={}",
            self.count,
            self.min,
            self.percentile(50),
            self.percentile(90),
            self.percentile(99),
            self.max
        )
    }
}

/// Calendar-internal routing counters: where schedules landed (binary
/// heap slab, same-instant FIFO lane, timing wheel) and how the wheel
/// behaved. **Deterministic but not shard-count-invariant** — the
/// slab/wheel split depends on each calendar's private horizon state, so
/// these belong in the per-shard "local" profiling section, never in the
/// merged golden-gated one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarCounters {
    /// Schedules routed to the binary-heap slab.
    pub sched_slab: u64,
    /// Same-instant schedules routed to the FIFO lane.
    pub sched_lane: u64,
    /// High-water mark of the same-instant FIFO lane depth.
    pub lane_hiwater: u64,
    /// Timer schedules parked directly in the timing wheel.
    pub wheel_parked: u64,
    /// Timer schedules that fell back to the slab (outside the horizon).
    pub wheel_fallbacks: u64,
    /// Expired wheel buckets cascaded back into the slab.
    pub wheel_cascades: u64,
    /// Cancel attempts.
    pub cancels: u64,
    /// Cancels that found a live event.
    pub cancel_hits: u64,
}

/// Engine-surface scheduling totals: how many times each scheduling verb
/// was invoked, independent of calendar-internal routing. Every call
/// site executes on exactly one shard at the same virtual instant
/// regardless of shard count, so these totals (summed across shards)
/// **are** shard-count-invariant and safe for the golden-gated section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// `schedule_event_*` calls (normal-class events).
    pub sched_events: u64,
    /// `schedule_timer_*` calls (wheel-eligible timers).
    pub sched_timers: u64,
    /// `schedule_front_*` calls (front-class events).
    pub sched_front: u64,
    /// Cancel attempts.
    pub cancels: u64,
    /// Cancels that found a live event.
    pub cancel_hits: u64,
}

impl EngineCounters {
    /// Fold another engine's totals into this one (for cross-shard sums).
    pub fn merge(&mut self, other: &EngineCounters) {
        self.sched_events += other.sched_events;
        self.sched_timers += other.sched_timers;
        self.sched_front += other.sched_front;
        self.cancels += other.cancels;
        self.cancel_hits += other.cancel_hits;
    }
}

/// Wall-time plane: one shard's host-domain accounting, accumulated by
/// [`crate::shard::run_sharded_wall`]. Strictly observational — values
/// here never feed a calendar, never enter golden-gated output, and are
/// expected to differ run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WallStats {
    /// Lookahead windows this shard executed.
    pub windows: u64,
    /// Wall nanoseconds spent blocked on the round barrier.
    pub barrier_wait_ns: u64,
    /// Wall nanoseconds spent executing windows.
    pub execute_ns: u64,
}

impl WallStats {
    /// One-line host-domain rendering for the never-gated wall section.
    pub fn render(&self, shard: usize) -> String {
        format!(
            "{{\"wall\":\"shard\",\"shard\":{},\"windows\":{},\"barrier_wait_ns\":{},\"execute_ns\":{}}}",
            shard, self.windows, self.barrier_wait_ns, self.execute_ns
        )
    }
}

/// Monotonic wall-clock read for the profiling plane, in nanoseconds
/// since the first call. This is the **single sanctioned wall-clock
/// boundary** in the determinism crates: the value is observational
/// only — accumulated into [`WallStats`], reported in the never-gated
/// wall section, and provably unreachable from any calendar input (the
/// taint pass verifies every hot-path root stays clean because this
/// boundary is marked trusted).
// lint:trusted(profiling boundary: the one reviewed wall-clock read; host-domain output only, never golden-gated, never fed back into the simulation)
pub fn wall_now_ns() -> u64 {
    // lint:allow(wall-clock)
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    // lint:allow(wall-clock)
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    let ns = epoch.elapsed().as_nanos();
    ns.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_hist_is_all_zero() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(
            h.render(),
            "{\"count\":0,\"min\":0,\"max\":0,\"buckets\":[]}"
        );
    }

    #[test]
    fn bucket_edges_land_where_documented() {
        // 0 is its own bucket; 1 starts bucket 1; each power of two
        // opens a new bucket and each 2^k - 1 closes the previous one.
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of((1u64 << 32) - 1), 32);
        assert_eq!(Hist::bucket_of(1u64 << 32), 33);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        assert_eq!(Hist::bucket_top(0), 0);
        assert_eq!(Hist::bucket_top(1), 1);
        assert_eq!(Hist::bucket_top(64), u64::MAX);
    }

    #[test]
    fn extreme_values_record_and_read_back() {
        let mut h = Hist::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        // Rank 1 of 3 at p=0..33 is the zero bucket.
        assert_eq!(h.percentile(0), 0);
        assert_eq!(h.percentile(33), 0);
        // Rank 2 is the ones bucket; rank 3 the top bucket (clamped max).
        assert_eq!(h.percentile(50), 1);
        assert_eq!(h.percentile(100), u64::MAX);
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let mut h = Hist::new();
        h.record(777);
        for p in [0u64, 1, 50, 99, 100] {
            assert_eq!(h.percentile(p), 777, "p{p}");
        }
        for p in [0u64, 1, 500, 990, 999, 1000] {
            assert_eq!(h.permille(p), 777, "permille {p}");
        }
    }

    #[test]
    fn all_max_samples_stay_at_max() {
        let mut h = Hist::new();
        for _ in 0..5 {
            h.record(u64::MAX);
        }
        assert_eq!(h.min(), u64::MAX);
        assert_eq!(h.percentile(0), u64::MAX);
        assert_eq!(h.percentile(50), u64::MAX);
        assert_eq!(h.permille(999), u64::MAX);
        assert_eq!(h.percentile(100), u64::MAX);
    }

    #[test]
    fn empty_hist_permille_is_zero() {
        let h = Hist::new();
        for p in [0u64, 500, 999, 1000, 5000] {
            assert_eq!(h.permille(p), 0);
        }
    }

    #[test]
    fn permille_refines_percentile_exactly() {
        let mut h = Hist::new();
        for v in 0..1000u64 {
            h.record(v * v);
        }
        for p in 0..=100u64 {
            assert_eq!(h.percentile(p), h.permille(p * 10), "p{p}");
        }
        // The tail permilles are at least the p99 and at most the max.
        assert!(h.permille(999) >= h.percentile(99));
        assert!(h.permille(999) <= h.max());
    }

    #[test]
    fn percentiles_clamp_to_observed_range() {
        let mut h = Hist::new();
        h.record(900);
        h.record(901);
        // Both samples share bucket 10 (512..=1023); the bucket top 1023
        // must clamp to the observed max at every percentile.
        assert_eq!(h.percentile(1), 901);
        assert_eq!(h.percentile(50), 901);
        assert_eq!(h.percentile(99), 901);
    }

    #[test]
    fn render_parse_round_trips() {
        let mut h = Hist::new();
        for v in [0u64, 1, 1, 7, 900, 65_536, u64::MAX] {
            h.record(v);
        }
        let text = h.render();
        let back = Hist::parse(&text).expect("rendered hist parses");
        assert_eq!(back, h);
        // Embedded in a larger line it still parses.
        let line = format!("{{\"scenario\":\"x\",\"rx_batch\":{text},\"tail\":1}}");
        let tail = &line[line.find("\"rx_batch\":").expect("field present") + 11..];
        assert_eq!(Hist::parse(tail).expect("embedded hist parses"), h);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Hist::parse("{}").is_err());
        assert!(Hist::parse("{\"count\":1,\"min\":0,\"max\":0,\"buckets\":[]}").is_err());
        assert!(
            Hist::parse("{\"count\":1,\"min\":0,\"max\":0,\"buckets\":[[99,1]]}").is_err(),
            "out-of-range bucket index must be rejected"
        );
    }

    #[test]
    fn merge_matches_recording_the_union() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut whole = Hist::new();
        for v in [3u64, 5, 8, 1000] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 2, 1u64 << 40] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn engine_counters_merge_is_field_wise_addition() {
        let mut a = EngineCounters {
            sched_events: 1,
            sched_timers: 2,
            sched_front: 3,
            cancels: 4,
            cancel_hits: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.sched_events, 2);
        assert_eq!(a.cancel_hits, 10);
    }

    #[test]
    fn wall_clock_is_monotone_nondecreasing() {
        let a = wall_now_ns();
        let b = wall_now_ns();
        assert!(b >= a);
    }

    proptest! {
        #[test]
        fn merge_is_associative_and_matches_union(
            xs in proptest::collection::vec(any::<u64>(), 0..40),
            ys in proptest::collection::vec(any::<u64>(), 0..40),
            zs in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let hist_of = |vs: &[u64]| {
                let mut h = Hist::new();
                for &v in vs {
                    h.record(v);
                }
                h
            };
            let (x, y, z) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
            // (x + y) + z
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            // x + (y + z)
            let mut yz = y.clone();
            yz.merge(&z);
            let mut right = x.clone();
            right.merge(&yz);
            prop_assert_eq!(&left, &right);
            // ...and both equal recording the concatenation directly.
            let mut all = xs.clone();
            all.extend_from_slice(&ys);
            all.extend_from_slice(&zs);
            prop_assert_eq!(&left, &hist_of(&all));
            // Round-trip stability under the same inputs.
            prop_assert_eq!(
                Hist::parse(&left.render()).expect("renders parse"),
                left
            );
        }

        #[test]
        fn quantiles_are_monotone_in_q_and_bounded_by_min_max(
            xs in proptest::collection::vec(any::<u64>(), 1..60),
        ) {
            let mut h = Hist::new();
            for &v in &xs {
                h.record(v);
            }
            let mut prev = h.permille(0);
            for p in 0..=1000u64 {
                let q = h.permille(p);
                prop_assert!(q >= prev, "permille({}) = {} < {}", p, q, prev);
                prop_assert!(q >= h.min() && q <= h.max());
                prev = q;
            }
            // The coarse API agrees with the fine one everywhere.
            for p in 0..=100u64 {
                prop_assert_eq!(h.percentile(p), h.permille(p * 10));
            }
        }
    }
}
