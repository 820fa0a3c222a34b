//! Storage model: seek plus sequential streaming rate, with per-spindle
//! FIFO read/write queues.
//!
//! The paper's capstone workload is an application-level disk-to-disk
//! WAN transfer (a terabyte in under an hour), and Kukol & Gray's
//! transcontinental follow-up showed the regime precisely: end-to-end
//! rate binds on whichever of *disk array*, *host*, or *wire* saturates
//! first, and multi-stream striping across spindles is how the disk side
//! keeps up with a 10 Gb/s path. This module models that storage side:
//!
//! * [`DiskSpec`] — positioning time and sustained sequential rate of
//!   one spindle (or one RAID volume presented as a spindle),
//! * [`DiskModel`] — a bank of spindles, each a pair of analytic
//!   [`FifoServer`] lanes (read and write), with streams mapped to
//!   spindles round-robin.
//!
//! Like every other host resource, a spindle needs no events of its own:
//! admitting a chunk at `now` analytically yields its completion time,
//! and the laboratory schedules whatever the completion triggers. A
//! positioning penalty is charged whenever a lane has gone idle — a
//! streaming disk that keeps its queue nonempty pays one seek and then
//! streams, while a stalled pipeline re-pays positioning on resume,
//! which is exactly the back-pressure coupling the Kukol–Gray regime
//! turns on.

use tengig_sim::{Admission, Bandwidth, FifoServer, Nanos};

/// Static parameters of one spindle (or striped volume).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Positioning (seek + rotational) time charged when a lane starts
    /// from idle.
    pub seek: Nanos,
    /// Sustained sequential transfer rate of the medium.
    pub rate: Bandwidth,
}

impl DiskSpec {
    /// A 2003-era 15k-rpm SCSI spindle: ~5 ms positioning, ~50 MB/s
    /// sustained sequential rate.
    pub fn scsi_2003() -> Self {
        DiskSpec {
            seek: Nanos::from_millis(5),
            rate: Bandwidth::from_gbps_f64(0.4),
        }
    }

    /// Service time for a sequential chunk of `bytes`, excluding any
    /// positioning penalty.
    pub fn stream_time(&self, bytes: u64) -> Nanos {
        self.rate.time_to_send(bytes)
    }
}

/// One spindle's read and write service lanes.
#[derive(Debug, Clone)]
struct Spindle {
    read: FifoServer,
    write: FifoServer,
}

/// A host's disk subsystem: `spindles` independent [`DiskSpec`] media,
/// with streams mapped to spindles round-robin (`stream % spindles`).
///
/// Aggregate sequential bandwidth therefore scales with the number of
/// *distinct* spindles the active streams land on — the striping-ladder
/// experiment raises the stream count until either every spindle is busy
/// (disk-bound) or the path saturates first (wire-bound).
#[derive(Debug, Clone)]
pub struct DiskModel {
    spec: DiskSpec,
    spindles: Vec<Spindle>,
}

impl DiskModel {
    /// A bank of `spindles` identical media (at least one).
    pub fn new(spec: DiskSpec, spindles: usize) -> Self {
        assert!(spindles >= 1, "a disk model needs at least one spindle");
        DiskModel {
            spec,
            spindles: (0..spindles)
                .map(|_| Spindle {
                    read: FifoServer::new(),
                    write: FifoServer::new(),
                })
                .collect(),
        }
    }

    /// The per-spindle specification.
    pub fn spec(&self) -> DiskSpec {
        self.spec
    }

    /// Number of spindles in the bank.
    pub fn spindles(&self) -> usize {
        self.spindles.len()
    }

    /// The spindle lane a stream maps to.
    fn lane(&mut self, stream: usize) -> &mut Spindle {
        let n = self.spindles.len();
        &mut self.spindles[stream % n]
    }

    /// Admit a sequential read of `bytes` for `stream` at `now`. The
    /// positioning penalty applies only when the lane is idle (a kept-busy
    /// spindle streams; a drained one re-seeks).
    pub fn read(&mut self, stream: usize, now: Nanos, bytes: u64) -> Admission {
        let mut service = self.spec.stream_time(bytes);
        let seek = self.spec.seek;
        let lane = self.lane(stream);
        if lane.read.idle_at(now) {
            service += seek;
        }
        lane.read.admit(now, service)
    }

    /// Admit a sequential write of `bytes` for `stream` at `now`; same
    /// positioning rule as [`DiskModel::read`].
    pub fn write(&mut self, stream: usize, now: Nanos, bytes: u64) -> Admission {
        let mut service = self.spec.stream_time(bytes);
        let seek = self.spec.seek;
        let lane = self.lane(stream);
        if lane.write.idle_at(now) {
            service += seek;
        }
        lane.write.admit(now, service)
    }

    /// Total busy time delivered across all read lanes.
    pub fn read_busy_total(&self) -> Nanos {
        self.spindles.iter().map(|s| s.read.busy_total()).sum()
    }

    /// Total busy time delivered across all write lanes.
    pub fn write_busy_total(&self) -> Nanos {
        self.spindles.iter().map(|s| s.write.busy_total()).sum()
    }

    /// Peak per-lane utilization over `[0, now]` across both directions —
    /// 1.0 means some spindle never went idle: the pipeline is
    /// disk-bound.
    pub fn peak_utilization(&self, now: Nanos) -> f64 {
        self.spindles
            .iter()
            .flat_map(|s| [s.read.utilization(now), s.write.utilization(now)])
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_chunk_pays_seek_streaming_does_not() {
        let spec = DiskSpec::scsi_2003();
        let mut d = DiskModel::new(spec, 1);
        let chunk = 1 << 20;
        let a = d.read(0, Nanos::ZERO, chunk);
        assert_eq!(a.start, Nanos::ZERO);
        assert_eq!(a.done, spec.seek + spec.stream_time(chunk));
        // Queued behind the first: still busy, no second seek.
        let b = d.read(0, Nanos::ZERO, chunk);
        assert_eq!(b.start, a.done);
        assert_eq!(b.done, a.done + spec.stream_time(chunk));
        // After the lane drains, positioning is charged again.
        let idle_at = b.done + Nanos::from_secs(1);
        let c = d.read(0, idle_at, chunk);
        assert_eq!(c.done, idle_at + spec.seek + spec.stream_time(chunk));
    }

    #[test]
    fn streams_stripe_round_robin_across_spindles() {
        let mut d = DiskModel::new(DiskSpec::scsi_2003(), 2);
        let chunk = 8 << 20;
        let a = d.read(0, Nanos::ZERO, chunk);
        let b = d.read(1, Nanos::ZERO, chunk);
        // Distinct spindles: both start immediately.
        assert_eq!(a.start, Nanos::ZERO);
        assert_eq!(b.start, Nanos::ZERO);
        // Stream 2 shares spindle 0 and queues behind stream 0.
        let c = d.read(2, Nanos::ZERO, chunk);
        assert_eq!(c.start, a.done);
    }

    #[test]
    fn read_and_write_lanes_are_independent() {
        let mut d = DiskModel::new(DiskSpec::scsi_2003(), 1);
        let r = d.read(0, Nanos::ZERO, 1 << 20);
        let w = d.write(0, Nanos::ZERO, 1 << 20);
        assert_eq!(r.start, Nanos::ZERO);
        assert_eq!(
            w.start,
            Nanos::ZERO,
            "write lane does not queue behind reads"
        );
        assert!(d.read_busy_total() > Nanos::ZERO);
        assert!(d.write_busy_total() > Nanos::ZERO);
        assert!(d.peak_utilization(r.done.max(w.done)) > 0.9);
    }

    #[test]
    fn raid_volume_scales_sequential_rate() {
        // Four streams striped over four spindles move four chunks in the
        // time one spindle moves one: same positioning time, aggregated
        // sequential rate.
        let spec = DiskSpec::scsi_2003();
        let mut four = DiskModel::new(spec, 4);
        let chunk = 64 << 20;
        for stream in 0..4 {
            let a = four.read(stream, Nanos::ZERO, chunk);
            assert_eq!(a.done, spec.seek + spec.stream_time(chunk));
        }
        assert_eq!(
            four.read_busy_total(),
            (spec.seek + spec.stream_time(chunk)) * 4
        );
    }
}
