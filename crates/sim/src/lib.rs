//! `tengig-sim` — the discrete-event simulation kernel of the `tengig`
//! 10-Gigabit-Ethernet performance laboratory.
//!
//! This crate knows nothing about networking. It provides:
//!
//! * [`Nanos`] — the nanosecond-resolution virtual clock value,
//! * [`Bandwidth`] — data rates and serialization-time arithmetic,
//! * [`Engine`] — a deterministic event calendar over caller-defined
//!   event enums ([`EventFire`]),
//! * [`FifoServer`]/[`ServerBank`] — analytic work-conserving resources used
//!   to model CPUs, buses, and wires,
//! * statistics instruments ([`stats`]) and metrics timelines ([`obs`]),
//! * [`SimRng`] — deterministic, forkable randomness,
//! * [`Sanitizer`] — a runtime invariant checker (causality, byte
//!   conservation, TCP sequence invariants) installable on the engine.
//!
//! Everything above (hosts, NICs, TCP, switches, the WAN) is built from these
//! pieces by the other `tengig-*` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod obs;
pub mod prof;
pub mod rng;
pub mod sanitizer;
pub mod server;
pub mod shard;
pub mod stats;
pub mod time;
pub mod units;
pub mod workload;

pub use calendar::{Calendar, EventId, FrontLane, LanePool};
pub use engine::{Engine, EventFire};
pub use obs::{MetricKind, ObsConfig, Scope, StepSeries, Timelines};
pub use prof::{CalendarCounters, EngineCounters, Hist, WallStats};
pub use rng::SimRng;
pub use sanitizer::{Sanitizer, Violation, ViolationKind};
pub use server::{Admission, FifoServer, ServerBank};
pub use shard::{run_sharded, run_sharded_wall, ShardWorld};
pub use time::Nanos;
pub use units::{rate_of, Bandwidth};
pub use workload::{
    build_schedule, ArrivalProcess, BoundedPareto, FctStats, FlowPlan, SizeMix, WorkloadSpec,
};
