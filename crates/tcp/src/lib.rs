//! `tengig-tcp` — a Linux-2.4-style TCP/IP stack as a sans-IO state machine.
//!
//! This is the protocol substrate of the laboratory: everything the paper's
//! §3.5.1 window analysis and §4 WAN record depend on is implemented as
//! mechanism, not curve-fitting:
//!
//! * [`conn`] — the connection state machine: per-write segmentation,
//!   packet-counted congestion window, truesize buffer accounting,
//!   MSS-aligned advertised windows with SWS avoidance, delayed ACKs,
//!   Jacobson RTO, Reno fast retransmit/recovery,
//! * [`cc`] — Reno congestion control (the AIMD of Table 1),
//! * [`sysctl`] — the tuning surface (`tcp_rmem`, timestamps, window
//!   scaling, MTU, txqueuelen, …),
//! * [`segment`] — wire units,
//! * [`udp`] — datagrams for the pktgen workload.
//!
//! The state machines are deliberately I/O-free: they return [`Action`]s
//! and the composition layer schedules them on the simulation engine and
//! charges hardware costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod conn;
pub mod segment;
pub mod sysctl;
pub mod udp;

pub use cc::{CcAction, Phase, Reno};
pub use conn::{Action, ConnStats, TcpConn, TimerKind};
pub use segment::{Flags, Segment, Timestamps};
pub use sysctl::{BufTriple, Sysctls};
pub use udp::Datagram;
