//! `tengig-tools` — the measurement and workload tools of the paper, as
//! sans-IO state machines the laboratory drives:
//!
//! * [`nttcp`] — timed fixed-size-write bulk transfer (the primary
//!   throughput tool of §3.2/§3.3),
//! * [`iperf`] — time-bounded raw-bandwidth streams,
//! * [`netpipe`] — single-byte ping-pong latency (Figs. 6-7),
//! * [`pktgen`] — the single-copy kernel packet generator (§3.5.2),
//! * [`stream`] — the STREAM memory benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iperf;
pub mod netpipe;
pub mod nttcp;
pub mod pktgen;
pub mod stream;

pub use iperf::Iperf;
pub use netpipe::{NetPipe, PingPongSide};
pub use nttcp::{paper_payload_sweep, NttcpReceiver, NttcpResult, NttcpSender, PAPER_PACKET_COUNT};
pub use pktgen::Pktgen;
pub use stream::{run_stream, StreamResult};
