//! `tengig-net` — the network fabric between hosts.
//!
//! * [`link`] — store-and-forward hops and multi-hop paths with FIFO
//!   serialization, drop-tail buffers, POS framing, and random loss; a
//!   switch such as the paper's Foundry FastIron 1500 is a hop with a
//!   fixed forwarding latency and a finite egress buffer,
//! * [`fabric`] — grid fabrics: the GbE-into-10GbE fat-tree and the
//!   APENet-style 3D torus, with conservative lookahead bounds for
//!   sharded execution,
//! * [`impair`] — deterministic fault injection: Gilbert–Elliott burst
//!   loss, bounded-jitter reordering, duplication, bit-corruption, and
//!   time-scripted link flaps, composable per hop,
//! * [`wan`] — the Sunnyvale → Chicago → Geneva OC-192/OC-48 circuit of the
//!   Internet2 Land Speed Record run (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod impair;
pub mod link;
pub mod wan;

pub use fabric::{FatTreeSpec, TorusSpec};
pub use impair::{
    GilbertElliott, ImpairState, ImpairmentSchedule, Impairments, Reorder, MAX_OUTAGES,
};
pub use link::{Delivery, Hop, HopOutcome, HopState, Path, PathState, PathVerdict};
pub use wan::{pos_payload, WanSpec, OC192_LINE, OC48_LINE, POS_FRAMING};
