//! `tengig-ethernet` — Ethernet/IP/TCP framing arithmetic.
//!
//! The SC'03 case study turns on byte-accurate framing: MTU → MSS
//! derivation (with and without TCP timestamps), wire overhead per frame
//! (preamble, inter-frame gap, FCS), and the non-standard MTUs (8160, 16000)
//! whose value comes from how frames fit power-of-2 kernel buffers. This
//! crate is the single source of truth for those numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mtu;

pub use mtu::{
    Mtu, ETH_FCS, ETH_HEADER, ETH_PREAMBLE_IFG, IP_HEADER, TCP_HEADER, TCP_TIMESTAMP_OPTION,
};
