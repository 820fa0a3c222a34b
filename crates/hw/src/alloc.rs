//! The Linux power-of-2 block allocator model.
//!
//! §3.3 ("Tuning the MTU Size"): "Linux allocates memory from pools of
//! power-of-2 sized blocks. An 8160-byte MTU allows an entire packet —
//! payload + TCP/IP headers + Ethernet headers — to fit in a single
//! 8192-byte block whereas a 9000-byte MTU requires the kernel to allocate a
//! 16384-byte block, thus wasting roughly 7000 bytes" and "using larger
//! blocks places far greater stress on the kernel's memory-allocation
//! subsystem because it is generally harder to find the contiguous pages
//! required for the larger blocks."
//!
//! The model captures all three consequences:
//!
//! * **block size** — the power-of-2 block an skb of a given size lands in,
//! * **truesize** — block + skb bookkeeping, the unit Linux charges against
//!   the socket receive buffer (the hidden reason "oversizing" buffers
//!   helps: a 9000-MTU frame charges 16640 bytes of buffer for 8948 bytes
//!   of payload),
//! * **allocation cost** — CPU time per allocation, growing with block
//!   order to model the contiguous-page pressure.

use tengig_sim::Nanos;

/// Per-skb bookkeeping overhead charged in addition to the data block
/// (`struct sk_buff` plus alignment), as Linux accounts it in `skb->truesize`.
pub const SKB_OVERHEAD: u64 = 256;

/// Model of the kernel's power-of-2 ("buddy"-backed) block allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockAllocator {
    /// Allocation cost for a block of order 0 (≤ 4096 bytes).
    pub base_cost: Nanos,
    /// Additional cost per order above 0, compounding the difficulty of
    /// finding contiguous pages. Order 1 = 8 KiB, order 2 = 16 KiB, …
    pub per_order_cost: Nanos,
    /// Extra multiplier applied from this order upward, modeling the sharp
    /// contiguity pressure the paper observed for 16 KiB blocks.
    pub pressure_order: u32,
    /// The pressure multiplier.
    pub pressure_factor: f64,
}

impl Default for BlockAllocator {
    fn default() -> Self {
        Self::linux24()
    }
}

impl BlockAllocator {
    /// Calibrated Linux 2.4 defaults.
    pub fn linux24() -> Self {
        BlockAllocator {
            base_cost: Nanos::from_nanos(100),
            per_order_cost: Nanos::from_nanos(200),
            pressure_order: 2,
            pressure_factor: 5.0,
        }
    }

    /// The power-of-2 block size that holds `bytes` (minimum 256).
    pub fn block_size(bytes: u64) -> u64 {
        bytes.max(256).next_power_of_two()
    }

    /// Wasted bytes when `bytes` lands in its block.
    pub fn waste(bytes: u64) -> u64 {
        Self::block_size(bytes) - bytes
    }

    /// The buddy order of the block holding `bytes`: order 0 is one 4 KiB
    /// page (blocks ≤ 4096), order n is `4096 << n`.
    pub fn order(bytes: u64) -> u32 {
        let block = Self::block_size(bytes);
        if block <= 4096 {
            0
        } else {
            (block / 4096).trailing_zeros()
        }
    }

    /// `skb->truesize`: what one frame of `frame_bytes` charges against a
    /// socket buffer.
    pub fn truesize(frame_bytes: u64) -> u64 {
        Self::block_size(frame_bytes) + SKB_OVERHEAD
    }

    /// CPU cost of allocating a block for `bytes`.
    pub fn alloc_cost(&self, bytes: u64) -> Nanos {
        let order = Self::order(bytes);
        let linear = self.base_cost + self.per_order_cost * order as u64;
        if order >= self.pressure_order {
            linear.scale(self.pressure_factor)
        } else {
            linear
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tengig_ethernet::Mtu;

    #[test]
    fn paper_block_sizes() {
        // 8160 MTU: whole frame (8178 bytes with Ethernet header + FCS)
        // fits one 8 KiB block... frame = 8160 + 18 = 8178 ≤ 8192. ✓
        assert_eq!(
            BlockAllocator::block_size(Mtu::TUNED_8160.frame_bytes()),
            8192
        );
        // 9000 MTU needs a 16 KiB block and wastes ~7 KB.
        assert_eq!(
            BlockAllocator::block_size(Mtu::JUMBO_9000.frame_bytes()),
            16384
        );
        assert!(BlockAllocator::waste(Mtu::JUMBO_9000.frame_bytes()) > 7000);
        // 16000 MTU also lands in 16 KiB but wastes little.
        assert_eq!(
            BlockAllocator::block_size(Mtu::MAX_INTEL_16000.frame_bytes()),
            16384
        );
        assert!(BlockAllocator::waste(Mtu::MAX_INTEL_16000.frame_bytes()) < 400);
    }

    #[test]
    fn orders() {
        assert_eq!(BlockAllocator::order(1518), 0);
        assert_eq!(BlockAllocator::order(4096), 0);
        assert_eq!(BlockAllocator::order(8178), 1);
        assert_eq!(BlockAllocator::order(9018), 2);
        assert_eq!(BlockAllocator::order(16018), 2);
        assert_eq!(BlockAllocator::order(20000), 3);
    }

    #[test]
    fn alloc_cost_grows_with_order_and_pressure() {
        let a = BlockAllocator::linux24();
        let c1500 = a.alloc_cost(1518);
        let c8160 = a.alloc_cost(8178);
        let c9000 = a.alloc_cost(9036);
        assert!(c1500 < c8160, "{c1500} < {c8160}");
        assert!(c8160 < c9000);
        // Pressure kicks in at order 2: the 16 KiB block costs much more
        // than linear extrapolation.
        assert!(c9000 > c8160.scale(2.0), "{c9000} vs {c8160}");
    }

    #[test]
    fn buffer_efficiency_ranking_matches_paper() {
        // Payload-per-buffer efficiency: how much of the truesize charge
        // is useful payload. This single number explains the paper's MTU
        // ranking: 8160 (0.95) > 16000 (0.95) > 1500 (0.63) > 9000 (0.54).
        let eff =
            |mtu: Mtu| mtu.mss(true) as f64 / BlockAllocator::truesize(mtu.frame_bytes()) as f64;
        let e1500 = eff(Mtu::STANDARD);
        let e9000 = eff(Mtu::JUMBO_9000);
        let e8160 = eff(Mtu::TUNED_8160);
        let e16000 = eff(Mtu::MAX_INTEL_16000);
        assert!(e8160 > 0.9, "{e8160}");
        assert!(e16000 > 0.9, "{e16000}");
        assert!(e9000 < 0.56, "{e9000}");
        assert!(e1500 > e9000 && e1500 < e8160, "{e1500}");
    }

    #[test]
    fn truesize_includes_skb_overhead() {
        assert_eq!(BlockAllocator::truesize(1518), 2048 + 256);
        assert_eq!(BlockAllocator::truesize(9036), 16384 + 256);
    }

    #[test]
    fn tiny_allocations_clamp_to_minimum_block() {
        assert_eq!(BlockAllocator::block_size(1), 256);
        assert_eq!(BlockAllocator::block_size(0), 256);
        assert_eq!(BlockAllocator::order(1), 0);
    }
}
