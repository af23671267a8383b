//! Simulated GPU device models.
//!
//! The paper evaluates on an NVIDIA A100-PCIe-40GB and a GeForce RTX 3080.
//! `DeviceSpec` captures the handful of microarchitectural parameters that
//! govern memory-bound compute-intensive (MBCI) kernels:
//!
//! * streaming-multiprocessor (SM) count → available parallelism, wave count
//! * shared memory per block / per SM → schedule legality and occupancy
//! * DRAM bandwidth → the `W` of the paper's Eq. (3)
//! * tensor-core and FP32 throughput → the `P` of Eq. (4)
//! * kernel launch overhead → why unfused chains lose on small shapes
//!
//! The numbers below are the public datasheet values of the two cards.

use crate::dtype::DType;

/// GPU architecture generation (used for feature gating, e.g. BOLT
/// rejecting `sm_86` devices exactly like the paper reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Ampere data-center parts (A100).
    Sm80,
    /// Ampere consumer parts (RTX 3080).
    Sm86,
    /// Hopper data-center parts (H100).
    Sm90,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arch::Sm80 => f.write_str("sm_80"),
            Arch::Sm86 => f.write_str("sm_86"),
            Arch::Sm90 => f.write_str("sm_90"),
        }
    }
}

/// A simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"A100-PCIE-40GB"`.
    pub name: String,
    /// Compute capability.
    pub arch: Arch,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum shared memory usable by a single thread block, in bytes
    /// (after carving out the static reservation; this is the paper's
    /// `Shm_max`).
    pub smem_per_block: u64,
    /// Shared memory per SM, in bytes (bounds how many blocks co-reside).
    pub smem_per_sm: u64,
    /// Hardware limit on resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Peak DRAM bandwidth, bytes/second (`W`).
    pub dram_bandwidth: f64,
    /// Achievable fraction of peak DRAM bandwidth for streaming access.
    pub dram_efficiency: f64,
    /// Peak dense tensor-core throughput for f16/bf16 inputs, FLOP/s (`P`).
    pub peak_tensor_flops: f64,
    /// Peak FP32 FMA throughput, FLOP/s (fallback when inputs are f32).
    pub peak_fp32_flops: f64,
    /// Aggregate shared-memory bandwidth per SM, bytes/second.
    pub smem_bandwidth_per_sm: f64,
    /// Fixed cost of launching one kernel, seconds.
    pub launch_overhead: f64,
    /// L2 cache capacity in bytes (reduces re-read traffic of small tensors).
    pub l2_bytes: u64,
    /// Aggregate L2 cache bandwidth, bytes/second.
    pub l2_bandwidth: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-PCIe-40GB (the paper's first platform).
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100-PCIE-40GB".to_string(),
            arch: Arch::Sm80,
            num_sms: 108,
            // 164 KiB per block is the sm_80 opt-in maximum.
            smem_per_block: 164 * 1024,
            smem_per_sm: 164 * 1024,
            max_blocks_per_sm: 32,
            dram_bandwidth: 1.555e12,
            dram_efficiency: 0.87,
            peak_tensor_flops: 312e12,
            peak_fp32_flops: 19.5e12,
            smem_bandwidth_per_sm: 19.5e9 * 8.0,
            launch_overhead: 4.0e-6,
            l2_bytes: 40 * 1024 * 1024,
            l2_bandwidth: 4.7e12,
        }
    }

    /// NVIDIA H100-SXM5-80GB (a post-paper Hopper part, for tuning-cache
    /// portability studies: same MBCI model, different roofline).
    pub fn h100() -> Self {
        DeviceSpec {
            name: "H100-SXM5-80GB".to_string(),
            arch: Arch::Sm90,
            num_sms: 132,
            // 228 KiB per block is the sm_90 opt-in maximum.
            smem_per_block: 228 * 1024,
            smem_per_sm: 228 * 1024,
            max_blocks_per_sm: 32,
            dram_bandwidth: 3.35e12,
            dram_efficiency: 0.88,
            // Dense FP16 tensor-core throughput (no structured sparsity).
            peak_tensor_flops: 989e12,
            peak_fp32_flops: 67e12,
            smem_bandwidth_per_sm: 33.0e9 * 8.0,
            launch_overhead: 3.5e-6,
            l2_bytes: 50 * 1024 * 1024,
            l2_bandwidth: 9.0e12,
        }
    }

    /// NVIDIA GeForce RTX 3080 (the paper's second platform).
    pub fn rtx3080() -> Self {
        DeviceSpec {
            name: "GeForce-RTX-3080".to_string(),
            arch: Arch::Sm86,
            num_sms: 68,
            // sm_86 allows up to 100 KiB per block (101376 B usable).
            smem_per_block: 99 * 1024,
            smem_per_sm: 100 * 1024,
            max_blocks_per_sm: 16,
            dram_bandwidth: 760.3e9,
            dram_efficiency: 0.84,
            // Dense FP16 tensor-core throughput with FP32 accumulate.
            peak_tensor_flops: 59.5e12,
            peak_fp32_flops: 29.8e12,
            smem_bandwidth_per_sm: 14.2e9 * 8.0,
            launch_overhead: 4.5e-6,
            l2_bytes: 5 * 1024 * 1024,
            l2_bandwidth: 2.0e12,
        }
    }

    /// Peak arithmetic throughput for operands of the given type (`P`).
    #[inline]
    pub fn peak_flops(&self, dtype: DType) -> f64 {
        if dtype.tensor_core_native() {
            self.peak_tensor_flops
        } else {
            self.peak_fp32_flops
        }
    }

    /// Effective streaming DRAM bandwidth (`W` with achievable efficiency).
    #[inline]
    pub fn effective_bandwidth(&self) -> f64 {
        self.dram_bandwidth * self.dram_efficiency
    }

    /// The ridge point of the roofline: operations per byte above which a
    /// kernel is compute bound (`P/W` in §II-A of the paper).
    #[inline]
    pub fn ridge_flops_per_byte(&self, dtype: DType) -> f64 {
        self.peak_flops(dtype) / self.effective_bandwidth()
    }

    /// How many blocks with the given shared-memory footprint can co-reside
    /// on one SM (at least one: a block that fits per-block smem launches).
    #[inline]
    pub fn blocks_per_sm(&self, smem_per_block: u64) -> u32 {
        if smem_per_block == 0 {
            return self.max_blocks_per_sm;
        }
        let fit = (self.smem_per_sm / smem_per_block) as u32;
        fit.clamp(1, self.max_blocks_per_sm)
    }

    /// Maximum number of blocks resident across the whole device.
    #[inline]
    pub fn concurrent_blocks(&self, smem_per_block: u64) -> u32 {
        self.num_sms * self.blocks_per_sm(smem_per_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_basics() {
        let d = DeviceSpec::a100();
        assert_eq!(d.num_sms, 108);
        assert_eq!(d.arch, Arch::Sm80);
        assert!(d.peak_flops(DType::F16) > d.peak_flops(DType::F32));
        // Ridge point for f16 on A100 is roughly 312e12/1.35e12 ≈ 230 op/B,
        // matching the paper's "227" figure for a K=1024 GEMM.
        let ridge = d.ridge_flops_per_byte(DType::F16);
        assert!((150.0..300.0).contains(&ridge), "ridge {ridge}");
    }

    #[test]
    fn rtx3080_is_sm86() {
        let d = DeviceSpec::rtx3080();
        assert_eq!(d.arch, Arch::Sm86);
        assert!(d.num_sms < DeviceSpec::a100().num_sms);
        assert!(d.smem_per_block < DeviceSpec::a100().smem_per_block);
    }

    #[test]
    fn blocks_per_sm_clamps() {
        let d = DeviceSpec::a100();
        // A block using all available shared memory runs alone on an SM.
        assert_eq!(d.blocks_per_sm(d.smem_per_block), 1);
        // Tiny blocks are limited by the hardware resident-block cap.
        assert_eq!(d.blocks_per_sm(16), d.max_blocks_per_sm);
        // Zero-smem blocks also hit the cap.
        assert_eq!(d.blocks_per_sm(0), d.max_blocks_per_sm);
        // Half the SM's smem -> two blocks.
        assert_eq!(d.blocks_per_sm(d.smem_per_sm / 2), 2);
    }

    #[test]
    fn concurrent_blocks_scales_with_sms() {
        let d = DeviceSpec::a100();
        assert_eq!(d.concurrent_blocks(d.smem_per_sm), d.num_sms);
    }

    #[test]
    fn effective_bandwidth_below_peak() {
        for d in [DeviceSpec::a100(), DeviceSpec::rtx3080()] {
            assert!(d.effective_bandwidth() < d.dram_bandwidth);
            assert!(d.effective_bandwidth() > 0.5 * d.dram_bandwidth);
        }
    }
}
