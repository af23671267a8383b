//! Memory-bound "streaming" kernels (element-wise ops, reductions,
//! softmax passes, layer norm …).
//!
//! Unfused pipelines launch these as separate kernels between the GEMMs;
//! their cost is almost purely global-memory traffic plus launch overhead.
//! Rather than build a full tile program for each, baselines describe them
//! with a [`StreamKernel`] and the same wave/bandwidth model prices them.

use crate::device::DeviceSpec;

/// A memory-streaming kernel described by its traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamKernel {
    /// Display name.
    pub name: String,
    /// Bytes read from global memory.
    pub bytes_read: f64,
    /// Bytes written to global memory.
    pub bytes_written: f64,
    /// Arithmetic performed (FP32 pipe).
    pub flops: f64,
    /// Whether the reads are expected to hit in L2 (producer just ran).
    pub reads_hit_l2: bool,
}

impl StreamKernel {
    /// An element-wise map over `elems` elements of `elem_bytes` each
    /// (one read + one write per element).
    pub fn elementwise(name: impl Into<String>, elems: u64, elem_bytes: u64) -> Self {
        let b = (elems * elem_bytes) as f64;
        StreamKernel {
            name: name.into(),
            bytes_read: b,
            bytes_written: b,
            flops: elems as f64,
            reads_hit_l2: false,
        }
    }

    /// A row-wise reduction over an `rows × cols` matrix producing one
    /// value per row.
    pub fn row_reduce(name: impl Into<String>, rows: u64, cols: u64, elem_bytes: u64) -> Self {
        StreamKernel {
            name: name.into(),
            bytes_read: (rows * cols * elem_bytes) as f64,
            bytes_written: (rows * 4) as f64,
            flops: (rows * cols) as f64,
            reads_hit_l2: false,
        }
    }

    /// Mark the kernel's input as L2-resident.
    pub fn with_l2_hot(mut self) -> Self {
        self.reads_hit_l2 = true;
        self
    }

    /// Execution time on a device (including launch overhead).
    pub fn time(&self, dev: &DeviceSpec) -> f64 {
        let total = self.bytes_read + self.bytes_written;
        let fits_l2 = total <= 0.8 * dev.l2_bytes as f64;
        let read_bw = if self.reads_hit_l2 && fits_l2 {
            dev.l2_bandwidth
        } else {
            dev.effective_bandwidth()
        };
        let t_read = self.bytes_read / read_bw;
        let t_write = self.bytes_written / dev.effective_bandwidth();
        let t_comp = self.flops / dev.peak_fp32_flops;
        dev.launch_overhead + (t_read + t_write).max(t_comp)
    }
}

/// Total time of a sequence of streaming kernels.
pub fn sequence_time(kernels: &[StreamKernel], dev: &DeviceSpec) -> f64 {
    kernels.iter().map(|k| k.time(dev)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_time_scales_with_size() {
        let dev = DeviceSpec::a100();
        let small = StreamKernel::elementwise("relu", 1 << 16, 2).time(&dev);
        let large = StreamKernel::elementwise("relu", 1 << 26, 2).time(&dev);
        assert!(large > small);
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let dev = DeviceSpec::a100();
        let t = StreamKernel::elementwise("scale", 16, 2).time(&dev);
        assert!(t >= dev.launch_overhead);
        assert!(t < dev.launch_overhead * 1.01);
    }

    #[test]
    fn l2_hot_reads_are_faster() {
        let dev = DeviceSpec::a100();
        let cold = StreamKernel::elementwise("softmax", 1 << 20, 2);
        let hot = cold.clone().with_l2_hot();
        assert!(hot.time(&dev) < cold.time(&dev));
    }

    #[test]
    fn l2_hint_ignored_when_too_large_for_l2() {
        let dev = DeviceSpec::a100();
        // 1 GiB cannot be L2 resident.
        let cold = StreamKernel::elementwise("big", 1 << 29, 2);
        let hot = cold.clone().with_l2_hot();
        assert_eq!(hot.time(&dev), cold.time(&dev));
    }

    #[test]
    fn sequence_is_additive() {
        let dev = DeviceSpec::a100();
        let k = StreamKernel::elementwise("x", 1 << 20, 2);
        let t1 = k.time(&dev);
        assert!((sequence_time(&[k.clone(), k], &dev) - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn row_reduce_reads_dominate() {
        let dev = DeviceSpec::a100();
        let k = StreamKernel::row_reduce("max", 4096, 4096, 2);
        assert!(k.bytes_read > 100.0 * k.bytes_written);
        assert!(k.time(&dev) > dev.launch_overhead);
    }
}
