//! Virtual tuning clock — reproduces the paper's Table IV cost accounting.
//!
//! The dominant costs of auto-tuning on real systems are (a) compiling each
//! measured candidate, (b) running it enough times for a stable timing, and
//! (c) for ML-cost-model tuners like Ansor, retraining the model every
//! round. MCFuser is fast because its analytical model makes (a)+(b) rare
//! and (c) nonexistent. We charge each of these events to a virtual clock
//! with costs calibrated to the toolchains the paper used, so the *ratios*
//! of Table IV (e.g. 139× vs. Ansor) emerge from the same mechanism as on
//! real hardware, without hours of wall time.

use parking_lot::Mutex;

/// Per-toolchain costs of tuning events, in (virtual) seconds.
#[derive(Debug, Clone)]
pub struct CostProfile {
    /// Compiling one candidate kernel.
    pub compile_seconds: f64,
    /// Fixed per-measurement overhead (device sync, data setup).
    pub measure_overhead_seconds: f64,
    /// Number of timed repetitions per measurement.
    pub measure_repeats: u32,
    /// Retraining the cost model once (0 for analytical models).
    pub train_seconds: f64,
}

impl CostProfile {
    /// Triton JIT path used by MCFuser (fast compiles, no training).
    pub fn triton() -> Self {
        CostProfile {
            compile_seconds: 1.6,
            measure_overhead_seconds: 0.25,
            measure_repeats: 100,
            train_seconds: 0.0,
        }
    }

    /// TVM/Ansor path: full CUDA codegen per candidate + XGBoost retrains
    /// (calibrated so 1000 trials land near the paper's ~4900 s, Table IV).
    pub fn ansor() -> Self {
        CostProfile {
            compile_seconds: 3.4,
            measure_overhead_seconds: 0.5,
            measure_repeats: 100,
            train_seconds: 16.0,
        }
    }

    /// BOLT: CUTLASS template instantiation (heavy C++ compiles — real
    /// CUTLASS kernels take several seconds each to build).
    pub fn cutlass() -> Self {
        CostProfile {
            compile_seconds: 7.0,
            measure_overhead_seconds: 0.3,
            measure_repeats: 100,
            train_seconds: 0.0,
        }
    }

    /// Relay: no per-shape tuning, just template lookup + one build.
    pub fn relay() -> Self {
        CostProfile {
            compile_seconds: 0.8,
            measure_overhead_seconds: 0.2,
            measure_repeats: 20,
            train_seconds: 0.0,
        }
    }
}

/// Counters of a finished tuning session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningReport {
    /// Accumulated virtual tuning time.
    pub virtual_seconds: f64,
    /// Candidate kernels compiled. MCFuser's tuner measures every kernel
    /// it compiles unless it refuses it for exceeding the device's
    /// shared memory, so its refused compiles are
    /// `compiles − measurements`.
    pub compiles: u64,
    /// Hardware measurements performed.
    pub measurements: u64,
    /// Cost-model training rounds.
    pub train_rounds: u64,
    /// Analytical estimates issued (free).
    pub estimates: u64,
}

/// A thread-safe virtual clock (tuners measure candidates from Rayon
/// worker threads).
#[derive(Debug, Default)]
pub struct TuningClock {
    inner: Mutex<TuningReport>,
}

impl TuningClock {
    /// Create an empty clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one candidate compilation.
    pub fn charge_compile(&self, cost: &CostProfile) {
        let mut g = self.inner.lock();
        g.compiles += 1;
        g.virtual_seconds += cost.compile_seconds;
    }

    /// Charge one hardware measurement of a kernel with the given runtime.
    pub fn charge_measurement(&self, cost: &CostProfile, kernel_seconds: f64) {
        let mut g = self.inner.lock();
        g.measurements += 1;
        g.virtual_seconds +=
            cost.measure_overhead_seconds + cost.measure_repeats as f64 * kernel_seconds;
    }

    /// Charge one cost-model training round.
    pub fn charge_training(&self, cost: &CostProfile) {
        let mut g = self.inner.lock();
        g.train_rounds += 1;
        g.virtual_seconds += cost.train_seconds;
    }

    /// Record `n` analytical estimates (free, but counted).
    pub fn note_estimates(&self, n: u64) {
        self.inner.lock().estimates += n;
    }

    /// Charge an arbitrary fixed cost (e.g. graph-level passes).
    pub fn charge_fixed(&self, seconds: f64) {
        self.inner.lock().virtual_seconds += seconds;
    }

    /// Fold another session's counters into this clock (used by the
    /// engine layer, which tunes each chain on its own local clock and
    /// merges the results so parallel tuning stays deterministic).
    pub fn absorb(&self, other: &TuningReport) {
        let mut g = self.inner.lock();
        g.virtual_seconds += other.virtual_seconds;
        g.compiles += other.compiles;
        g.measurements += other.measurements;
        g.train_rounds += other.train_rounds;
        g.estimates += other.estimates;
    }

    /// Snapshot the counters.
    pub fn report(&self) -> TuningReport {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_cost_scales_with_kernel_time() {
        let clock = TuningClock::new();
        let cost = CostProfile::triton();
        clock.charge_measurement(&cost, 1e-3);
        let t1 = clock.report().virtual_seconds;
        clock.charge_measurement(&cost, 2e-3);
        let t2 = clock.report().virtual_seconds - t1;
        assert!(t2 > t1 - cost.measure_overhead_seconds);
        assert!((t1 - (0.25 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn ansor_training_dominates_many_rounds() {
        let clock = TuningClock::new();
        let cost = CostProfile::ansor();
        for _ in 0..10 {
            clock.charge_training(&cost);
        }
        assert!((clock.report().virtual_seconds - 160.0).abs() < 1e-9);
        assert_eq!(clock.report().train_rounds, 10);
    }

    #[test]
    fn estimates_are_free() {
        let clock = TuningClock::new();
        for _ in 0..1000 {
            clock.note_estimates(1);
        }
        assert_eq!(clock.report().virtual_seconds, 0.0);
        assert_eq!(clock.report().estimates, 1000);
    }

    #[test]
    fn concurrent_charges_are_safe() {
        let clock = std::sync::Arc::new(TuningClock::new());
        let cost = CostProfile::triton();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = clock.clone();
                let cost = cost.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        c.charge_compile(&cost);
                    }
                });
            }
        });
        assert_eq!(clock.report().compiles, 800);
    }
}
