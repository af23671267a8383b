//! The instruction sets the host kernels are compiled for.
//!
//! Each host kernel ([`gemm`](crate::gemm()) and
//! [`gelu_in_place`](crate::gelu_in_place)) is compiled once per [`Isa`]
//! and runs the widest copy this CPU can run. The answer is looked up
//! once per process, and nothing else selects a copy.

/// An instruction set a kernel is compiled for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512f,
}

impl Isa {
    pub(crate) const ALL: &'static [Isa] = &[
        Isa::Portable,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f,
    ];

    /// Whether this CPU has every feature the copy is compiled with,
    /// including those rustc implies: AVX-512F implies AVX2, FMA and F16C,
    /// and AVX2 implies AVX and the SSE levels down to SSE3. Detected once
    /// per process.
    pub(crate) fn runs_here(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => {
                static HERE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
                *HERE.get_or_init(|| {
                    macro_rules! has {
                        ($($feature:tt),+) => {
                            $(std::arch::is_x86_feature_detected!($feature))&&+
                        };
                    }
                    has!(
                        "avx512f", "fma", "f16c", "avx2", "avx", "sse4.2", "sse4.1", "ssse3",
                        "sse3"
                    )
                })
            }
        }
    }

    /// The widest copy this CPU can run.
    pub(crate) fn widest() -> Isa {
        Isa::ALL
            .iter()
            .rev()
            .copied()
            .find(|isa| isa.runs_here())
            .unwrap_or(Isa::Portable)
    }

    /// Every copy this CPU can run, narrowest (the portable copy) first.
    #[cfg(test)]
    pub(crate) fn here() -> Vec<Isa> {
        Isa::ALL.iter().copied().filter(|i| i.runs_here()).collect()
    }
}
