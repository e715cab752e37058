//! Helpers shared by the analog oracle suites.

/// The kernel run-time dispatch must pick on this host: `portable`
/// (the scalar bodies' name) when forced to them or when the CPU has no
/// wide ISA, otherwise the forced or widest available SIMD kernel.
pub fn expected_kernel(portable: &'static str) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        match std::env::var("TONOS_FORCE_KERNEL").as_deref() {
            Ok("scalar-tile" | "scalar-lockstep" | "scalar") => return portable,
            Ok("wide-avx2") if avx2 => return "wide-avx2",
            Ok("wide-avx512f") if avx512 => return "wide-avx512f",
            _ => {}
        }
        if avx512 {
            return "wide-avx512f";
        }
        if avx2 {
            return "wide-avx2";
        }
    }
    portable
}
