//! Runtime-dispatched SIMD kernels for the two query-path hot loops:
//! the `m×d` projection behind hashing and the bounded squared-distance
//! behind candidate verification.
//!
//! ## Dispatch model
//!
//! A [`Kernel`] names one ISA implementation; [`KernelDispatch`] wraps a
//! validated choice and exposes the kernel entry points. The process
//! picks its kernel **once**: [`dispatch`] lazily initializes a global
//! from runtime CPU feature detection (`is_x86_feature_detected!`),
//! honoring `CC_FORCE_SCALAR=1`, and [`init`] lets binaries with a
//! `--kernel` flag pin an explicit choice before first use. Every path
//! is independently testable because all entry points also exist on
//! explicit [`KernelDispatch`] values — the equivalence proptests run
//! every available kernel against the scalar oracle in one process.
//!
//! ## Bit-identity contract
//!
//! For a given input, every kernel returns **bit-identical** results:
//!
//! * distance: same value as [`cc_vector::dist::euclidean_sq`], and for
//!   the bounded variant the same `Some`/`None` abandon decision at the
//!   same [`bound check boundaries`](KernelDispatch::bound_check_dims);
//! * projection: same value as [`scalar::dot`], the canonical lane-
//!   parallel schedule (which this module *defines* — the old
//!   sequential-`f64` `cc_vector::dist::dot` cannot be reproduced by a
//!   lane-parallel kernel, so hashing now funnels through this one).
//!
//! Kernel choice therefore never affects results, only speed: an index
//! built under AVX2 answers queries hashed under `CC_FORCE_SCALAR=1`
//! identically, sharded and service paths included.
//!
//! ## Safety
//!
//! This module (its `x86`/`neon` submodules and the AVX2 call sites
//! below) is the only code in the crate allowed to use `unsafe` — the
//! crate-level lint is `deny(unsafe_code)` with narrow `allow`s here.
//! The obligations are (a) SIMD loads stay in bounds, guaranteed by
//! slice-length arithmetic at each load, and (b) AVX2 functions are only
//! entered after `is_x86_feature_detected!("avx2")` succeeded, which
//! [`KernelDispatch::new`] establishes and the dispatch methods rely on.

pub mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use cc_vector::dataset::Dataset;
use std::sync::OnceLock;

/// One ISA implementation of the kernel pair. All variants exist on
/// every architecture (so kernel names parse anywhere — a bench report
/// from an aarch64 box is readable on x86), but only some are
/// [`available`](Kernel::available) at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable reference path ([`cc_vector::dist`] + [`scalar`]).
    Scalar,
    /// x86-64 SSE2 (baseline — always available on x86-64).
    Sse2,
    /// x86-64 AVX2 (runtime-detected).
    Avx2,
    /// aarch64 NEON (baseline — always available on aarch64).
    Neon,
}

impl Kernel {
    /// Stable lowercase name (CLI flags, bench reports, Prometheus).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }

    /// Parse a CLI/ENV kernel name; `auto` means "detect the best".
    pub fn parse(s: &str) -> Result<Option<Kernel>, String> {
        match s {
            "auto" => Ok(None),
            "scalar" => Ok(Some(Kernel::Scalar)),
            "sse2" => Ok(Some(Kernel::Sse2)),
            "avx2" => Ok(Some(Kernel::Avx2)),
            "neon" => Ok(Some(Kernel::Neon)),
            other => {
                Err(format!("unknown kernel '{other}' (expected auto, scalar, sse2, avx2 or neon)"))
            }
        }
    }

    /// Whether this kernel can run on the current machine.
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Sse2 => cfg!(target_arch = "x86_64"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2 => false,
            Kernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The best kernel the current machine supports.
    pub fn detect() -> Kernel {
        if Kernel::Avx2.available() {
            Kernel::Avx2
        } else if Kernel::Sse2.available() {
            Kernel::Sse2
        } else if Kernel::Neon.available() {
            Kernel::Neon
        } else {
            Kernel::Scalar
        }
    }

    /// Every kernel available on this machine (scalar first) — the
    /// iteration set of the equivalence tests and the bench sweep.
    pub fn all_available() -> Vec<Kernel> {
        [Kernel::Scalar, Kernel::Sse2, Kernel::Avx2, Kernel::Neon]
            .into_iter()
            .filter(|k| k.available())
            .collect()
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated kernel choice; construction proves availability, so the
/// dispatch methods may enter `#[target_feature]` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    kernel: Kernel,
}

impl KernelDispatch {
    /// Wrap `kernel`, verifying it can run on this machine.
    pub fn new(kernel: Kernel) -> Result<Self, String> {
        if kernel.available() {
            Ok(Self { kernel })
        } else {
            Err(format!("kernel '{}' is not available on this machine", kernel.name()))
        }
    }

    /// The selected kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Dimensions between early-abandon bound checks, derived from the
    /// kernel's accumulator lane count. Every dispatchable kernel keeps
    /// [`cc_vector::dist::LANES`] f32 lanes and checks every
    /// [`cc_vector::dist::CHECK_CHUNKS`] chunks, so the boundaries — and
    /// with them the abandon-rate statistics — are identical across
    /// kernels.
    pub fn bound_check_dims(&self) -> usize {
        cc_vector::dist::LANES * cc_vector::dist::CHECK_CHUNKS
    }

    /// Early-abandoning squared Euclidean distance; contract identical
    /// to [`cc_vector::dist::euclidean_sq_bounded`], results
    /// bit-identical across kernels.
    ///
    /// # Panics
    /// Panics when the slices disagree on length.
    #[inline]
    #[allow(unsafe_code)]
    pub fn euclidean_sq_bounded(&self, a: &[f32], b: &[f32], bound: f64) -> Option<f64> {
        match self.kernel {
            Kernel::Scalar => cc_vector::dist::euclidean_sq_bounded(a, b, bound),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86-64 baseline, so the
            // feature is unconditionally present.
            Kernel::Sse2 => unsafe { x86::sq_sse2::<true>(a, b, bound) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch::new` only admits Avx2 after
            // `is_x86_feature_detected!("avx2")` succeeded.
            Kernel::Avx2 => unsafe { x86::sq_avx2::<true>(a, b, bound) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline, so the
            // feature is unconditionally present.
            Kernel::Neon => unsafe { neon::sq_neon::<true>(a, b, bound) },
            #[allow(unreachable_patterns)]
            _ => unreachable!("kernel {:?} unavailable on this architecture", self.kernel),
        }
    }

    /// Unbounded squared Euclidean distance, bit-identical to
    /// [`cc_vector::dist::euclidean_sq`].
    ///
    /// # Panics
    /// Panics when the slices disagree on length.
    #[inline]
    #[allow(unsafe_code)]
    pub fn euclidean_sq(&self, a: &[f32], b: &[f32]) -> f64 {
        let v = match self.kernel {
            Kernel::Scalar => Some(cc_vector::dist::euclidean_sq(a, b)),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86-64 baseline, so the
            // feature is unconditionally present.
            Kernel::Sse2 => unsafe { x86::sq_sse2::<false>(a, b, f64::INFINITY) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch::new` only admits Avx2 after
            // `is_x86_feature_detected!("avx2")` succeeded.
            Kernel::Avx2 => unsafe { x86::sq_avx2::<false>(a, b, f64::INFINITY) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline, so the
            // feature is unconditionally present.
            Kernel::Neon => unsafe { neon::sq_neon::<false>(a, b, f64::INFINITY) },
            #[allow(unreachable_patterns)]
            _ => unreachable!("kernel {:?} unavailable on this architecture", self.kernel),
        };
        match v {
            Some(v) => v,
            None => unreachable!("unbounded kernel cannot abandon"),
        }
    }

    /// Projection dot product `Σ a[i]·q[i]` under the canonical
    /// lane-parallel schedule ([`scalar::dot`]), bit-identical across
    /// kernels.
    ///
    /// # Panics
    /// Panics when the slices disagree on length.
    #[inline]
    #[allow(unsafe_code)]
    pub fn dot(&self, a: &[f32], q: &[f32]) -> f64 {
        match self.kernel {
            Kernel::Scalar => scalar::dot(a, q),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86-64 baseline, so the
            // feature is unconditionally present.
            Kernel::Sse2 => unsafe { x86::dot_sse2(a, q) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `KernelDispatch::new` only admits Avx2 after
            // `is_x86_feature_detected!("avx2")` succeeded.
            Kernel::Avx2 => unsafe { x86::dot_avx2(a, q) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline, so the
            // feature is unconditionally present.
            Kernel::Neon => unsafe { neon::dot_neon(a, q) },
            #[allow(unreachable_patterns)]
            _ => unreachable!("kernel {:?} unavailable on this architecture", self.kernel),
        }
    }

    /// Project one vector through a whole hash family: `out[t] =
    /// rows[t]·q + offsets[t]` over the packed row-major `m×d` matrix.
    ///
    /// # Panics
    /// Panics when the buffer shapes disagree.
    pub fn project_family(
        &self,
        matrix: &[f32],
        d: usize,
        q: &[f32],
        offsets: &[f64],
        out: &mut [f64],
    ) {
        let m = offsets.len();
        assert_eq!(matrix.len(), m * d, "matrix shape mismatch");
        assert_eq!(q.len(), d, "query dimensionality mismatch");
        assert_eq!(out.len(), m, "output length mismatch");
        for t in 0..m {
            out[t] = self.dot(&matrix[t * d..(t + 1) * d], q) + offsets[t];
        }
    }

    /// Batched projection: hash a whole coalesced query batch against
    /// the `m×d` matrix at once, `out[qi*m + t] = rows[t]·q_qi +
    /// offsets[t]`. Queries are processed in blocks of
    /// [`PROJECT_QUERY_BLOCK`] with the row loop outside the block —
    /// each matrix row is read once per block instead of once per
    /// query, which is where batch coalescing pays. Per-query results
    /// are bit-identical to [`KernelDispatch::project_family`] (the
    /// per-row dot is pure; blocking only reorders independent rows).
    ///
    /// # Panics
    /// Panics when the buffer shapes disagree.
    pub fn project_batch(
        &self,
        matrix: &[f32],
        d: usize,
        queries: &Dataset,
        offsets: &[f64],
        out: &mut [f64],
    ) {
        let m = offsets.len();
        let nq = queries.len();
        assert_eq!(matrix.len(), m * d, "matrix shape mismatch");
        assert_eq!(queries.dim(), d, "query dimensionality mismatch");
        assert_eq!(out.len(), m * nq, "output length mismatch");
        let mut q_base = 0usize;
        while q_base < nq {
            let q_end = (q_base + PROJECT_QUERY_BLOCK).min(nq);
            for t in 0..m {
                let row = &matrix[t * d..(t + 1) * d];
                let off = offsets[t];
                for qi in q_base..q_end {
                    out[qi * m + t] = self.dot(row, queries.get(qi)) + off;
                }
            }
            q_base = q_end;
        }
    }
}

/// Queries per block of the batched projection (sized so a block of
/// query rows stays L1-resident while the matrix streams through once).
pub const PROJECT_QUERY_BLOCK: usize = 8;

/// Hint the CPU to pull `slice[i]`'s cache line toward L1 (out-of-bounds
/// indices are ignored; a no-op on architectures without a stable
/// prefetch intrinsic). The counting loop issues this a few entries
/// ahead of its random-access counter updates so the line arrives
/// before the increment needs it, and a store that hands out many short
/// slices asks for the head of each before the first is consumed.
/// Purely a performance hint — prefetch cannot fault and has no
/// architectural effect.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    if let Some(word) = slice.get(i) {
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "sse")]
            #[inline]
            fn hint(p: *const i8) {
                // PREFETCHT0 is a hint with no architectural effect; it
                // cannot fault on any address, and inside this
                // `target_feature(sse)` context the intrinsic call is
                // safe.
                core::arch::x86_64::_mm_prefetch(p, core::arch::x86_64::_MM_HINT_T0);
            }
            // SAFETY: SSE is part of the x86-64 baseline.
            unsafe { hint(word as *const T as *const i8) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = word;
        }
    }
}

static GLOBAL: OnceLock<KernelDispatch> = OnceLock::new();

/// The kernel [`dispatch`] falls back to: scalar under
/// `CC_FORCE_SCALAR=1`, otherwise the best detected ISA.
pub fn default_kernel() -> Kernel {
    if std::env::var("CC_FORCE_SCALAR").map(|v| v == "1").unwrap_or(false) {
        Kernel::Scalar
    } else {
        Kernel::detect()
    }
}

/// The process-wide kernel dispatch, chosen once at first use (from
/// [`init`] if a binary pinned a kernel, else [`default_kernel`]).
pub fn dispatch() -> &'static KernelDispatch {
    GLOBAL.get_or_init(|| {
        KernelDispatch::new(default_kernel()).expect("default kernel is always available")
    })
}

/// Pin the process-wide kernel explicitly (the `--kernel` flag). Must
/// run before anything hashes or verifies; errors when the kernel is
/// unavailable on this machine or a different kernel was already
/// selected.
pub fn init(kernel: Kernel) -> Result<&'static KernelDispatch, String> {
    let d = KernelDispatch::new(kernel)?;
    let got = GLOBAL.get_or_init(|| d);
    if got.kernel() != kernel {
        return Err(format!(
            "kernel already selected as '{}'; cannot re-select '{}'",
            got.kernel().name(),
            kernel.name()
        ));
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(d: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        // Deterministic pseudo-random data without a rand dependency.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let a = (0..d).map(|_| next()).collect();
        let b = (0..d).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn kernels_every_available_distance_matches_scalar_bitwise() {
        for kernel in Kernel::all_available() {
            let kd = KernelDispatch::new(kernel).unwrap();
            for d in [1usize, 7, 8, 9, 63, 64, 65, 128, 200, 511] {
                let (a, b) = vecs(d, 0x9E37 + d as u64);
                let exact = cc_vector::dist::euclidean_sq(&a, &b);
                assert_eq!(kd.euclidean_sq(&a, &b).to_bits(), exact.to_bits(), "{kernel} d={d}");
                let v = kd.euclidean_sq_bounded(&a, &b, f64::INFINITY).unwrap();
                assert_eq!(v.to_bits(), exact.to_bits(), "{kernel} bounded d={d}");
                // Same abandon decision as the scalar oracle at a mid
                // bound.
                let mid = exact * 0.5;
                let scalar = cc_vector::dist::euclidean_sq_bounded(&a, &b, mid);
                assert_eq!(
                    kd.euclidean_sq_bounded(&a, &b, mid).map(f64::to_bits),
                    scalar.map(f64::to_bits),
                    "{kernel} abandon d={d}"
                );
            }
        }
    }

    #[test]
    fn kernels_every_available_projection_matches_scalar_bitwise() {
        for kernel in Kernel::all_available() {
            let kd = KernelDispatch::new(kernel).unwrap();
            for d in [1usize, 4, 7, 8, 9, 16, 127, 128, 129, 512] {
                let (a, q) = vecs(d, 0x51D7 + d as u64);
                let exact = scalar::dot(&a, &q);
                assert_eq!(kd.dot(&a, &q).to_bits(), exact.to_bits(), "{kernel} d={d}");
            }
        }
    }

    #[test]
    fn kernels_batched_projection_matches_single_bitwise() {
        use cc_vector::gen::{generate, Distribution};
        let d = 24;
        let m = 9;
        let queries = generate(
            Distribution::GaussianMixture { clusters: 3, spread: 0.1, scale: 2.0 },
            21,
            d,
            5,
        );
        let (matrix, _) = vecs(m * d, 77);
        let offsets: Vec<f64> = (0..m).map(|t| t as f64 * 0.37).collect();
        for kernel in Kernel::all_available() {
            let kd = KernelDispatch::new(kernel).unwrap();
            let mut batched = vec![0.0f64; m * queries.len()];
            kd.project_batch(&matrix, d, &queries, &offsets, &mut batched);
            let mut single = vec![0.0f64; m];
            for qi in 0..queries.len() {
                kd.project_family(&matrix, d, queries.get(qi), &offsets, &mut single);
                for t in 0..m {
                    assert_eq!(
                        batched[qi * m + t].to_bits(),
                        single[t].to_bits(),
                        "{kernel} q={qi} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_detection_and_parsing() {
        assert!(Kernel::Scalar.available());
        assert!(Kernel::detect().available());
        assert!(Kernel::all_available().contains(&Kernel::Scalar));
        assert_eq!(Kernel::parse("auto").unwrap(), None);
        assert_eq!(Kernel::parse("scalar").unwrap(), Some(Kernel::Scalar));
        assert_eq!(Kernel::parse("avx2").unwrap(), Some(Kernel::Avx2));
        assert!(Kernel::parse("avx512").is_err());
        assert_eq!(Kernel::Neon.name(), "neon");
    }

    #[test]
    fn kernels_dispatch_is_available_and_stable() {
        let a = dispatch();
        let b = dispatch();
        assert_eq!(a.kernel(), b.kernel());
        assert!(a.kernel().available());
        assert_eq!(a.bound_check_dims(), cc_vector::dist::BOUND_CHECK_DIMS);
    }

    #[test]
    fn kernels_unavailable_kernel_rejected() {
        // At most one of these is available on any single architecture.
        let impossible = if cfg!(target_arch = "x86_64") { Kernel::Neon } else { Kernel::Avx2 };
        assert!(KernelDispatch::new(impossible).is_err());
    }
}
