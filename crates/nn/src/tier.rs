//! The SIMD tier this binary was compiled for, and the one its CPU offers.
//!
//! The workspace has one x86-64 build: `.cargo/config.toml` at the
//! repository root compiles every crate for `x86-64-v3` (AVX2, and FMA,
//! BMI1/2, F16C, LZCNT, MOVBE). There is no second artifact and no
//! runtime dispatch — the kernels are plain loops the autovectorizer
//! packs into whatever registers the build allows, and because rustc
//! never contracts a multiply and an add into one rounding, the tier
//! changes how many *independent* accumulators an instruction advances
//! and never a bit of the result (`tests/integration_tier.rs` pins that
//! against a baseline-tier capture). Why one tier, and why this one, is
//! ARCHITECTURE's *SIMD tier* record.
//!
//! What is left for run time is to say so: [`compiled`] is what the
//! build enabled, [`cpu`] is what the processor reports, and [`check`]
//! is the start-up guard that turns an illegal-instruction fault on an
//! older CPU into a sentence. The guard is best effort — code that runs
//! before it may already use a VEX-encoded move — so the hardware
//! requirement in the README is the contract.
//!
//! [`cpu`] reads CPUID directly. The standard library's run-time
//! feature-detection macro cannot be used here: in a build that enables
//! a feature it folds to `true` at compile time, which is exactly the
//! case the guard exists for.

use std::fmt;

/// An x86-64 micro-architecture level (the psABI's), or `Portable` on
/// every other architecture. Ordered: a binary compiled for tier `t`
/// runs on a CPU that offers `t` or more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Not x86-64: nothing to check, always accepted.
    Portable,
    /// The x86-64 baseline (SSE2).
    V1,
    /// `x86-64-v2`: SSE3 to SSE4.2, POPCNT, CMPXCHG16B.
    V2,
    /// `x86-64-v3`: AVX, AVX2, FMA, BMI1/2, F16C, LZCNT, MOVBE.
    V3,
    /// `x86-64-v4`: AVX-512 F/BW/CD/DQ/VL.
    V4,
}

impl Tier {
    /// The value of the `nn_simd_tier` gauges: 1 to 4, 0 for `Portable`.
    pub fn level(self) -> i64 {
        self as i64
    }

    /// The tier a gauge value names.
    pub fn from_level(level: i64) -> Option<Tier> {
        [Tier::Portable, Tier::V1, Tier::V2, Tier::V3, Tier::V4]
            .into_iter()
            .find(|t| t.level() == level)
    }

    /// The instruction sets that set the tier apart from the one below,
    /// for messages.
    fn features(self) -> &'static str {
        match self {
            Tier::Portable => "no x86 extensions",
            Tier::V1 => "SSE2",
            Tier::V2 => "SSE4.2, POPCNT",
            Tier::V3 => "AVX2, FMA, BMI2",
            Tier::V4 => "AVX-512",
        }
    }
}

/// The name `-C target-cpu=` takes for the tier.
impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Portable => "portable",
            Tier::V1 => "x86-64",
            Tier::V2 => "x86-64-v2",
            Tier::V3 => "x86-64-v3",
            Tier::V4 => "x86-64-v4",
        })
    }
}

/// The tier the build enabled (`-C target-cpu`, from the repository's
/// `.cargo/config.toml` unless `RUSTFLAGS` replaced it).
pub fn compiled() -> Tier {
    if !cfg!(target_arch = "x86_64") {
        return Tier::Portable;
    }
    let v2 = cfg!(all(
        target_feature = "cmpxchg16b",
        target_feature = "popcnt",
        target_feature = "sse3",
        target_feature = "ssse3",
        target_feature = "sse4.1",
        target_feature = "sse4.2",
    ));
    let v3 = cfg!(all(
        target_feature = "avx",
        target_feature = "avx2",
        target_feature = "bmi1",
        target_feature = "bmi2",
        target_feature = "f16c",
        target_feature = "fma",
        target_feature = "lzcnt",
        target_feature = "movbe",
    ));
    let v4 = cfg!(all(
        target_feature = "avx512f",
        target_feature = "avx512bw",
        target_feature = "avx512cd",
        target_feature = "avx512dq",
        target_feature = "avx512vl",
    ));
    ladder(v2, v3, v4)
}

/// The highest level whose lower levels all hold too.
fn ladder(v2: bool, v3: bool, v4: bool) -> Tier {
    match (v2, v3, v4) {
        (true, true, true) => Tier::V4,
        (true, true, false) => Tier::V3,
        (true, false, _) => Tier::V2,
        (false, ..) => Tier::V1,
    }
}

/// The CPUID register words the levels are decoded from. A leaf the
/// processor does not implement reads as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuidWords {
    /// Leaf 1, ECX: SSE3 … SSE4.2, POPCNT, CMPXCHG16B, FMA, MOVBE,
    /// OSXSAVE, AVX, F16C.
    pub leaf1_ecx: u32,
    /// Leaf 7 sub-leaf 0, EBX: BMI1, AVX2, BMI2, AVX-512 F/DQ/CD/BW/VL.
    pub leaf7_ebx: u32,
    /// Leaf `0x8000_0001`, ECX: LAHF/SAHF in long mode, LZCNT.
    pub ext1_ecx: u32,
}

/// The tier a set of CPUID words describes (public so that it is
/// compiled, and testable, on every architecture). OSXSAVE stands in for "the
/// operating system saves the wide registers": without it no AVX level
/// is offered whatever the feature bits say. (Which register files XCR0
/// enables needs `xgetbv`, which has no safe form; a kernel that sets
/// OSXSAVE and then withholds the YMM state is not one this runs on.)
pub fn decode(words: CpuidWords) -> Tier {
    let bits = |word: u32, bits: &[u32]| bits.iter().all(|&b| (word >> b) & 1 == 1);
    let CpuidWords { leaf1_ecx, leaf7_ebx, ext1_ecx } = words;
    // SSE3, SSSE3, CMPXCHG16B, SSE4.1, SSE4.2, POPCNT; LAHF/SAHF.
    let v2 = bits(leaf1_ecx, &[0, 9, 13, 19, 20, 23]) && bits(ext1_ecx, &[0]);
    // FMA, MOVBE, OSXSAVE, AVX, F16C; BMI1, AVX2, BMI2; LZCNT.
    let v3 = bits(leaf1_ecx, &[12, 22, 27, 28, 29])
        && bits(leaf7_ebx, &[3, 5, 8])
        && bits(ext1_ecx, &[5]);
    // AVX-512 F, DQ, CD, BW, VL.
    let v4 = bits(leaf7_ebx, &[16, 17, 28, 30, 31]);
    ladder(v2, v3, v4)
}

/// The tier this process's CPU offers.
#[cfg(target_arch = "x86_64")]
pub fn cpu() -> Tier {
    use std::arch::x86_64::__cpuid_count;
    let leaf = |leaf: u32, max: u32| {
        // An unimplemented basic leaf answers with the highest one's
        // data, so the range is checked, not assumed.
        (leaf <= max).then(|| __cpuid_count(leaf, 0))
    };
    let max = __cpuid_count(0, 0).eax;
    let ext_max = __cpuid_count(0x8000_0000, 0).eax;
    decode(CpuidWords {
        leaf1_ecx: leaf(1, max).map_or(0, |r| r.ecx),
        leaf7_ebx: leaf(7, max).map_or(0, |r| r.ebx),
        ext1_ecx: leaf(0x8000_0001, ext_max).map_or(0, |r| r.ecx),
    })
}

/// The tier this process's CPU offers: off x86-64 there are no levels.
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu() -> Tier {
    Tier::Portable
}

/// A binary compiled for a tier its CPU does not offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierError {
    /// What the build enabled.
    pub compiled: Tier,
    /// What the processor reports.
    pub cpu: Tier,
}

impl fmt::Display for TierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "this binary needs {} ({}); this CPU offers {}; rebuild with \
             RUSTFLAGS=\"-C target-cpu=x86-64\"",
            self.compiled,
            self.compiled.features(),
            self.cpu
        )
    }
}

impl std::error::Error for TierError {}

/// Whether a binary compiled for `compiled` may run on a CPU offering
/// `cpu`.
fn accepts(compiled: Tier, cpu: Tier) -> Result<(), TierError> {
    if compiled <= cpu {
        Ok(())
    } else {
        Err(TierError { compiled, cpu })
    }
}

/// The start-up guard: refuses a CPU below the compiled tier.
pub fn check() -> Result<(), TierError> {
    accepts(compiled(), cpu())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(bits: &[u32]) -> u32 {
        bits.iter().fold(0, |w, &b| w | 1 << b)
    }

    /// Nehalem-like: everything v2 asks for, nothing wider.
    fn v2_words() -> CpuidWords {
        CpuidWords { leaf1_ecx: word(&[0, 9, 13, 19, 20, 23]), leaf7_ebx: 0, ext1_ecx: word(&[0]) }
    }

    /// Haswell-like.
    fn v3_words() -> CpuidWords {
        CpuidWords {
            leaf1_ecx: v2_words().leaf1_ecx | word(&[12, 22, 26, 27, 28, 29]),
            leaf7_ebx: word(&[3, 5, 8]),
            ext1_ecx: word(&[0, 5]),
        }
    }

    #[test]
    fn decode_reads_the_levels_off_hand_built_words() {
        assert_eq!(decode(CpuidWords::default()), Tier::V1);
        assert_eq!(decode(v2_words()), Tier::V2);
        assert_eq!(decode(v3_words()), Tier::V3);
        let mut v4 = v3_words();
        v4.leaf7_ebx |= word(&[16, 17, 28, 30, 31]);
        assert_eq!(decode(v4), Tier::V4);
    }

    #[test]
    fn decode_refuses_a_level_with_a_piece_missing() {
        // Sandy Bridge: AVX (and its OS support) without AVX2.
        let mut avx_only = v2_words();
        avx_only.leaf1_ecx |= word(&[26, 27, 28]);
        assert_eq!(decode(avx_only), Tier::V2);
        // The OS does not save the wide registers.
        let mut no_osxsave = v3_words();
        no_osxsave.leaf1_ecx &= !word(&[27]);
        assert_eq!(decode(no_osxsave), Tier::V2);
        // AVX2 without LZCNT, and without BMI2.
        let mut no_lzcnt = v3_words();
        no_lzcnt.ext1_ecx &= !word(&[5]);
        assert_eq!(decode(no_lzcnt), Tier::V2);
        let mut no_bmi2 = v3_words();
        no_bmi2.leaf7_ebx &= !word(&[8]);
        assert_eq!(decode(no_bmi2), Tier::V2);
        // AVX-512 bits on a part that is not even v3 do not lift it.
        let mut stray = v2_words();
        stray.leaf7_ebx = word(&[16, 17, 28, 30, 31]);
        assert_eq!(decode(stray), Tier::V2);
    }

    #[test]
    fn guard_accepts_equal_or_wider_cpus_and_names_both_sides() {
        assert!(accepts(Tier::V3, Tier::V3).is_ok());
        assert!(accepts(Tier::V3, Tier::V4).is_ok());
        assert!(accepts(Tier::V1, Tier::V2).is_ok());
        assert!(accepts(Tier::Portable, Tier::Portable).is_ok());
        let err = accepts(Tier::V3, Tier::V2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "this binary needs x86-64-v3 (AVX2, FMA, BMI2); this CPU offers x86-64-v2; rebuild \
             with RUSTFLAGS=\"-C target-cpu=x86-64\""
        );
    }

    #[test]
    fn this_process_passes_its_own_guard() {
        // The test binary is running, so its CPU offers what it was
        // compiled for; and off x86-64 both sides read `Portable`.
        assert_eq!(check(), Ok(()));
        assert_eq!(compiled() == Tier::Portable, cpu() == Tier::Portable);
        // The ladder against the one feature that names this repo's tier.
        assert_eq!(compiled() >= Tier::V3, cfg!(target_feature = "avx2"));
    }

    #[test]
    fn gauge_levels_round_trip() {
        for tier in [Tier::Portable, Tier::V1, Tier::V2, Tier::V3, Tier::V4] {
            assert_eq!(Tier::from_level(tier.level()), Some(tier));
        }
        assert_eq!(Tier::from_level(5), None);
        assert_eq!(Tier::V3.level(), 3);
    }
}
