//! CRC32 (IEEE 802.3, reflected) — the one checksum kernel behind every
//! checked byte in the stack: persist sections and footer, cold-tier section
//! verification on every block-cache miss, WAL records, replication seals.
//!
//! The polynomial is IEEE rather than CRC32C (which has a dedicated `crc32`
//! instruction) because the values are already on disk: the snapshot format and the WAL
//! pin them, so a faster checksum has to be a faster way to compute the *same*
//! function. Two implementations, chosen once per process:
//!
//! * **`pclmulqdq`** — on `x86_64` with `pclmulqdq` + `sse4.1`: the
//!   carry-less-multiply fold of Intel's "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction" (bit-reflected variant). Four
//!   128-bit lanes fold 64 bytes per iteration, one lane folds the remaining
//!   16-byte blocks, the 128-bit remainder is reduced to 32 bits by Barrett
//!   reduction, and the table loop finishes the last `len % 16` bytes.
//! * **`portable`** — everywhere else, and under `MBI_FORCE_SCALAR=1` (the
//!   same override as [`crate::simd`]): a slice-by-16 table loop.
//!
//! Both compute the same function of the bytes, so — unlike a distance
//! kernel's rounding — there is nothing for the dispatch to perturb; the tests
//! below pin them to each other and to a bit-at-a-time reference anyway.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// The IEEE polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 tables, built at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so 16 input bytes become 16 independent
/// lookups XORed together.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advances the raw CRC register (no init/final inversion) over `data`.
fn portable_update(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("8 of 16 bytes")) ^ c as u64;
        let hi = u64::from_le_bytes(b[8..].try_into().expect("8 of 16 bytes"));
        c = 0;
        for k in 0..8 {
            c ^= TABLES[15 - k][(lo >> (8 * k)) as usize & 0xFF]
                ^ TABLES[7 - k][(hi >> (8 * k)) as usize & 0xFF];
        }
    }
    for &byte in blocks.remainder() {
        c = TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::*;

    // Fold constants of the Intel paper for the reflected IEEE polynomial:
    // `x^n mod P`, bit-reflected and shifted left by one (the reflected
    // 64×64 carry-less product is 127 bits wide). `tests::fold_constants`
    // re-derives every one of them from `POLY`.
    /// `x^(4·128+32) mod P` — low half of a lane, folded 512 bits ahead.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `x^(4·128−32) mod P` — high half of a lane, folded 512 bits ahead.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P` — low half, folded 128 bits ahead.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `x^(128−32) mod P` — high half, folded 128 bits ahead.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P` — 96 → 64 bit reduction.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// The polynomial itself, 33 bits, reflected.
    pub(super) const P: i64 = 0x1_DB71_0641;
    /// Barrett constant `⌊x^64 / P⌋`, 33 bits, reflected.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Whether this kernel can run on the current CPU.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Splits the next 16 bytes off `rest` and loads them.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn take(rest: &mut &[u8]) -> __m128i {
        let (block, tail) = rest.split_at(16);
        *rest = tail;
        // SAFETY: `split_at` just proved `block` is 16 readable bytes, and
        // `loadu` has no alignment requirement.
        _mm_loadu_si128(block.as_ptr().cast())
    }

    /// Multiplies `acc` forward by the distance `keys` encodes and adds the
    /// block that sits there.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC register over `data`; same contract as
    /// [`super::portable_update`].
    ///
    /// # Safety
    ///
    /// Requires `pclmulqdq` and `sse4.1` (see [`available`]).
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn update(state: u32, data: &[u8]) -> u32 {
        if data.len() < 16 {
            return super::portable_update(state, data);
        }
        let mut rest = data;
        let k3k4 = _mm_set_epi64x(K4, K3);
        // XORing the register into the first four message bytes is how a CRC
        // is seeded / continued.
        let mut x = _mm_xor_si128(take(&mut rest), _mm_cvtsi32_si128(state as i32));
        if rest.len() >= 48 {
            let k1k2 = _mm_set_epi64x(K2, K1);
            let (mut x1, mut x2, mut x3) = (take(&mut rest), take(&mut rest), take(&mut rest));
            while rest.len() >= 64 {
                x = fold(x, take(&mut rest), k1k2);
                x1 = fold(x1, take(&mut rest), k1k2);
                x2 = fold(x2, take(&mut rest), k1k2);
                x3 = fold(x3, take(&mut rest), k1k2);
            }
            x = fold(x, x1, k3k4);
            x = fold(x, x2, k3k4);
            x = fold(x, x3, k3k4);
        }
        while rest.len() >= 16 {
            x = fold(x, take(&mut rest), k3k4);
        }

        // 128 → 96 → 64 bits: fold the low qword over the high one, then the
        // low dword over what is left.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits: T1 = ⌊R mod x^32⌋·μ,
        // T2 = ⌊T1 mod x^32⌋·P, and the register is the high dword of R ⊕ T2.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::portable_update(c, rest)
    }
}

/// Decided once per process, like [`crate::simd::active_backend`].
fn use_pclmul() -> bool {
    static USE: OnceLock<bool> = OnceLock::new();
    *USE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            !crate::simd::scalar_forced() && pclmul::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Name of the checksum implementation [`crc32`] dispatches to:
/// `"pclmulqdq"` or `"portable"`.
pub fn crc32_backend() -> &'static str {
    if use_pclmul() {
        "pclmulqdq"
    } else {
        "portable"
    }
}

/// CRC32 (IEEE) of `data` — the checksum of WAL records, replication seals,
/// and every persisted section, directory and footer.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if use_pclmul() {
        // SAFETY: `use_pclmul` is only true after `pclmul::available`
        // confirmed `pclmulqdq` and `sse4.1` on this CPU.
        return !unsafe { pclmul::update(!0, data) };
    }
    !portable_update(!0, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Bit-at-a-time reference: the definition, nothing shared with the
    /// kernels but `POLY`.
    fn reference(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &byte in data {
            c ^= byte as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    fn portable(data: &[u8]) -> u32 {
        !portable_update(!0, data)
    }

    /// Dispatched ≡ portable ≡ reference on one buffer; both kernels run in
    /// this process whatever the dispatch picked.
    fn assert_all_agree(data: &[u8]) {
        let want = reference(data);
        assert_eq!(portable(data), want, "portable, len {}", data.len());
        assert_eq!(crc32(data), want, "{}, len {}", crc32_backend(), data.len());
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE check values.
        for (input, want) in [
            (&b""[..], 0),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(input), want);
            assert_eq!(portable(input), want);
            assert_eq!(reference(input), want);
        }
    }

    #[test]
    fn backend_follows_the_force_scalar_override() {
        let forced = crate::simd::scalar_forced();
        if forced {
            assert_eq!(crc32_backend(), "portable");
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(crc32_backend() == "pclmulqdq", !forced && pclmul::available());
    }

    #[test]
    fn every_short_length_agrees() {
        let buf = random_bytes(320, 1);
        for len in 0..=buf.len() {
            assert_all_agree(&buf[..len]);
        }
    }

    #[test]
    fn fold_boundaries_agree_at_every_alignment() {
        let lens = [15, 16, 17, 63, 64, 65, 127, 128, 129, 191, 192, 193, 4095, 4096, 4097];
        let buf = random_bytes(4097 + 16, 2);
        for len in lens {
            for start in 0..=16 {
                assert_all_agree(&buf[start..start + len]);
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // One flipped bit anywhere — in a folded lane, the 16-byte remainder
        // loop or the table tail — must change a CRC.
        let mut buf = random_bytes(64 * 3 + 16 + 7, 3);
        let clean = crc32(&buf);
        for i in 0..buf.len() {
            buf[i] ^= 1 << (i % 8);
            assert_ne!(crc32(&buf), clean, "flip at byte {i}");
            assert_all_agree(&buf);
            buf[i] ^= 1 << (i % 8);
        }
    }

    /// The Intel constants are `x^n mod P` reflected and shifted left once;
    /// derive each from `POLY` so a typo cannot hide behind a passing
    /// length sweep.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants() {
        fn x_pow_mod_p(n: u32) -> i64 {
            // Unreflected register: bit i is the coefficient of x^i.
            let mut r = 1u32;
            for _ in 0..n {
                r = (r << 1) ^ if r & 0x8000_0000 != 0 { POLY.reverse_bits() } else { 0 };
            }
            (r.reverse_bits() as i64) << 1
        }
        assert_eq!(x_pow_mod_p(4 * 128 + 32), pclmul::K1);
        assert_eq!(x_pow_mod_p(4 * 128 - 32), pclmul::K2);
        assert_eq!(x_pow_mod_p(128 + 32), pclmul::K3);
        assert_eq!(x_pow_mod_p(128 - 32), pclmul::K4);
        assert_eq!(x_pow_mod_p(64), pclmul::K5);
        assert_eq!(x_pow_mod_p(32) | 1, pclmul::P);
        // μ = ⌊x^64 / P⌋ by long division, then reflected over 33 bits.
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let (mut rem, mut q) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if rem >> (bit + 32) & 1 == 1 {
                q |= 1 << bit;
                rem ^= p << bit;
            }
        }
        assert_eq!((q.reverse_bits() >> 31) as i64, pclmul::MU);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_lengths_up_to_a_mebibyte_agree(len in 0usize..=(1 << 20), seed in any::<u64>(), start in 0usize..16) {
            let buf = random_bytes(len + start, seed);
            // The bit-at-a-time reference is ~1 000× slower than the kernels;
            // it backs the portable kernel up to 64 KiB, and the portable
            // kernel backs the dispatched one at every size.
            let data = &buf[start..];
            prop_assert_eq!(crc32(data), portable(data));
            let head = &data[..data.len().min(1 << 16)];
            prop_assert_eq!(portable(head), reference(head));
        }
    }
}
