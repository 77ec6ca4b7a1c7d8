//! The shortest decimal that reads back as a given `f64`: Ryū (Ulf Adams,
//! PLDI 2018), the digits `core::fmt` prints for `{}` without its cost.
//!
//! [`shortest`] returns the fewest significant digits whose decimal lies
//! in the double's rounding interval — its endpoints included when the
//! mantissa is even, as round-half-to-even reads them back — and of those
//! the one nearest the double. One place differs from the published
//! algorithm, to print what `Display` prints: an exact tie between the
//! two nearest candidates rounds up, as `core`'s Dragon4 fallback does,
//! not to even, so `20300130436805.0625` prints as `20300130436805.063`.
//! (`core` also halves the lower half-gap of the smallest normal, where
//! Ryū keeps it whole; both intervals give that one double the same
//! digits.)
//!
//! The two power-of-five tables are computed at compile time from exact
//! integers: [`POW5`] holds `5^i` cut to its top 125 bits, [`POW5_INV`]
//! holds `⌊2^(b−1+125) / 5^i⌋ + 1` with `b` the bit length of `5^i`, the
//! quotient read off `⌊2^896 / 5^i⌋`, one short division by 5 per row.

/// Mantissa bits of an `f64` past the implicit one.
const MANTISSA_BITS: u32 = 52;
/// `e2` of a double is its unbiased exponent less the mantissa's bits and
/// the two the interval arithmetic works in.
const EXPONENT_OFFSET: i32 = 1023 + MANTISSA_BITS as i32 + 2;
/// Bits kept of each power of five, and of each reciprocal.
const POW5_BITS: u32 = 125;
/// Rows: `q` reaches `⌊log10 2^969⌋ − 1 = 290` for positive `e2`, and
/// `−e2 − q` reaches 325 for negative ones (the smallest subnormal).
const POW5_INV_LEN: usize = 291;
const POW5_LEN: usize = 326;

/// `5^i >> (bits(5^i) − 125)` (or `<<` while `5^i` is shorter).
static POW5: [u128; POW5_LEN] = pow5_table();
/// `⌊2^(bits(5^i) − 1 + 125) / 5^i⌋ + 1`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// `5^325 < 2^755`: twelve limbs, least significant first.
const POW_LIMBS: usize = 12;
/// `2^896` and its quotients by `5^i`: fifteen limbs.
const INV_LIMBS: usize = 15;
/// The dividend's exponent; at least the largest `bits(5^i) − 1 + 125`
/// the reciprocal table needs (801).
const INV_SHIFT: u32 = 896;

const fn bit_len(big: &[u64]) -> u32 {
    let mut limb = big.len();
    while limb > 0 {
        limb -= 1;
        if big[limb] != 0 {
            return limb as u32 * 64 + 64 - big[limb].leading_zeros();
        }
    }
    0
}

/// The 128 bits of `big` from bit `shift` up.
const fn bits_from(big: &[u64], shift: u32) -> u128 {
    let mut value = 0u128;
    let mut bit = 0;
    while bit < 128 {
        let at = (shift + bit) as usize;
        if at / 64 < big.len() && big[at / 64] >> (at % 64) & 1 == 1 {
            value |= 1 << bit;
        }
        bit += 1;
    }
    value
}

const fn times5(big: &mut [u64]) {
    let mut carry = 0u128;
    let mut limb = 0;
    while limb < big.len() {
        let wide = big[limb] as u128 * 5 + carry;
        big[limb] = wide as u64;
        carry = wide >> 64;
        limb += 1;
    }
    assert!(carry == 0, "power of five overflows its limbs");
}

const fn over5(big: &mut [u64]) {
    let mut rem = 0u128;
    let mut limb = big.len();
    while limb > 0 {
        limb -= 1;
        let wide = rem << 64 | big[limb] as u128;
        big[limb] = (wide / 5) as u64;
        rem = wide % 5;
    }
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0; POW5_LEN];
    let mut pow = [0u64; POW_LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let bits = bit_len(&pow);
        table[i] = if bits < POW5_BITS {
            bits_from(&pow, 0) << (POW5_BITS - bits)
        } else {
            bits_from(&pow, bits - POW5_BITS)
        };
        times5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0; POW5_INV_LEN];
    let mut pow = [0u64; POW_LIMBS];
    pow[0] = 1;
    // ⌊2^896 / 5^i⌋: ⌊⌊a / b⌋ / c⌋ = ⌊a / bc⌋, so one division by 5 a row,
    // and the quotient by 2^(896 − j) is a shift.
    let mut quotient = [0u64; INV_LIMBS];
    quotient[INV_LIMBS - 1] = 1 << (INV_SHIFT % 64);
    let mut i = 0;
    while i < POW5_INV_LEN {
        let j = bit_len(&pow) - 1 + POW5_BITS;
        assert!(j <= INV_SHIFT, "reciprocal needs a larger dividend");
        table[i] = bits_from(&quotient, INV_SHIFT - j) + 1;
        times5(&mut pow);
        over5(&mut quotient);
        i += 1;
    }
    table
}

/// `⌈log2 5^e⌉` (1 at `e = 0`): the bit length of `5^e`, for `e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

/// `⌊m · mul / 2^j⌋`, for `m < 2^55`, a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest round-trip decimal of a positive finite double, given its
/// bits: `(digits, e10)` with `v` read back from `digits · 10^e10`.
/// Being shortest, `digits` has no trailing zero.
pub(super) fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_OFFSET, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_OFFSET,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    debug_assert!(m2 != 0 && ieee_exponent < 0x7ff, "zero or non-finite");
    let accept_bounds = m2 % 2 == 0;

    // The interval is [4·m2 − 1 − mm_shift, 4·m2 + 2] in units of 2^e2:
    // half a gap each side, the lower one halved at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mut vr, mut vp, mut vm, e10);
    // Whether `vm` is exact: an included lower bound that ends in zeros
    // can be shortened past where `vp` and `vm` first agree. Nothing
    // tracks whether `vr` is exact: a dropped 5 rounds up either way.
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let mul = POW5_INV[q as usize];
        let j = -e2 + q as i32 + POW5_BITS as i32 + pow5_bits(q as i32) - 1;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let mul = POW5[i as usize];
        let j = q as i32 - (pow5_bits(i) - POW5_BITS as i32);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm has one trailing zero bit exactly when mm_shift is 1;
            // mp = mv + 2 has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case: the lower bound is exact and included.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let below = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        vr + u64::from(below || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}
