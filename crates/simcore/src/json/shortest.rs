//! Shortest round-trip decimal digits of an `f64`, picked as std's `{}`
//! picks them.
//!
//! This is Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI
//! 2018). For a positive finite `x`, [`shortest`] returns the fewest
//! decimal digits `d` and an exponent `e` such that `d × 10^e` reads
//! back as `x`; of the shortest candidates it takes the one nearest
//! `x`. Two rules differ from the reference Ryū, so that the digits are
//! std's (Grisu with a Dragon4 fallback) on every input:
//!
//! * an exact midpoint between two candidates rounds up, where the
//!   reference rounds half to even: `2^50 + 0.25` is
//!   `1125899906842624.3`, not `…624.2`;
//! * the lower neighbour is taken to be half as far away as the upper
//!   one exactly when the mantissa field is zero, which is std's rule;
//!   the reference exempts `f64::MIN_POSITIVE`.
//!
//! The two power-of-five tables are evaluated at compile time with a
//! small fixed-width bignum, so they are static data: nothing is built
//! at run time.

/// Bits to which both tables scale their powers of five.
const POW5_BITS: i32 = 125;

/// Entries of [`POW5`]: `-e2 - q` reaches 325 at the smallest
/// subnormal exponent.
const POW5_LEN: usize = 326;

/// Entries of [`POW5_INV`]: `q` reaches 290 at the largest finite
/// exponent.
const POW5_INV_LEN: usize = 291;

/// `POW5[i]` is 5^i scaled to exactly 125 bits: its top 125 bits, or
/// 5^i shifted left while it is shorter.
static POW5: [u128; POW5_LEN] = pow5_table();

/// `POW5_INV[q]` is ⌊2^(b + 124) / 5^q⌋ + 1, where b is the bit length
/// of 5^q: a 125- or 126-bit reciprocal of 5^q, rounded up.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// The shortest digits of the positive finite double with bit pattern
/// `bits`, as `(digits, exponent)`: the value reads back from
/// `digits × 10^exponent`, and `digits` has no trailing zero.
pub(super) fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as i32;
    debug_assert!(bits != 0 && ieee_exponent != 0x7ff, "positive finite");
    // The value is `mv × 2^e2`; `mp` and `mm` are the midpoints to the
    // neighbouring doubles, on the same scale. The two extra bits of
    // `mv` make room for them.
    let m2 = if ieee_exponent == 0 {
        ieee_mantissa
    } else {
        ieee_mantissa | (1 << 52)
    };
    let e2 = ieee_exponent.max(1) - 1077;
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0);
    // Round-half-even parsing reads the midpoints back as this value
    // when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;

    // Scale the three to decimal: `v* ≈ m* × 2^e2 / 10^e10`, truncated,
    // with enough digits left to decide the shortest form.
    let (e10, mut vr, mut vp, mut vm, vm_exact, vp_exact);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let mul = POW5_INV[q as usize];
        let shift = (q as i32 - e2 + POW5_BITS + pow5_bits(q as i32) - 1) as u32;
        e10 = q as i32;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // Exact when 10^q divides m × 2^e2; `e2 >= q` supplies the twos.
        vm_exact = multiple_of_power_of_5(mm, q);
        vp_exact = multiple_of_power_of_5(mp, q);
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let mul = POW5[i as usize];
        let shift = (q as i32 - pow5_bits(i) + POW5_BITS) as u32;
        e10 = q as i32 + e2;
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // Exact when 2^q divides m: the product is `m × 5^i / 2^q`.
        vm_exact = mm.trailing_zeros() >= q;
        vp_exact = mp.trailing_zeros() >= q;
    }
    // An exact midpoint is a candidate only if it reads back as this
    // value; `vm_trailing_zeros` then tracks whether the digits removed
    // from `vm` so far were all zero, so `vm` is still exact.
    let mut vm_trailing_zeros = accept_bounds && vm_exact;
    if !accept_bounds && vp_exact {
        vp -= 1;
    }

    // Drop digits while the interval still holds a number with one
    // digit fewer.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    // An exact lower bound may shed its own trailing zeros too.
    if vm_trailing_zeros {
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Take the upper candidate when the lower one is outside the
    // interval, or when the removed digits are half a unit or more:
    // std rounds an exact midpoint up.
    let round_up = (vr == vm && !vm_trailing_zeros) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// `⌊m × mul / 2^shift⌋` for a 55-bit `m`, a 126-bit `mul` and
/// `shift >= 64`.
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The bit length of 5^e, `⌈log2 5^e⌉` for `e >= 1`; exact for `e` in
/// `0..=3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, exact for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, exact for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// Limbs of the table bignum, least significant first: room for
/// 2^832, the inverse table's dividend.
const LIMBS: usize = 14;

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0; POW5_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = bit_length(&pow);
        table[i] = if len > POW5_BITS as u32 {
            bits_at(&pow, len - POW5_BITS as u32)
        } else {
            bits_at(&pow, 0) << (POW5_BITS as u32 - len)
        };
        mul5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    // `quot` is ⌊2^TOP / 5^q⌋, so its bits from `TOP - s` up are
    // ⌊2^s / 5^q⌋ for any `s <= TOP`.
    const TOP: u32 = 64 * (LIMBS as u32 - 1);
    let mut table = [0; POW5_INV_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1;
    let mut q = 0;
    while q < POW5_INV_LEN {
        let s = bit_length(&pow) - 1 + POW5_BITS as u32;
        table[q] = bits_at(&quot, TOP - s) + 1;
        mul5(&mut pow);
        div5(&mut quot);
        q += 1;
    }
    table
}

const fn bit_length(x: &[u64; LIMBS]) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as u32 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// The 128 bits of `x` starting at bit `shift`.
const fn bits_at(x: &[u64; LIMBS], shift: u32) -> u128 {
    const fn limb(x: &[u64; LIMBS], i: usize) -> u128 {
        if i < LIMBS {
            x[i] as u128
        } else {
            0
        }
    }
    let i = (shift / 64) as usize;
    let offset = shift % 64;
    let low = (limb(x, i) | limb(x, i + 1) << 64) >> offset;
    if offset == 0 {
        low
    } else {
        low | limb(x, i + 2) << (128 - offset)
    }
}

const fn mul5(x: &mut [u64; LIMBS]) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let v = x[i] as u128 * 5 + carry;
        x[i] = v as u64;
        carry = v >> 64;
        i += 1;
    }
    assert!(carry == 0, "table bignum overflow");
}

const fn div5(x: &mut [u64; LIMBS]) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let v = rem << 64 | x[i] as u128;
        x[i] = (v / 5) as u64;
        rem = v % 5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries whose power of five fits a machine word, recomputed with
    /// plain integer arithmetic.
    #[test]
    fn tables_match_word_arithmetic() {
        for (i, &entry) in POW5.iter().enumerate().take(56) {
            let pow = 5u128.pow(i as u32);
            let len = 128 - pow.leading_zeros();
            let expected = if len > 125 {
                pow >> (len - 125)
            } else {
                pow << (125 - len)
            };
            assert_eq!(entry, expected, "POW5[{i}]");
            assert_eq!(len as i32, pow5_bits(i as i32), "bit length of 5^{i}");
        }
        for (q, &entry) in POW5_INV.iter().enumerate().take(28) {
            // ⌊2^(b + 124) / 5^q⌋ by long division over 64-bit limbs.
            let pow = 5u64.pow(q as u32);
            let s = (64 - pow.leading_zeros()) + 124;
            let mut dividend = [0u64; 3];
            dividend[(s / 64) as usize] = 1 << (s % 64);
            let (mut quotient, mut rem) = (0u128, 0u128);
            for &limb in dividend.iter().rev() {
                let v = rem << 64 | u128::from(limb);
                quotient = (quotient << 64) | (v / u128::from(pow));
                rem = v % u128::from(pow);
            }
            assert_eq!(entry, quotient + 1, "POW5_INV[{q}]");
        }
    }
}
