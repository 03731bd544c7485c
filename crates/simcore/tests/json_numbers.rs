//! `simcore::json::{write_f64, write_i64}` against std's own spelling.
//!
//! The oracle for a float is `format!("{x}")`, with `.0` appended when
//! that has no `.`, and `null` for NaN and infinities; for an integer it
//! is `i64::to_string`. Checked here: any bit pattern (property test),
//! named families where shortest-digit algorithms tend to go wrong, and
//! an `#[ignore]`d sweep of 10^8 random values for the nightly release
//! run (`cargo test -q -p simcore --release -- --include-ignored`).

use std::fmt::Write as _;

use proptest::prelude::*;
use simcore::json::{write_f64, write_i64};
use simcore::par::{par_map_range, Jobs};
use simcore::rng::SimRng;

/// Reusable buffers for one comparison after another.
#[derive(Default)]
struct Oracle {
    ours: Vec<u8>,
    std: String,
}

impl Oracle {
    /// `write_f64(x)` and std's spelling of `x`, if they differ.
    fn float_mismatch(&mut self, x: f64) -> Option<String> {
        self.ours.clear();
        write_f64(&mut self.ours, x);
        self.std.clear();
        if x.is_finite() {
            write!(self.std, "{x}").unwrap();
            if !self.std.contains('.') {
                self.std.push_str(".0");
            }
        } else {
            self.std.push_str("null");
        }
        (self.ours != self.std.as_bytes()).then(|| {
            format!(
                "{:#018x}: ours {} std {}",
                x.to_bits(),
                String::from_utf8_lossy(&self.ours),
                self.std
            )
        })
    }

    fn check_float(&mut self, x: f64) {
        if let Some(bad) = self.float_mismatch(x) {
            panic!("{bad}");
        }
    }

    /// `x` and its neighbours one ulp away, both signs.
    fn check_with_neighbours(&mut self, x: f64) {
        let bits = x.to_bits();
        for b in [bits.wrapping_sub(1), bits, bits + 1] {
            self.check_float(f64::from_bits(b));
            self.check_float(-f64::from_bits(b));
        }
    }

    fn check_int(&mut self, i: i64) {
        self.ours.clear();
        write_i64(&mut self.ours, i);
        assert_eq!(self.ours, i.to_string().as_bytes(), "{i}");
    }
}

#[test]
fn named_float_families_spell_as_std() {
    let mut o = Oracle::default();
    for x in [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON] {
        o.check_with_neighbours(x);
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        o.check_float(x);
    }

    // Subnormals: the smallest ones, the largest ones and a stride
    // through the rest.
    for m in (1..5_000).chain((1u64 << 52) - 5_000..1 << 52) {
        o.check_float(f64::from_bits(m));
    }
    for m in (1..1u64 << 52).step_by(9_999_999_967) {
        o.check_float(f64::from_bits(m));
    }

    // Every power of two (the asymmetric-interval case) and every power
    // of ten, each with its neighbours.
    for e in -1074..=1023 {
        o.check_with_neighbours(2f64.powi(e));
    }
    for e in -323..=308 {
        o.check_with_neighbours(format!("1e{e}").parse().unwrap());
    }

    // Integers in [2^53, 2^64]: consecutive doubles from both ends and a
    // stride through the middle.
    let two53 = 2f64.powi(53).to_bits();
    let two64 = 2f64.powi(64).to_bits();
    for b in (two53..two53 + 20_000).chain(two64 - 20_000..=two64) {
        o.check_float(f64::from_bits(b));
    }
    for b in (two53..two64).step_by(99_999_999_977) {
        o.check_float(f64::from_bits(b));
    }

    // Whole nanoseconds in seconds, the trace's delays.
    for n in (0..200_000u64).chain((1..200_000).map(|k| k * 9_999_991)) {
        o.check_float(n as f64 / 1e9);
    }

    // Exact midpoints between two shortest candidates: std rounds them
    // up (`…624.3`), where round-half-even would print `…624.2`.
    for k in 0..100_000 {
        o.check_float(2f64.powi(50) + k as f64 + 0.25);
        o.check_float(2f64.powi(51) + k as f64 + 0.5);
    }
    let mut out = Vec::new();
    write_f64(&mut out, 2f64.powi(50) + 0.25);
    assert_eq!(out, b"1125899906842624.3");
}

#[test]
fn named_integers_spell_as_std() {
    let mut o = Oracle::default();
    for i in [0, 1, -1, i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1] {
        o.check_int(i);
    }
    let mut p = 1i64;
    for _ in 0..=18 {
        for i in [p - 1, p, p + 1] {
            o.check_int(i);
            o.check_int(-i);
        }
        p = p.saturating_mul(10);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn any_bit_pattern_spells_as_std(bits in any::<u64>()) {
        let mismatch = Oracle::default().float_mismatch(f64::from_bits(bits));
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn everyday_floats_spell_as_std(x in prop_oneof![0.0f64..1.0, -1e7f64..1e7, 0.0f64..1e-3]) {
        let mismatch = Oracle::default().float_mismatch(x);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn any_integer_spells_as_std(bits in any::<u64>()) {
        Oracle::default().check_int(bits as i64);
    }
}

/// 10^8 random floats in release (10^6 in a debug build), half any bit
/// pattern and half everyday magnitudes, against std.
#[test]
#[ignore = "heavy: 10^8 values; run nightly in release"]
fn random_sweep_spells_as_std() {
    let total: usize = if cfg!(debug_assertions) {
        1_000_000
    } else {
        100_000_000
    };
    const CHUNKS: usize = 64;
    let failures: Vec<String> = par_map_range(Jobs::Auto, CHUNKS, |chunk| {
        let mut rng = SimRng::seed_from(0x5eed).fork_indexed("json_numbers/sweep", chunk as u64);
        let mut o = Oracle::default();
        let mut bad = Vec::new();
        for _ in 0..total / (2 * CHUNKS) {
            let bits = rng.next_u64();
            let everyday = rng.next_f64() * 10f64.powi((bits % 24) as i32 - 12);
            for x in [f64::from_bits(bits), everyday] {
                if let Some(m) = o.float_mismatch(x) {
                    bad.push(m);
                }
            }
        }
        bad
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} mismatches, first: {:?}",
        failures.len(),
        &failures[..failures.len().min(10)]
    );
}
