//! The seeded case streams the plain-`#[test]` properties of `tests/` run on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs `case` on `cases` ChaCha8 streams, one per case: the stream of case
/// `i` is seeded with FNV-1a(`name`) + `i`, so every property draws its own
/// instances and draws the same ones on every run. A panicking case fails the
/// test as `property '<name>' failed at case <i>` (the case's own panic
/// message is already on stderr by then).
pub fn for_cases(name: &str, cases: u32, mut case: impl FnMut(&mut ChaCha8Rng)) {
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        seed = (seed ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
    }
    for index in 0..cases {
        let case_seed = seed.wrapping_add(index as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(case_seed);
        if catch_unwind(AssertUnwindSafe(|| case(&mut rng))).is_err() {
            panic!("property '{name}' failed at case {index} (stream seed {case_seed:#x})");
        }
    }
}
