//! Damage to a snapshot ends in a labelled error, never a panic or an
//! abort: every single-bit flip of the committed `world-v2.snap` fixture
//! must make `World::resume` return `Ok` or `Err`.
//!
//! A flip that still decodes must leave a world that later code can index
//! safely, so release builds also step every `Ok` world 5 ticks. Debug
//! builds skip the stepping: their per-tick invariant checker panics by
//! design on a world whose (validly encoded) numbers disagree with each
//! other.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use wrsn_sim::World;

#[test]
fn no_single_bit_flip_of_the_snapshot_fixture_panics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/world-v2.snap");
    let bytes = std::fs::read(&path).expect("fixture");
    // Every panic is caught and counted below; keep the hook from
    // printing thousands of them.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut panicked = Vec::new();
    let mut decoded = 0;
    for bit in 0..bytes.len() * 8 {
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let Ok(mut world) = World::resume(&damaged) else {
                return false;
            };
            if cfg!(not(debug_assertions)) {
                for _ in 0..5 {
                    world.step();
                }
            }
            true
        }));
        match outcome {
            Ok(ok) => decoded += ok as usize,
            Err(_) => panicked.push((bit / 8, bit % 8)),
        }
    }
    panic::set_hook(hook);
    assert!(
        panicked.is_empty(),
        "{} of {} flips panicked (byte, bit), first: {:?}",
        panicked.len(),
        bytes.len() * 8,
        &panicked[..panicked.len().min(20)]
    );
    assert!(
        decoded > 0,
        "no flip decoded: the stepping went unexercised"
    );
}
