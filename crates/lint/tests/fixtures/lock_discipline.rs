//! Fixture for the `lock-discipline` rule: one nested acquisition without a
//! `// lock-order:` note (the violation), one with, and two patterns that
//! never hold two guards at once.  Never compiled; only scanned.

use std::sync::Mutex;

fn violating(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    let _ = (*ga, *gb);
}

fn clean_with_note(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    // lock-order: a is always taken before b in this module.
    let gb = b.lock();
    let _ = (*ga, *gb);
}

fn clean_dropped_first(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    drop(ga);
    let gb = b.lock();
    let _ = *gb;
}

fn clean_scoped(a: &Mutex<u32>, b: &Mutex<u32>) {
    {
        let ga = a.lock();
        let _ = *ga;
    }
    let gb = b.lock();
    let _ = *gb;
}
