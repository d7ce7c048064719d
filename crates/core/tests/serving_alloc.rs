//! Pins the zero-allocation contract of the streaming serving path:
//! `simulate_into` / `feed_into` perform **no heap allocation per
//! chunk**, the first chunk on a fresh state (which fills the per-`dt`
//! propagator cache inside the state) included.
//!
//! Lives in its own test binary because it installs a counting global
//! allocator — the count is process-wide, so the measured region must
//! not race other tests (this file has exactly one `#[test]`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rvf_core::{IntegratedStateFn, LogTerm, SimBuilder};
use rvf_numerics::Complex;

/// System allocator wrapper that counts allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn simulate_into_allocates_nothing_per_chunk_in_steady_state() {
    // A model with all three drive families: log-form terms (pair
    // block), a real block, and polynomial rows — every kernel path is
    // on the measured region.
    let mut b = SimBuilder::new();
    let s = b.drive_poly(&[0.1, 1.0, 0.2]);
    b.set_static_drive(s);
    let pole = Complex::new(-0.4, 1.1);
    let f1 = b.drive_rational(&IntegratedStateFn {
        terms: vec![LogTerm { pole, rho: Complex::new(0.8, -0.3) }],
        linear: 0.5,
        quadratic: 0.1,
        constant: 0.0,
    });
    let f2 = b.drive_rational(&IntegratedStateFn {
        terms: vec![LogTerm { pole, rho: Complex::new(-0.2, 0.6) }],
        linear: 0.2,
        quadratic: 0.0,
        constant: 0.1,
    });
    b.block_pair(-1.0e9, 3.0e9, f1, f2);
    let fr = b.drive_poly(&[0.0, 0.7]);
    b.block_real(-2.0e9, fr);
    let sim = b.try_build().expect("valid wiring");

    let dt = 1.0e-10;
    let chunk: Vec<f64> = (0..256).map(|i| ((i / 3) as f64 * 0.17).sin()).collect();
    let mut out = vec![0.0; chunk.len()];

    let mut state = sim.new_state();
    // The first chunk on a fresh state seeds the DC state, fills the
    // propagator cache (in capacity reserved by new_state) and is the
    // process's first drive pass, so the CPU feature check that picks
    // `ln_shifted_into`'s build runs inside the measured region.
    let before = ALLOCS.load(Ordering::SeqCst);
    sim.simulate_into(dt, &chunk, &mut state, &mut out).unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "the first simulate_into on a fresh state must not allocate");

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..50 {
        sim.simulate_into(dt, &chunk, &mut state, &mut out).unwrap();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "steady-state simulate_into must not allocate");

    // The StreamingSession::feed_into path inherits the contract.
    let mut session = sim.session(dt).unwrap();
    session.feed_into(&chunk, &mut out).unwrap();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..50 {
        session.feed_into(&chunk, &mut out).unwrap();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "steady-state feed_into must not allocate");
}
