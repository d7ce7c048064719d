//! Pins the allocation profile of the training transient and of the
//! reduced-pencil transfer sweep: a transient's allocations do not grow
//! with its step count, each snapshot adds exactly the three buffers it
//! owns (`G`, `C`, `x`), and `transfer_sweep` allocates the same at any
//! number of jω points.
//!
//! Lives in its own test binary because it installs a counting global
//! allocator — the count is process-wide, so the measured region must
//! not race other tests (this file has exactly one `#[test]`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rvf_circuit::{
    dc_operating_point, high_speed_buffer, transfer_sweep, transient, BufferParams, DcOptions,
    TranOptions, Waveform,
};
use rvf_numerics::{jw_grid, logspace};

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

/// Allocation calls made by `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn transient_and_sweep_allocations_do_not_grow_with_steps_or_points() {
    // The paper buffer (MNA dimension 26) under its training sine, so
    // every step runs the full nonlinear Newton solve.
    let sine =
        Waveform::Sine { offset: 0.9, amplitude: 0.5, freq_hz: 1.0e5, phase_rad: 0.0, delay: 0.0 };
    let mut ckt = high_speed_buffer(&BufferParams::default(), sine);
    let op = dc_operating_point(&mut ckt, &DcOptions::default()).unwrap();
    let dt = 1.0e-5 / 2000.0;
    let run = |ckt: &mut _, steps: usize, snapshot_every: Option<usize>| {
        let opts = TranOptions { dt, t_stop: steps as f64 * dt, snapshot_every };
        let (n, tran) = allocs(|| transient(ckt, &op, &opts).unwrap());
        (n, tran.snapshots.len())
    };

    // No snapshots: the same allocations at 100 and at 1,000 steps.
    let (short, _) = run(&mut ckt, 100, None);
    let (long, _) = run(&mut ckt, 1000, None);
    assert_eq!(short, long, "a transient without snapshots allocates per step");

    // With snapshots: a fixed count per snapshot on top of that.
    let counts: Vec<(u64, usize)> =
        [200, 100, 50, 20, 10].into_iter().map(|every| run(&mut ckt, 200, Some(every))).collect();
    let (base, first) = counts[0];
    let per_snapshot = (counts[1].0 - base) / (counts[1].1 - first) as u64;
    for &(n, k) in &counts {
        assert_eq!(
            n,
            base + per_snapshot * (k - first) as u64,
            "{k} snapshots: allocations are not {per_snapshot} per snapshot ({counts:?})"
        );
    }
    // The snapshot's own G, C and x, nothing else.
    assert_eq!(per_snapshot, 3, "{per_snapshot} allocations per snapshot");

    // The jω sweep of one snapshot through the reduced pencil: the same
    // allocations at 16 and at 120 points.
    let ev = ckt.eval(&op, 0.0, 0.0);
    let b = ckt.input_column().unwrap();
    let d = ckt.output_row().unwrap();
    let sweep = |n: usize| {
        let ss = jw_grid(&logspace(0.0, 10.0, n));
        allocs(|| transfer_sweep(&ev.g, &ev.c, &b, &d, &ss).unwrap()).0
    };
    assert_eq!(sweep(16), sweep(120), "transfer_sweep allocates per frequency point");
}
