//! Exact heap-allocation counts of the decode hot path.
//!
//! A counting global allocator wraps `System` and counts, per thread,
//! every allocation and reallocation. The pins below are exact: a change
//! that adds an allocation to a warm `Device::decode_iteration` or to
//! GMLBP fails here, and a change that removes one must lower the pin.
//! A warm iteration prices, balances and sums its batch in thread-local
//! scratch; what it still allocates is named next to each pin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use neupims_core::device::{Device, DeviceMode, SbiPolicy};
use neupims_pim::calibrate;
use neupims_sched::{assign_min_load, CostModelKind, MinLoadPacker};
use neupims_types::{LlmConfig, NeuPimsConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// An 86-request batch of mixed contexts: the decode batch size of the
/// trace-priced serving benchmark.
fn batch() -> Vec<u64> {
    (0..86u64).map(|i| (i * 977 + 13) % 3000 + 1).collect()
}

/// Allocations of one warm decode iteration: the memo, the decode model
/// and the thread's scratch were all filled by an earlier call.
fn warm_decode_allocations(mode: DeviceMode, kind: CostModelKind) -> u64 {
    let cfg = NeuPimsConfig::table2();
    let cal = calibrate(&cfg).unwrap();
    let model = LlmConfig::gpt3_7b();
    let device = Device::new(cfg, cal, mode).with_cost_model(kind);
    let seqs = batch();
    let decode = || {
        device
            .decode_iteration(&model, 4, model.num_layers, &seqs)
            .unwrap()
    };
    let warm = decode();
    let (again, n) = allocations(decode);
    assert_eq!(again, warm, "a warm iteration prices as the first did");
    n
}

#[test]
fn warm_trace_priced_decode_iteration_allocates_only_its_outputs() {
    // The per-channel `pim_busy` vector of the result, and Algorithm 3's
    // per-channel quota (`SubBatchSides`).
    assert_eq!(
        warm_decode_allocations(DeviceMode::neupims(), CostModelKind::TraceDriven),
        2
    );
    // Without sub-batch interleaving only the result's vector remains.
    let serial = DeviceMode::NeuPims {
        gmlbp: true,
        sbi: SbiPolicy::Off,
    };
    assert_eq!(
        warm_decode_allocations(serial, CostModelKind::TraceDriven),
        1
    );
}

#[test]
fn warm_analytic_decode_iteration_allocates_only_its_outputs() {
    assert_eq!(
        warm_decode_allocations(DeviceMode::neupims(), CostModelKind::Analytic),
        2
    );
    assert_eq!(
        warm_decode_allocations(DeviceMode::NaiveNpuPim, CostModelKind::Analytic),
        1
    );
    assert_eq!(
        warm_decode_allocations(DeviceMode::NpuOnly, CostModelKind::Analytic),
        1
    );
}

#[test]
fn assign_min_load_allocates_its_buffers_once() {
    let seqs = batch();
    let costs: Vec<f64> = seqs.iter().map(|&s| 100.0 + s as f64).collect();
    // The LPT order, the channel loads, the heap and the assignment.
    let (_, n) = allocations(|| assign_min_load(&seqs, &costs, 32));
    assert_eq!(n, 4);
    // Within one round of positive costs there is no heap to build.
    let (_, n) = allocations(|| assign_min_load(&seqs[..20], &costs[..20], 32));
    assert_eq!(n, 3);
    // A packer reused at the same batch and channel counts allocates
    // nothing.
    let mut packer = MinLoadPacker::new();
    let mut out = Vec::new();
    packer.assign(&seqs, &costs, 32, &mut out);
    let (_, n) = allocations(|| packer.assign(&seqs, &costs, 32, &mut out));
    assert_eq!(n, 0);
}
