//! Microbenchmarks of the cycle-accurate substrate: DRAM command
//! scheduling, PIM GEMV execution and duet interleaving, the command
//! streams calibration measures.

use criterion::{criterion_group, criterion_main, Criterion};
use neupims_dram::{Controller, DramChannel, MemRequest};
use neupims_pim::{CommandMode, DuetDriver, GemvEngine, GemvJob};
use neupims_types::{config::PimConfig, BankId, HbmTiming, MemConfig};
use std::hint::black_box;
use std::time::Duration;

/// Short Criterion configuration: the kernels are deterministic, so a
/// handful of samples suffices.
fn short_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

fn bench(c: &mut Criterion) {
    let mem = MemConfig::table2();
    let timing = HbmTiming::table2();

    c.bench_function("dram_stream_256_pages", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(mem, timing, false);
            for p in 0..256u32 {
                ctrl.enqueue(MemRequest::read(BankId::new(p % 32), p / 32, 0, 16));
            }
            black_box(ctrl.run_until_drained().unwrap())
        })
    });

    c.bench_function("pim_gemv_64_tiles", |b| {
        b.iter(|| {
            let mut ch = DramChannel::new(mem, timing, true);
            let mut e = GemvEngine::new(PimConfig::newton(), CommandMode::Composite, true);
            e.enqueue(GemvJob::synthetic(&mem, 64, 2, 0));
            black_box(e.run_to_completion(&mut ch).unwrap())
        })
    });

    c.bench_function("duet_mem_plus_pim", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(mem, timing, true);
            for p in 0..128u32 {
                ctrl.enqueue(MemRequest::read(
                    BankId::new(p % 32),
                    20_000 + p / 32,
                    0,
                    16,
                ));
            }
            let mut e = GemvEngine::new(PimConfig::newton(), CommandMode::Composite, true);
            e.enqueue(GemvJob::synthetic(&mem, 32, 1, 0));
            black_box(DuetDriver::new(ctrl, e).run().unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = short_criterion();
    targets = bench
}
criterion_main!(benches);
