//! Deep cross-crate checks: functional correctness flowing through the
//! same structures the performance model schedules (layout, PIM math),
//! plus failure-injection paths.

use neupims_dram::DramChannel;
use neupims_npu::functional::{matmul_ref, matmul_tiled, softmax_ref};
use neupims_pim::{attend_job, logit_job, CommandMode, GemvEngine};
use neupims_types::{config::PimConfig, HbmTiming, MemConfig, NpuConfig, SimError};

/// One decoder-attention head computed functionally end to end: QK^T
/// logits on the PIM path, softmax on the (reference) vector path, attend
/// on the PIM path — against a plain floating-point reference.
#[test]
fn attention_head_end_to_end_matches_reference() {
    let seq = 200usize;
    let d_head = 128usize;
    let k: Vec<Vec<f32>> = (0..seq)
        .map(|s| {
            (0..d_head)
                .map(|j| ((s + 3 * j) % 11) as f32 * 0.08 - 0.4)
                .collect()
        })
        .collect();
    let v: Vec<Vec<f32>> = (0..seq)
        .map(|s| {
            (0..d_head)
                .map(|j| ((7 * s + j) % 13) as f32 * 0.05 - 0.3)
                .collect()
        })
        .collect();
    let q: Vec<f32> = (0..d_head).map(|j| (j % 7) as f32 * 0.1 - 0.3).collect();

    // PIM path.
    let mem = MemConfig::table2();
    let mut ch = DramChannel::new(mem, HbmTiming::table2(), true);
    let mut engine = GemvEngine::new(PimConfig::newton(), CommandMode::Composite, true);
    let logits = logit_job(&mut ch, &mut engine, &k, &q, 0).unwrap();
    let probs = softmax_ref(&vec![logits.result.clone()]).remove(0);
    let out = attend_job(&mut ch, &mut engine, &v, &probs, 8192).unwrap();

    // Reference path.
    let ref_logits: Vec<f32> = k
        .iter()
        .map(|row| row.iter().zip(&q).map(|(a, b)| a * b).sum())
        .collect();
    let ref_probs = softmax_ref(&vec![ref_logits]).remove(0);
    let mut ref_out = vec![0.0f32; d_head];
    for (s, row) in v.iter().enumerate() {
        for (j, &x) in row.iter().enumerate() {
            ref_out[j] += ref_probs[s] * x;
        }
    }
    for (j, (a, b)) in out.result.iter().zip(&ref_out).enumerate() {
        assert!((a - b).abs() < 1e-4, "dim {j}: {a} vs {b}");
    }
}

#[test]
fn tiled_gemm_agrees_with_reference_on_odd_shapes() {
    let npu = NpuConfig::table2();
    let a: Vec<Vec<f32>> = (0..37)
        .map(|i| (0..259).map(|j| ((i * j) % 5) as f32 - 2.0).collect())
        .collect();
    let b: Vec<Vec<f32>> = (0..259)
        .map(|i| (0..131).map(|j| ((i + j) % 7) as f32 * 0.5 - 1.5).collect())
        .collect();
    let t = matmul_tiled(&npu, &a, &b).unwrap();
    let r = matmul_ref(&a, &b).unwrap();
    for (rt, rr) in t.iter().zip(&r) {
        for (x, y) in rt.iter().zip(rr) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }
}

#[test]
fn dram_timing_violation_reports_are_actionable() {
    use neupims_dram::{DramCommand, Slot};
    use neupims_types::BankId;
    let mut ch = DramChannel::new(MemConfig::table2(), HbmTiming::table2(), false);
    ch.issue(
        DramCommand::Activate {
            bank: BankId::new(0),
            row: 1,
            slot: Slot::Mem,
        },
        0,
    )
    .unwrap();
    // Read three cycles after ACT violates tRCD = 14.
    let err = ch
        .issue_at(
            DramCommand::Read {
                bank: BankId::new(0),
                col: 0,
            },
            3,
        )
        .unwrap_err();
    match err {
        SimError::TimingViolation { at, legal_at, .. } => {
            assert_eq!(at, 3);
            assert_eq!(legal_at, 14);
        }
        other => panic!("expected timing violation, got {other}"),
    }
}
