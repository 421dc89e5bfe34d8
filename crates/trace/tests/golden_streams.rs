//! Golden fingerprints of every workload's op stream.
//!
//! Each figure's input is `Workload::new(kind, ops, seed).generate()`. A
//! change to a generator or the Zipf sampler that moves any op moves the
//! figures, so the first 100 k ops of each stream at seed 42 are pinned to
//! an FNV-1a hash of their `(gap, kind, addr)` records. A deliberate stream
//! change must update these constants and regenerate every artifact.

use steins_trace::{OpKind, Workload, WorkloadKind};

const OPS: u64 = 100_000;
const SEED: u64 = 42;

/// FNV-1a 64 over each op's little-endian `gap: u32 ‖ kind: u8 ‖ addr: u64`.
fn fingerprint(kind: WorkloadKind) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in Workload::new(kind, OPS, SEED).generate().take(OPS as usize) {
        let kind = match op.kind {
            OpKind::Load => 0u8,
            OpKind::Store => 1,
            OpKind::Flush => 2,
        };
        let bytes = op.gap.to_le_bytes().into_iter().chain([kind]);
        for b in bytes.chain(op.addr.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_workload_stream_matches_its_golden_fingerprint() {
    let golden: [(WorkloadKind, u64); 10] = [
        (WorkloadKind::Lbm, 0x0d20_35e5_c170_9ef5),
        (WorkloadKind::Mcf, 0x8d9b_df89_4d95_1565),
        (WorkloadKind::Libquantum, 0x7c29_c4b9_68e4_6e3c),
        (WorkloadKind::CactusAdm, 0x4767_d67a_b211_4c6d),
        (WorkloadKind::Milc, 0x7f30_1112_4cdf_a352),
        (WorkloadKind::GemsFdtd, 0x38bf_772f_5411_6c79),
        (WorkloadKind::Omnetpp, 0x0d1f_aff9_12a1_ccc6),
        (WorkloadKind::Soplex, 0x72aa_81e2_ac9f_8d37),
        (WorkloadKind::PHash, 0x0aa8_a7c4_3eb0_5cba),
        (WorkloadKind::PTree, 0xa0f9_dce8_2f00_e61e),
    ];
    let moved: Vec<String> = golden
        .iter()
        .filter_map(|&(kind, want)| {
            let got = fingerprint(kind);
            (got != want).then(|| format!("{}: {got:#018x} (golden {want:#018x})", kind.label()))
        })
        .collect();
    assert!(moved.is_empty(), "op streams moved:\n{}", moved.join("\n"));
}
