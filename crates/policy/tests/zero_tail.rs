//! The sparse hotness path holds the bits of the dense one it replaced.
//!
//! Hotness from no zero to all zeros (`test_support::zero_share_cases`)
//! goes through the calibration, the ranking, the blocks and two solves —
//! one whose caching patterns take part of the zero tail, and one whose
//! roomy GPU's spare-capacity fill walks into it. Every hash below was
//! recorded from the dense path (`Hotness` as a plain weight vector)
//! before hotness was held sparse; the `Refresher` batches between these
//! placements are pinned the same way in `emb-cache`'s `refresh.rs`.

use cache_policy::{build_blocks, BlockConfig, Hotness, Placement, SolverConfig, UGacheSolver};
use gpu_platform::{DedicationConfig, Platform};
use test_support::{fnv1a, zero_share_cases, FNV_OFFSET};

/// Entries of every case.
const N: usize = 30_000;

/// Per case: adjusted weights, ranking and blocks (with their count).
const SHAPES: [(&str, u64, u64, u64, usize); 6] = [
    (
        "0 % zeros",
        0x7f2d_23f4_208a_af54,
        0x5262_7b9f_54eb_32a5,
        0x03d5_165d_2199_4583,
        226,
    ),
    (
        "50 % zeros",
        0xa1e5_b7f7_f70f_f197,
        0x60c5_3086_af2d_3de5,
        0x9594_0e22_4233_c565,
        220,
    ),
    (
        "97 % zeros",
        0x34d5_0e70_f5a4_dc25,
        0xea8b_368f_5cfb_a045,
        0xd9f5_113a_4211_de41,
        203,
    ),
    (
        "100 % zeros",
        0xe01f_618c_1473_a125,
        0xe450_305d_18d1_6855,
        0x83aa_5ae3_45ae_2005,
        200,
    ),
    (
        "one non-zero",
        0x66e1_e0b3_3728_fd58,
        0xaede_0e5e_5ad5_a605,
        0x1e61_fd36_ac15_715e,
        201,
    ),
    (
        "sampled",
        0x931d_73e9_59c6_877e,
        0xce6e_7151_03ee_681d,
        0x9bf9_ce93_1b42_2c34,
        207,
    ),
];

/// Per case, per platform (Server A, then Server B with a roomy GPU 3):
/// the placement and `predicted_secs`' bits.
const SOLVES: [[(u64, u64); 2]; 6] = [
    [
        (0x0d32_2a32_ddfe_5e29, 0x3ef4_5402_b40b_d84c),
        (0x01f7_0a14_95f0_f22b, 0x3efd_2a6b_9223_4c41),
    ],
    [
        (0x0ec4_b532_d8c8_8c2d, 0x3eeb_d9c6_57ec_968f),
        (0x98dc_82c8_f8c4_3155, 0x3efa_a26b_24e7_dcb6),
    ],
    [
        (0x1735_4251_b343_1ab5, 0x3eba_d7f2_9abc_afc5),
        (0x5b43_1806_90f7_5e3c, 0x3ec2_0abf_6ce2_55ab),
    ],
    [
        (0xe183_c898_d20c_bd45, 0x0000_0000_0000_0000),
        (0xa8d4_c246_b6bc_e475, 0x0000_0000_0000_0000),
    ],
    [
        (0x96e2_0bcf_85ff_e59d, 0x3eba_d7f2_9abc_af5d),
        (0x9eec_e66b_5788_a435, 0x3eba_d7f2_9abc_af4c),
    ],
    [
        (0xc774_e48d_0def_4bcd, 0x3eba_d7f2_9abc_b07e),
        (0x6ea9_c3f2_1f44_0123, 0x3ecd_87dd_375f_b884),
    ],
];

fn f64_bytes(v: &[f64]) -> impl Iterator<Item = u8> + '_ {
    v.iter().flat_map(|x| x.to_bits().to_le_bytes())
}

fn u32_bytes(v: &[u32]) -> impl Iterator<Item = u8> + '_ {
    v.iter().flat_map(|x| x.to_le_bytes())
}

/// FNV-1a over a placement's access and storage tables.
fn placement_hash(p: &Placement) -> u64 {
    let access = (0..p.num_gpus).flat_map(|i| (0..p.num_entries).map(move |e| p.source(i, e)));
    let stored = p.stored.iter().flatten().map(u8::from);
    fnv1a(FNV_OFFSET, access.chain(stored))
}

/// The two solves: Server A, every GPU alike; Server B, GPU 3 ten times
/// the others.
fn platforms() -> [(Platform, Vec<usize>); 2] {
    let mut roomy = vec![600; 8];
    roomy[3] = 6_000;
    [
        (Platform::server_a(), vec![2_000; 4]),
        (Platform::server_b(), roomy),
    ]
}

#[test]
fn sparse_hotness_keeps_the_dense_paths_bits_from_no_zero_to_all_zeros() {
    let cases = zero_share_cases(N);
    for (((name, weights), shape), solves) in cases.into_iter().zip(SHAPES).zip(SOLVES) {
        assert_eq!(name, shape.0);
        let h = Hotness::new(weights);
        let adjusted = h.dedup_adjusted(1_000.0);
        let blocks = build_blocks(&adjusted, &BlockConfig::default());
        let mut blocks_hash = FNV_OFFSET;
        for b in &blocks {
            let entries: Vec<u32> = b.entries(&adjusted).collect();
            blocks_hash = fnv1a(blocks_hash, b.level.to_le_bytes());
            blocks_hash = fnv1a(blocks_hash, b.weight.to_bits().to_le_bytes());
            blocks_hash = fnv1a(blocks_hash, (entries.len() as u64).to_le_bytes());
            blocks_hash = fnv1a(blocks_hash, u32_bytes(&entries));
        }
        let got = (
            fnv1a(FNV_OFFSET, f64_bytes(&adjusted.dense_weights())),
            fnv1a(FNV_OFFSET, u32_bytes(&adjusted.ranking())),
            blocks_hash,
            blocks.len(),
        );
        assert_eq!(got, (shape.1, shape.2, shape.3, shape.4), "{name}");

        for ((platform, caps), want) in platforms().into_iter().zip(solves) {
            let what = format!("{name}, {}", platform.name);
            let solver = UGacheSolver::new(platform, DedicationConfig::default());
            let mut cfg = SolverConfig::new(512, 1_000.0);
            cfg.dedup_adjust = true;
            let sp = solver.solve(&h, &caps, &cfg).unwrap();
            let got = (placement_hash(&sp.placement), sp.predicted_secs.to_bits());
            assert_eq!(got, want, "{what}");
        }
    }
}
