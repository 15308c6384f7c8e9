//! Golden bits for the GMM fit.
//!
//! The EM kernel behind `Gmm::fit` promises bit-identical output to the
//! textbook loop it replaced (a `Vec` per sample and per-component `ln`
//! calls on every iteration). The constants below are the `to_bits()` of
//! that loop's fits on fixed deterministic samples; every later kernel must
//! reproduce them exactly, so a reordered floating-point expression fails
//! here instead of silently moving every delay model and mapping.

use tw_stats::gmm::{Gmm, GmmFitOptions};

/// 64-bit LCG mapped to [0, 1): deterministic and independent of the
/// crate's samplers.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Three interleaved modes of different spread.
fn trimodal() -> Vec<f64> {
    let mut s = 7u64;
    (0..240)
        .map(|i| {
            let (center, spread) = [(12.0, 1.5), (47.5, 4.0), (130.0, 9.0)][i % 3];
            let u = lcg(&mut s) + lcg(&mut s) + lcg(&mut s) - 1.5;
            center + spread * 2.0 * u
        })
        .collect()
}

/// Long runs of exact ties (σ hits the floor) plus a short ramp.
fn ties() -> Vec<f64> {
    let mut xs = vec![3.0; 30];
    xs.extend(vec![9.0; 20]);
    xs.extend((0..10).map(|i| 9.5 + i as f64 * 0.5));
    xs
}

/// Registry-style decay: each older block of 60 samples weighs 0.7 as
/// much (not a power of two, so every product `w·r` rounds).
fn decayed(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.7f64.powi(((n - 1 - i) / 60) as i32))
        .collect()
}

fn bits(gmm: &Gmm) -> Vec<[u64; 3]> {
    gmm.components
        .iter()
        .map(|c| {
            [
                c.weight.to_bits(),
                c.gaussian.mu.to_bits(),
                c.gaussian.sigma.to_bits(),
            ]
        })
        .collect()
}

#[test]
fn gmm_fits_match_the_golden_bits() {
    let d = GmmFitOptions::default();
    // The delay registry's absorb options.
    let reg = GmmFitOptions {
        max_components: 5,
        max_iters: 40,
        tol: 1e-5,
    };
    let mut fits: Vec<(String, Vec<[u64; 3]>)> = Vec::new();
    let mut scalars: Vec<(String, u64)> = Vec::new();
    for (label, xs) in [("trimodal", trimodal()), ("ties", ties())] {
        let ones = vec![1.0; xs.len()];
        for c in 1..=5 {
            let (gmm, _) = Gmm::fit(&xs, &ones, &[c], &d);
            fits.push((format!("{label} c={c}"), bits(&gmm)));
        }
        let (auto, _) = Gmm::fit(&xs, &ones, &d.sweep(), &d);
        fits.push((format!("{label} auto"), bits(&auto)));
        let ws = decayed(xs.len());
        let (near, _) = Gmm::fit(&xs, &ws, &reg.sweep_near(2), &reg);
        fits.push((format!("{label} near 2"), bits(&near)));
        // Weights this small leave some components with Σw·r < 1e-12, so
        // the dead-component re-seed runs.
        let tiny: Vec<f64> = ws.iter().map(|w| w * 1e-13).collect();
        let (dead, _) = Gmm::fit(&xs, &tiny, &[5], &d);
        fits.push((format!("{label} dead c=5"), bits(&dead)));
        scalars.push((format!("{label} bic"), auto.bic(&xs, &ones).to_bits()));
        scalars.push((
            format!("{label} bic weighted"),
            auto.bic(&xs, &ws).to_bits(),
        ));
        for x in [0.0, 12.0, 50.0, 1e4] {
            scalars.push((format!("{label} log_pdf({x})"), auto.log_pdf(x).to_bits()));
        }
    }

    let mut mismatches = Vec::new();
    assert_eq!(fits.len(), FITS.len());
    for ((label, got), (want_label, want)) in fits.iter().zip(FITS) {
        assert_eq!(label, want_label);
        if got.as_slice() != *want {
            mismatches.push(format!("{label}: got {got:#x?}"));
        }
    }
    assert_eq!(scalars.len(), SCALARS.len());
    for ((label, got), (want_label, want)) in scalars.iter().zip(SCALARS) {
        assert_eq!(label, want_label);
        if got != want {
            mismatches.push(format!("{label}: got {got:#x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

const FITS: &[(&str, &[[u64; 3]])] = &[
    (
        "trimodal c=1",
        &[[0x3ff0000000000000, 0x404f4e777b7d65cf, 0x4048c709f1155527]],
    ),
    (
        "trimodal c=2",
        &[
            [0x3fe5556c4276d481, 0x403d42aaceed5da2, 0x40316c62a6605017],
            [0x3fd555277b1256fe, 0x40602a49caf99494, 0x402276d09de57494],
        ],
    ),
    (
        "trimodal c=3",
        &[
            [0x3fd5555555555555, 0x4028212819cbffc8, 0x3ff91eb285589a10],
            [0x3fd5555555555547, 0x40473a0c36caec56, 0x400d100b363847f6],
            [0x3fd5555555555563, 0x40602a440d4e913d, 0x402277285946af86],
        ],
    ),
    (
        "trimodal c=4",
        &[
            [0x3fd5555555555555, 0x4028212819cbffc8, 0x3ff91eb285589a10],
            [0x3f701d9e6c90dc76, 0x4047572cbec424c3, 0x400e62ee200d4d4f],
            [0x3fd514dedba311d7, 0x404739b32650db47, 0x400d0bb9e29b9112],
            [0x3fd5555555555563, 0x40602a440d4e913d, 0x402277285946af86],
        ],
    ),
    (
        "trimodal c=5",
        &[
            [0x3fcd6653622ef8f9, 0x40281d9bbe2a1692, 0x3ff91de807eb5c58],
            [0x3fba88ae90f76365, 0x4028290507f64cc2, 0x3ff92000e07360b0],
            [0x3fd5555555555555, 0x40473a0c36caec5a, 0x400d100b3638482c],
            [0x3fa58cb4fd4b8015, 0x405c2a5836885066, 0x400f2db4a84a244d],
            [0x3fd2a3beb5abe554, 0x4060774e49029a5f, 0x401c21df1737e815],
        ],
    ),
    (
        "trimodal auto",
        &[
            [0x3fd5555555555555, 0x4028212819cbffc8, 0x3ff91eb285589a10],
            [0x3fd5555555555547, 0x40473a0c36caec56, 0x400d100b363847f6],
            [0x3fd5555555555563, 0x40602a440d4e913d, 0x402277285946af86],
        ],
    ),
    (
        "trimodal near 2",
        &[
            [0x3fe5556bec92a15a, 0x403d4cd5c50f30ba, 0x4031684e197710a1],
            [0x3fd5552826dabd4d, 0x40602468dbed769e, 0x4022e5a30f907ee7],
        ],
    ),
    (
        "trimodal dead c=5",
        &[
            [0x3fcd9c5ef9d5310a, 0x40283371ac6e0bb7, 0x3ffa6b247b2c89d1],
            [0x3fba1c935f531497, 0x40284613391fe20f, 0x3ffa8129702a540a],
            [0x3fd55553d7a35e9d, 0x40473e3929c92b92, 0x400c12287bbd7a08],
            [0x3eb0c6f6f84feb62, 0x404f4e777b7d65cf, 0x4048c709f1155527],
            [0x3fd55553a1df85a4, 0x406024634ec038f0, 0x4022e5f3e33207fe],
        ],
    ),
    (
        "ties c=1",
        &[[0x3ff0000000000000, 0x4019d55555555555, 0x400d00fb14467c25]],
    ),
    (
        "ties c=2",
        &[
            [0x3fdfffffffffff18, 0x4008000000000005, 0x3e112e0be826d695],
            [0x3fe0000000000074, 0x4023d555555554ed, 0x3ff89f1fe4ea20ce],
        ],
    ),
    (
        "ties c=3",
        &[
            [0x3fe0000000000001, 0x4008000000000000, 0x3e112e0be826d695],
            [0x3fc55555555f88a1, 0x40277ffffffd5ec6, 0x3ff6fa6ea171771e],
            [0x3fd5555555503bac, 0x4022000000000002, 0x3e112e0be826d695],
        ],
    ),
    (
        "ties c=4",
        &[
            [0x3fd0000000000003, 0x4008000000000004, 0x3e112e0be826d695],
            [0x3fd0000000000003, 0x4008000000000004, 0x3e112e0be826d695],
            [0x3fc55555555f889f, 0x40277ffffffd5ec6, 0x3ff6fa6ea171771e],
            [0x3fd5555555503baa, 0x4022000000000002, 0x3e112e0be826d695],
        ],
    ),
    (
        "ties c=5",
        &[
            [0x3fd0000000000003, 0x4008000000000004, 0x3e112e0be826d695],
            [0x3fd0000000000003, 0x4008000000000004, 0x3e112e0be826d695],
            [0x3fa9d3b4acca218d, 0x4027ba8b4926d4ff, 0x3ff6e733b308d0ca],
            [0x3fbdc0d0545a00d3, 0x4027669736295d26, 0x3ff6f728d17c003a],
            [0x3fd5555555503b94, 0x4022000000000000, 0x3e112e0be826d695],
        ],
    ),
    (
        "ties auto",
        &[
            [0x3fe0000000000001, 0x4008000000000000, 0x3e112e0be826d695],
            [0x3fc55555555f88a1, 0x40277ffffffd5ec6, 0x3ff6fa6ea171771e],
            [0x3fd5555555503bac, 0x4022000000000002, 0x3e112e0be826d695],
        ],
    ),
    (
        "ties near 2",
        &[
            [0x3fe0000000000001, 0x4008000000000000, 0x3e112e0be826d695],
            [0x3fc55555555f88a1, 0x40277ffffffd5ec6, 0x3ff6fa6ea171771e],
            [0x3fd5555555503bac, 0x4022000000000002, 0x3e112e0be826d695],
        ],
    ),
    (
        "ties dead c=5",
        &[
            [0x3fcffffda934ccac, 0x4008000000000002, 0x3e112e0be826d695],
            [0x3fcffffda934ccac, 0x4008000000000002, 0x3e112e0be826d695],
            [0x3eb0c6f666c53166, 0x4019d55555555555, 0x400d00fb14467c25],
            [0x3eb0c6f666c53166, 0x4019d55555555555, 0x400d00fb14467c25],
            [0x3fdffff9f34ffff3, 0x4023d5553442003e, 0x3ff89f1eb0b5ccd7],
        ],
    ),
];
const SCALARS: &[(&str, u64)] = &[
    ("trimodal bic", 0x409d79ef7fb44b10),
    ("trimodal bic weighted", 0x4092ee6bdfc7eb95),
    ("trimodal log_pdf(0)", 0xc03ffebc59a6793a),
    ("trimodal log_pdf(12)", 0xc003c17b620fdf4d),
    ("trimodal log_pdf(50)", 0xc00e45ccc29564f2),
    ("trimodal log_pdf(10000)", 0xc12170bfd8d37c4e),
    ("ties bic", 0xc09bfac419609dcc),
    ("ties bic weighted", 0xc09bfac419609dcc),
    ("ties log_pdf(0)", 0xc042456bde4aaf8c),
    ("ties log_pdf(12)", 0xc008b3d52c0ee080),
    ("ties log_pdf(50)", 0xc0765c1254e80894),
    ("ties log_pdf(10000)", 0xc17710a9314a4331),
];
