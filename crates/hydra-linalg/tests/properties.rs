//! Property-based tests for the numeric substrate.

use hydra_linalg::dense::Mat;
use hydra_linalg::kernels::{kernel_matrix, Kernel, PackedExpansion};
use hydra_linalg::sparse::CsrBuilder;
use hydra_linalg::stats::{lq_pooling, max_pooling, sigmoid};
use hydra_linalg::vec_ops;
use hydra_linalg::{bicgstab, BiCgStabOptions, Lu, SmoOptions, SmoSolver};
use proptest::prelude::*;

/// Bounded finite floats that keep the numerics honest without overflow.
fn small_f64() -> impl Strategy<Value = f64> {
    (-100.0..100.0f64).prop_map(|v| f64::round(v * 1000.0) / 1000.0)
}

fn histogram(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..1.0f64, len).prop_map(|mut v| {
        vec_ops::normalize_l1(&mut v);
        v
    })
}

proptest! {
    #[test]
    fn dot_is_commutative(x in proptest::collection::vec(small_f64(), 1..20)) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        prop_assert!((vec_ops::dot(&x, &y) - vec_ops::dot(&y, &x)).abs() < 1e-9);
    }

    #[test]
    fn norm2_triangle_inequality(
        x in proptest::collection::vec(small_f64(), 5),
        y in proptest::collection::vec(small_f64(), 5),
    ) {
        let sum = vec_ops::add(&x, &y);
        prop_assert!(vec_ops::norm2(&sum) <= vec_ops::norm2(&x) + vec_ops::norm2(&y) + 1e-9);
    }

    #[test]
    fn sq_dist_zero_iff_equal(x in proptest::collection::vec(small_f64(), 1..10)) {
        prop_assert_eq!(vec_ops::sq_dist(&x, &x), 0.0);
    }

    #[test]
    fn normalize_l1_is_simplex(mut v in proptest::collection::vec(0.0..10.0f64, 1..12)) {
        vec_ops::normalize_l1(&mut v);
        let s: f64 = v.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rbf_kernel_bounded_and_symmetric(
        x in proptest::collection::vec(small_f64(), 4),
        y in proptest::collection::vec(small_f64(), 4),
        gamma in 0.01..5.0f64,
    ) {
        let k = Kernel::Rbf { gamma };
        let v = k.eval(&x, &y);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((v - k.eval(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn chi_square_in_unit_interval_on_histograms(
        x in histogram(6),
        y in histogram(6),
    ) {
        let v = Kernel::ChiSquare.eval(&x, &y);
        prop_assert!((-1e-12..=1.0 + 1e-9).contains(&v), "chi² out of range: {v}");
        prop_assert!((v - Kernel::ChiSquare.eval(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn hist_intersection_bounds_and_self_identity(
        x in histogram(5),
        y in histogram(5),
    ) {
        let k = Kernel::HistIntersection;
        let v = k.eval(&x, &y);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
        prop_assert!((k.eval(&x, &x) - 1.0).abs() < 1e-9);
        // Intersection never exceeds either self-similarity.
        prop_assert!(v <= 1.0 + 1e-9);
    }

    #[test]
    fn packed_expansion_sum_is_bitwise_the_row_at_a_time_loop(
        n in 0usize..40,
        dim in 1usize..50,
        pool in proptest::collection::vec(0.0..1.0f64, 40 * 50),
        x_pool in proptest::collection::vec(0.0..1.0f64, 50),
        coef_pool in proptest::collection::vec((0u8..3, -2.0..2.0f64), 40),
        init in -3.0..3.0f64,
        gamma in 0.05..4.0f64,
    ) {
        // Similarities in [0, 1] with exact zeros (the chi-square arm
        // branches on them); a third of the coefficients exactly zero;
        // n < 8, n % 8 != 0 and n == 0 all occur.
        let sparse = |v: f64| if v < 0.2 { 0.0 } else { v };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|a| pool[a * dim..(a + 1) * dim].iter().map(|&v| sparse(v)).collect())
            .collect();
        let x: Vec<f64> = x_pool[..dim].iter().map(|&v| sparse(v)).collect();
        let coef: Vec<f64> = coef_pool[..n]
            .iter()
            .map(|&(tag, c)| if tag == 0 { 0.0 } else { c })
            .collect();
        let packed = PackedExpansion::pack(coef.iter().copied().zip(rows.iter().map(Vec::as_slice)));
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma },
            Kernel::ChiSquare,
            Kernel::HistIntersection,
        ] {
            let mut reference = init;
            for (a, row) in rows.iter().enumerate() {
                if coef[a] != 0.0 {
                    reference += coef[a] * kernel.eval(row, &x);
                }
            }
            prop_assert_eq!(
                packed.sum(kernel, init, &x).to_bits(),
                reference.to_bits(),
                "{:?} n={} dim={}", kernel, n, dim
            );
        }
    }

    #[test]
    fn lu_solve_roundtrip(
        diag in proptest::collection::vec(1.0..10.0f64, 3..8),
        off in proptest::collection::vec(-0.4..0.4f64, 64),
        b_seed in proptest::collection::vec(small_f64(), 8),
    ) {
        let n = diag.len();
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    a[(i, j)] = diag[i] + n as f64; // dominance ⇒ nonsingular
                } else {
                    a[(i, j)] = off[(i * n + j) % off.len()];
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| b_seed[i % b_seed.len()]).collect();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (u, v) in r.iter().zip(b.iter()) {
            prop_assert!((u - v).abs() < 1e-7, "residual {} vs {}", u, v);
        }
    }

    #[test]
    fn bicgstab_matches_lu_on_diagonally_dominant_systems(
        diag in proptest::collection::vec(1.0..10.0f64, 3..24),
        off in proptest::collection::vec(-1.0..1.0f64, 96),
        b_seed in proptest::collection::vec(small_f64(), 8),
        dominance in 1.5..20.0f64,
    ) {
        // Non-symmetric, diagonally dominant ⇒ nonsingular; `dominance`
        // sweeps the conditioning from comfortable to tight.
        let n = diag.len();
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    a[(i, j)] = diag[i] + dominance * n as f64;
                } else {
                    a[(i, j)] = off[(i * 13 + j * 7) % off.len()];
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| b_seed[i % b_seed.len()]).collect();
        let x_lu = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let sol = bicgstab(
            |v| a.matvec(v).unwrap(),
            &b,
            None,
            BiCgStabOptions { max_iter: 0, tol: 1e-12 },
        )
        .unwrap();
        let scale = 1.0 + vec_ops::norm2(&x_lu);
        for (u, v) in sol.x.iter().zip(x_lu.iter()) {
            prop_assert!((u - v).abs() / scale < 1e-7, "bicgstab/lu mismatch: {} vs {}", u, v);
        }
    }

    #[test]
    fn bicgstab_matches_lu_on_laplacian_times_kernel_systems(
        rows in proptest::collection::vec(proptest::collection::vec(0.0..1.0f64, 4), 4..32),
        edges in proptest::collection::vec((0usize..32, 0usize..32, 0.05..1.0f64), 1..40),
        rbf_gamma in 0.1..2.0f64,
        gamma_l in 0.005..0.1f64,
        gamma_m in 1e-6..1e-3f64,
        b_seed in proptest::collection::vec(small_f64(), 6),
    ) {
        // The exact operator shape of Eq. 15: A = 2γ_L·I + 2γ_M·(D−M)·K with
        // a symmetric sparse affinity matrix M and an RBF Gram matrix K.
        // γ_L/γ_M sweep the conditioning regime the MOO solver sees.
        let n = rows.len();
        let mut builder = CsrBuilder::new(n, n);
        for &(r, c, w) in &edges {
            let (r, c) = (r % n, c % n);
            if r != c {
                builder.push(r, c, w);
                builder.push(c, r, w);
            }
        }
        let m = builder.build();
        let degrees = m.row_sums();
        let k = kernel_matrix(Kernel::Rbf { gamma: rbf_gamma }, &rows);
        let scale = 2.0 * gamma_m;

        // Dense reference: materialize A and factorize.
        let mut a = m.to_dense();
        a.scale(-1.0);
        for i in 0..n {
            a[(i, i)] += degrees[i];
        }
        let mut a = a.matmul(&k).unwrap();
        a.scale(scale);
        a.shift_diag(2.0 * gamma_l);
        let b: Vec<f64> = (0..n).map(|i| b_seed[i % b_seed.len()]).collect();
        let x_lu = Lu::factor(&a).unwrap().solve(&b).unwrap();

        // Matrix-free: A·x = 2γ_L·x + scale·L·(K·x), never materialized.
        let apply = |x: &[f64]| {
            let kx = k.matvec(x).unwrap();
            let mut out = m.laplacian_matvec(&degrees, &kx).unwrap();
            for (o, xi) in out.iter_mut().zip(x.iter()) {
                *o = 2.0 * gamma_l * xi + scale * *o;
            }
            out
        };
        let sol = bicgstab(apply, &b, None, BiCgStabOptions { max_iter: 0, tol: 1e-12 }).unwrap();
        let scale_x = 1.0 + vec_ops::norm2(&x_lu);
        for (u, v) in sol.x.iter().zip(x_lu.iter()) {
            prop_assert!(
                (u - v).abs() / scale_x < 1e-6,
                "matrix-free Eq. 15 solve drifted: {} vs {}", u, v
            );
        }
    }

    #[test]
    fn csr_matvec_matches_dense(
        entries in proptest::collection::vec((0usize..6, 0usize..6, small_f64()), 0..24),
        x in proptest::collection::vec(small_f64(), 6),
    ) {
        let mut b = CsrBuilder::new(6, 6);
        for &(r, c, v) in &entries {
            b.push(r, c, v);
        }
        let m = b.build();
        let dense = m.to_dense();
        let y1 = m.matvec(&x).unwrap();
        let y2 = dense.matvec(&x).unwrap();
        for (u, v) in y1.iter().zip(y2.iter()) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_laplacian_annihilates_constants(
        entries in proptest::collection::vec((0usize..5, 0usize..5, 0.0..2.0f64), 1..20),
    ) {
        let mut b = CsrBuilder::new(5, 5);
        for &(r, c, v) in &entries {
            b.push(r, c, v);
        }
        let m = b.build();
        let d = m.row_sums();
        let y = m.laplacian_matvec(&d, &[1.0; 5]).unwrap();
        for v in y {
            prop_assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn sigmoid_monotone_and_bounded(
        a in -50.0..50.0f64,
        b in -50.0..50.0f64,
        lambda in 0.01..10.0f64,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sl = sigmoid(lo, lambda);
        let sh = sigmoid(hi, lambda);
        prop_assert!(sl <= sh + 1e-12);
        prop_assert!((0.0..=1.0).contains(&sl) && (0.0..=1.0).contains(&sh));
    }

    #[test]
    fn lq_pooling_bounded_by_mean_and_max(
        signals in proptest::collection::vec(0.0..1.0f64, 1..16),
        q in 1.0..32.0f64,
    ) {
        let v = lq_pooling(&signals, q);
        let mean = signals.iter().sum::<f64>() / signals.len() as f64;
        let mx = max_pooling(&signals);
        prop_assert!(v <= mean + 1e-9, "pooled {v} above mean {mean}");
        prop_assert!(v >= mx - 1e-9, "pooled {v} below max-pool {mx}");
    }

    #[test]
    fn smo_respects_constraints(
        seeds in proptest::collection::vec(small_f64(), 8..16),
    ) {
        // Build a tiny labeled problem from arbitrary 1-d points.
        let n = seeds.len();
        let xs: Vec<Vec<f64>> = seeds.iter().map(|&s| vec![s]).collect();
        let ys: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let mut q = hydra_linalg::kernels::kernel_matrix(Kernel::Rbf { gamma: 0.3 }, &xs);
        for i in 0..n {
            for j in 0..n {
                q[(i, j)] *= ys[i] * ys[j];
            }
        }
        let r = SmoSolver::new(&q, &ys, SmoOptions { c: 1.0, tol: 1e-6, ..Default::default() })
            .unwrap()
            .solve()
            .unwrap();
        let balance: f64 = r.beta.iter().zip(ys.iter()).map(|(b, y)| b * y).sum();
        prop_assert!(balance.abs() < 1e-8);
        prop_assert!(r.beta.iter().all(|&b| (-1e-12..=1.0 + 1e-12).contains(&b)));
    }
}
