//! Criterion benches for Algorithm 1. The paper bounds it by
//! O(MN log M) (§III-A); the implementation costs O(MN + |A|·L + Σ load),
//! L ≤ M the largest sensor load: the coverage map is the O(MN) part,
//! phase 1 scans A once per load level, and phase 2 takes a minimum over
//! each sensor's detectable targets. The `paper_500x15` cases price what
//! the simulator's cluster repair runs on every target move at Table II
//! scale (500 sensors, 15 targets, 200 m field, 8 m sensing range).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use wrsn_core::{
    balanced_clusters, balanced_clusters_into, balanced_clusters_with, CoverageMap, TargetId,
};
use wrsn_geom::Point2;

fn deployment(n: usize, m: usize, seed: u64) -> (Vec<Point2>, Vec<Point2>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sensors = (0..n)
        .map(|_| Point2::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)))
        .collect();
    let targets = (0..m)
        .map(|_| Point2::new(rng.gen_range(0.0..200.0), rng.gen_range(0.0..200.0)))
        .collect();
    (sensors, targets)
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("balanced_clustering");
    for &(n, m) in &[(100usize, 5usize), (500, 15), (1000, 15), (2000, 30)] {
        let (sensors, targets) = deployment(n, m, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N{n}_M{m}")),
            &(sensors, targets),
            |b, (s, t)| {
                b.iter(|| {
                    let cov = CoverageMap::build(s, t, 8.0);
                    balanced_clusters(&cov)
                })
            },
        );
    }
    group.finish();
}

fn bench_coverage_map_only(c: &mut Criterion) {
    let (sensors, targets) = deployment(500, 15, 3);
    c.bench_function("coverage_map_500x15", |b| {
        b.iter(|| CoverageMap::build(&sensors, &targets, 8.0))
    });
}

/// Alg. 1 alone over a prebuilt map, `A` ascending by id as the
/// simulator's repair passes it.
fn bench_alg1_paper_scale(c: &mut Criterion) {
    let (sensors, targets) = deployment(500, 15, 3);
    let cov = CoverageMap::build(&sensors, &targets, 8.0);
    let a = cov.covering_sensors();
    c.bench_function("balanced_clusters_with/paper_500x15", |b| {
        b.iter(|| balanced_clusters_with(&cov, &a))
    });
}

/// One teleport as the simulator's repair handles it: retarget the moved
/// target on a maintained map (keeping `A` in step), then Alg. 1 into the
/// previous clustering's storage. The target alternates between two
/// positions so every call changes the map.
fn bench_retarget_then_alg1(c: &mut Criterion) {
    let (sensors, targets) = deployment(500, 15, 3);
    let range = 8.0;
    let mut cov = CoverageMap::build(&sensors, &targets, range);
    let grid = CoverageMap::grid_for(&sensors, range);
    let mut covering = cov.covering_sensors();
    let mut query = Vec::new();
    let mut clusters = balanced_clusters_with(&cov, &covering);
    let spots = [targets[0], Point2::new(100.0, 100.0)];
    let mut flip = 0;
    c.bench_function("retarget_then_alg1/paper_500x15", |b| {
        b.iter(|| {
            flip ^= 1;
            cov.retarget(
                TargetId(0),
                &grid,
                spots[flip],
                range,
                &mut query,
                |s, old, new| {
                    if old == 0 {
                        let i = covering.binary_search(&s).unwrap_err();
                        covering.insert(i, s);
                    } else if new == 0 {
                        let i = covering.binary_search(&s).unwrap();
                        covering.remove(i);
                    }
                },
            );
            balanced_clusters_into(&cov, &covering, &mut clusters);
            clusters.len()
        })
    });
}

criterion_group!(
    benches,
    bench_clustering,
    bench_coverage_map_only,
    bench_alg1_paper_scale,
    bench_retarget_then_alg1
);
criterion_main!(benches);
