//! §6.2 / §7 placement performance: the Eq. (6)-(9) optimizer and the HRG
//! topology-aware path on a fragmented 82-GPU cluster, plus one HRG
//! placement at fleet scale (4,064 GPUs, 4,000 of them forbidden — the
//! last spawn of a 1,000-replica deployment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use flexpipe_cluster::{BackgroundProfile, BackgroundTenants, Cluster, ClusterSpec, GpuId};
use flexpipe_core::{AllocationOptimizer, AllocationParams, Hrg, HrgParams, StageNeed};
use flexpipe_model::{even_layer_ranges, zoo, CostModel};
use flexpipe_sim::{SimRng, SimTime};

fn fragmented_cluster() -> Cluster {
    let mut cluster = Cluster::new(ClusterSpec::paper_testbed());
    let mut bg = BackgroundTenants::new(BackgroundProfile::testbed_like(), SimRng::seed(7));
    bg.populate(&mut cluster);
    cluster
}

fn needs(stages: u32) -> (flexpipe_model::ModelGraph, CostModel, Vec<StageNeed>) {
    let graph = zoo::opt_66b();
    let cost = CostModel::default();
    let needs = even_layer_ranges(&graph, stages)
        .into_iter()
        .map(|r| StageNeed {
            range: r,
            mem_bytes: cost.stage_mem_bytes(&graph, r, 8),
        })
        .collect();
    (graph, cost, needs)
}

fn bench_optimizer(c: &mut Criterion) {
    let cluster = fragmented_cluster();
    let opt = AllocationOptimizer::new(AllocationParams::default());
    let candidates: Vec<_> = cluster.topology().gpus().iter().map(|g| g.id).collect();
    let mut group = c.benchmark_group("allocation_assign");
    for stages in [4u32, 8, 16] {
        let (graph, cost, stage_needs) = needs(stages);
        group.bench_with_input(BenchmarkId::from_parameter(stages), &stages, |b, _| {
            b.iter(|| {
                opt.assign(
                    black_box(&cluster),
                    &graph,
                    &cost,
                    0.6,
                    &stage_needs,
                    &candidates,
                    &[],
                    black_box(2.0),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_hrg(c: &mut Criterion) {
    let cluster = fragmented_cluster();
    let opt = AllocationOptimizer::new(AllocationParams::default());
    let (graph, cost, stage_needs) = needs(8);
    c.bench_function("hrg_place_8_stages", |b| {
        let mut hrg = Hrg::new(HrgParams::default());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            hrg.place(
                black_box(&cluster),
                &graph,
                &cost,
                &opt,
                0.6,
                &stage_needs,
                &[],
                2.0,
                SimTime::from_secs(t),
            )
            .unwrap()
        })
    });
}

fn bench_hrg_fleet(c: &mut Criterion) {
    // The fleet-scale cluster shape: 508 eight-GPU servers, 8 per rack.
    let cluster = Cluster::new(ClusterSpec::heterogeneous("fleet-4064", 508, 4064, 8));
    let opt = AllocationOptimizer::new(AllocationParams::default());
    let (graph, cost, stage_needs) = needs(4);
    let forbidden: Vec<GpuId> = (0..4000).map(GpuId).collect();
    c.bench_function("hrg_place_fleet_4064_gpus_4000_forbidden", |b| {
        let mut hrg = Hrg::new(HrgParams::default());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            hrg.place(
                black_box(&cluster),
                &graph,
                &cost,
                &opt,
                0.6,
                &stage_needs,
                black_box(&forbidden),
                2.0,
                SimTime::from_secs(t),
            )
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_optimizer, bench_hrg, bench_hrg_fleet);
criterion_main!(benches);
