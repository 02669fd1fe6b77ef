//! Differential oracle for the placement path.
//!
//! [`reference_assign_biased`] and [`reference_place`] are the original
//! quadratic scans: `forbidden` is probed with `Vec::contains` for every
//! candidate, taken devices with a second `Vec::contains`, and the HRG
//! bias is evaluated per candidate GPU through [`Hrg::bias`]. The
//! production path masks forbidden devices once and evaluates the bias
//! once per server; on every seeded case below both must return the same
//! assignment, with `score` and `imbalance` equal bit for bit, and leave
//! the same HRG markers behind.

use super::*;
use crate::allocation::AllocationParams;
use flexpipe_cluster::ClusterSpec;
use flexpipe_model::{even_layer_ranges, zoo};

#[allow(clippy::too_many_arguments)]
fn reference_assign_biased(
    opt: &AllocationOptimizer,
    cluster: &Cluster,
    graph: &ModelGraph,
    cost: &CostModel,
    interference_coeff: f64,
    needs: &[StageNeed],
    candidates: &[GpuId],
    forbidden: &[GpuId],
    cv: f64,
    bias: &dyn Fn(GpuId) -> f64,
) -> Option<Assignment> {
    let usable: Vec<GpuId> = candidates
        .iter()
        .copied()
        .filter(|g| !forbidden.contains(g))
        .collect();
    if usable.len() < needs.len() {
        return None;
    }
    let mut order: Vec<usize> = (0..needs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(needs[i].mem_bytes));
    let mut chosen: Vec<Option<GpuId>> = vec![None; needs.len()];
    let mut taken: Vec<GpuId> = Vec::new();
    for &i in &order {
        let best = usable
            .iter()
            .copied()
            .filter(|g| !taken.contains(g))
            .filter_map(|g| {
                opt.score_one(cluster, interference_coeff, &needs[i], g, cv)
                    .map(|s| (s + bias(g), g))
            })
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)));
        let (_, g) = best?;
        chosen[i] = Some(g);
        taken.push(g);
    }
    let mut gpus: Vec<GpuId> = chosen.into_iter().map(|c| c.expect("placed")).collect();

    let score_of = |gpus: &[GpuId]| -> Option<f64> {
        let mut total = 0.0;
        for (need, &g) in needs.iter().zip(gpus) {
            total += opt.score_one(cluster, interference_coeff, need, g, cv)? + bias(g);
        }
        Some(total)
    };
    let mut best_score = score_of(&gpus)?;
    let mut improved = true;
    while improved {
        improved = false;
        for a in 0..gpus.len() {
            for b in (a + 1)..gpus.len() {
                gpus.swap(a, b);
                match score_of(&gpus) {
                    Some(s) if s > best_score + 1e-12 => {
                        best_score = s;
                        improved = true;
                    }
                    _ => gpus.swap(a, b),
                }
            }
        }
    }

    let throughputs: Vec<f64> = needs
        .iter()
        .zip(&gpus)
        .map(|(need, &g)| {
            let load = cluster.load(g);
            let slowdown = 1.0 + interference_coeff * load.bg_sm;
            let compute = cost.stage_compute(graph, need.range, 1024).as_secs_f64() * slowdown;
            1.0 / compute
        })
        .collect();
    let max_t = throughputs.iter().cloned().fold(f64::MIN, f64::max);
    let min_t = throughputs.iter().cloned().fold(f64::MAX, f64::min);
    let imbalance = if min_t > 0.0 {
        max_t / min_t - 1.0
    } else {
        f64::INFINITY
    };
    Some(Assignment {
        gpus,
        score: best_score,
        imbalance,
    })
}

#[allow(clippy::too_many_arguments)]
fn reference_place(
    hrg: &mut Hrg,
    cluster: &Cluster,
    graph: &ModelGraph,
    cost: &CostModel,
    optimizer: &AllocationOptimizer,
    interference_coeff: f64,
    needs: &[StageNeed],
    forbidden: &[GpuId],
    cv: f64,
    now: SimTime,
) -> Option<Assignment> {
    let candidates: Vec<GpuId> = cluster.topology().gpus().iter().map(|g| g.id).collect();
    let assignment = reference_assign_biased(
        optimizer,
        cluster,
        graph,
        cost,
        interference_coeff,
        needs,
        &candidates,
        forbidden,
        cv,
        &|g| hrg.bias(cluster, g, now),
    )?;
    for &g in &assignment.gpus {
        let server = cluster.topology().gpu(g).server;
        hrg.record_scaling(cluster, server, now);
        hrg.record_hosting(server, now);
    }
    Some(assignment)
}

/// SplitMix64: a dependency-free seeded stream for case generation.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        flexpipe_sim::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The HRG's marker state in a canonical order, floats as raw bits.
type Markers = (
    Vec<(ServerId, SimTime, u64)>,
    Vec<(RackId, SimTime, u64)>,
    Vec<(ServerId, SimTime)>,
);

fn markers(hrg: &Hrg) -> Markers {
    let mut servers: Vec<_> = hrg
        .server_events
        .iter()
        .map(|(&s, &(t, v))| (s, t, v.to_bits()))
        .collect();
    servers.sort_unstable();
    let mut racks: Vec<_> = hrg
        .rack_events
        .iter()
        .map(|(&r, &(t, v))| (r, t, v.to_bits()))
        .collect();
    racks.sort_unstable();
    let mut hosted: Vec<_> = hrg.hosted.iter().map(|(&s, &t)| (s, t)).collect();
    hosted.sort_unstable();
    (servers, racks, hosted)
}

/// A randomly loaded cluster: background tenants, serving leases and
/// revoked devices on either the paper testbed or 16 eight-GPU servers.
fn random_cluster(rng: &mut SplitMix) -> Cluster {
    let spec = if rng.chance(0.5) {
        ClusterSpec::paper_testbed()
    } else {
        ClusterSpec::heterogeneous("custom-16x8", 16, 128, 4)
    };
    let mut cluster = Cluster::new(spec);
    let cap = cluster.gpu_mem_capacity();
    let n = cluster.topology().gpu_count() as u64;
    let busy = rng.unit();
    for g in 0..n {
        let g = GpuId(g as u32);
        if rng.chance(busy) {
            let mem = (rng.unit() * cap as f64) as u64;
            let services = rng.below(4) as u32;
            cluster.set_background(g, mem, rng.unit(), services);
        }
        if rng.chance(0.1) {
            let free = cluster.free_mem(g);
            if free > 0 {
                let _ = cluster.reserve_gpu(g, rng.below(free));
            }
        }
    }
    for _ in 0..rng.below(n / 8 + 1) {
        cluster.revoke_gpu(GpuId(rng.below(n) as u32));
    }
    cluster
}

/// A random scaling/hosting history ending no later than `now`.
fn random_history(rng: &mut SplitMix, cluster: &Cluster, now: SimTime) -> Hrg {
    let mut hrg = Hrg::new(HrgParams::default());
    let servers = cluster.topology().server_count() as u64;
    let span = now.as_secs_f64();
    for _ in 0..rng.below(3 * servers) {
        let server = ServerId(rng.below(servers) as u32);
        let at = SimTime::from_secs_f64(rng.unit() * span);
        if rng.chance(0.5) {
            hrg.record_scaling(cluster, server, at);
        } else {
            hrg.record_hosting(server, at);
        }
    }
    hrg
}

#[test]
fn linear_place_matches_reference_scan() {
    let cost = CostModel::default();
    let models = [zoo::llama2_7b(), zoo::opt_66b(), zoo::bert_21b()];
    let mut rng = SplitMix(0x5eed_f1e7_91de);
    let (mut placed, mut refused) = (0u32, 0u32);
    for case in 0..600 {
        let cluster = random_cluster(&mut rng);
        let n = cluster.topology().gpu_count() as u64;
        let now = SimTime::from_secs_f64(1.0 + rng.unit() * 600.0);
        let mut hrg = random_history(&mut rng, &cluster, now);
        let mut reference = hrg.clone();
        let optimizer = AllocationOptimizer::new(AllocationParams {
            gamma0: 0.05 + rng.unit() * 0.3,
            ..AllocationParams::default()
        });
        let coeff = rng.unit();
        // Forbidden sets with duplicates and arbitrary order.
        let mut forbidden: Vec<GpuId> = (0..rng.below(n + 1))
            .map(|_| GpuId(rng.below(n) as u32))
            .collect();
        // A few back-to-back placements at the same instant, each adding
        // its devices to the forbidden set, so markers accumulate.
        for _ in 0..1 + rng.below(3) {
            let graph = &models[rng.below(models.len() as u64) as usize];
            let stages = [1u32, 2, 4, 8][rng.below(4) as usize];
            let needs: Vec<StageNeed> = even_layer_ranges(graph, stages)
                .into_iter()
                .map(|r| StageNeed {
                    range: r,
                    mem_bytes: cost.stage_mem_bytes(graph, r, 8),
                })
                .collect();
            let cv = rng.unit() * 8.0;
            let got = hrg.place(
                &cluster, graph, &cost, &optimizer, coeff, &needs, &forbidden, cv, now,
            );
            let want = reference_place(
                &mut reference,
                &cluster,
                graph,
                &cost,
                &optimizer,
                coeff,
                &needs,
                &forbidden,
                cv,
                now,
            );
            match (&got, &want) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.gpus, b.gpus, "case {case}: placements differ");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "case {case}: score");
                    assert_eq!(
                        a.imbalance.to_bits(),
                        b.imbalance.to_bits(),
                        "case {case}: imbalance"
                    );
                    forbidden.extend(&a.gpus);
                    placed += 1;
                }
                (None, None) => refused += 1,
                _ => panic!("case {case}: {got:?} vs reference {want:?}"),
            }
            assert_eq!(markers(&hrg), markers(&reference), "case {case}: markers");
        }
    }
    // The generator must exercise both outcomes, not just one.
    assert!(
        placed > 300 && refused > 50,
        "{placed} placed, {refused} refused"
    );
}
