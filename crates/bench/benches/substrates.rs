//! Performance benches for the substrates: dense linear algebra, the
//! simplex solver, topology generation, path machinery, and the
//! end-to-end attack LP.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::strategy;
use tomo_core::fig1;
use tomo_core::placement::{random_placement, PlacementConfig};
use tomo_graph::{isp, rgg, shortest};
use tomo_linalg::lstsq::NormalEquationsSolver;
use tomo_linalg::{Matrix, Vector};
use tomo_lp::{LpProblem, Objective, Relation};

fn random_routing_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    loop {
        let m = Matrix::from_fn(rows, cols, |_, _| if rng.gen_bool(0.3) { 1.0 } else { 0.0 });
        if tomo_linalg::rank::rank(&m) == cols {
            return m;
        }
    }
}

fn bench_linalg(c: &mut Criterion) {
    let r = random_routing_matrix(180, 120, 7);
    let y: Vector = (0..180).map(|i| (i as f64).sin() * 20.0 + 25.0).collect();

    c.bench_function("linalg/lstsq_qr_180x120", |b| {
        b.iter(|| tomo_linalg::lstsq::solve(black_box(&r), black_box(&y)).unwrap());
    });
    c.bench_function("linalg/normal_equations_factor_180x120", |b| {
        b.iter(|| NormalEquationsSolver::new(black_box(r.clone())).unwrap());
    });
    let solver = NormalEquationsSolver::new(r.clone()).unwrap();
    c.bench_function("linalg/normal_equations_solve_180x120", |b| {
        b.iter(|| solver.solve(black_box(&y)).unwrap());
    });
    c.bench_function("linalg/pivoted_qr_rank_180x120", |b| {
        b.iter(|| tomo_linalg::rank::rank(black_box(&r)));
    });
}

fn bench_lp(c: &mut Criterion) {
    // A representative attack-shaped LP: 60 capped variables, 40
    // dense-ish inequality constraints.
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let build = |rng: &mut ChaCha8Rng| {
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<_> = (0..60)
            .map(|i| lp.add_variable(format!("m{i}"), 0.0, Some(2000.0)).unwrap())
            .collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        for _ in 0..40 {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.4) {
                    terms.push((v, rng.gen_range(-0.5..1.0)));
                }
            }
            let rel = if rng.gen_bool(0.5) {
                Relation::Le
            } else {
                Relation::Ge
            };
            lp.add_constraint(&terms, rel, rng.gen_range(-200.0..800.0))
                .unwrap();
        }
        lp
    };
    let instance = build(&mut rng);
    c.bench_function("lp/simplex_60v_40c", |b| {
        b.iter(|| black_box(&instance).solve().unwrap());
    });
}

fn bench_graph(c: &mut Criterion) {
    c.bench_function("graph/isp_generate_100", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            isp::generate(&isp::IspConfig::default(), &mut rng).unwrap()
        });
    });
    c.bench_function("graph/rgg_generate_100", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            rgg::RggConfig::default().generate(&mut rng).unwrap()
        });
    });
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let g = isp::generate(&isp::IspConfig::default(), &mut rng).unwrap();
    let a = tomo_graph::NodeId(0);
    let z = tomo_graph::NodeId(g.num_nodes() - 1);
    c.bench_function("graph/yen_8_shortest", |b| {
        b.iter(|| shortest::yen_k_shortest(black_box(&g), a, z, 8).unwrap());
    });
    // Placement's access pattern: every node's paths to one new monitor
    // from one workspace, which finds the distances to the target once.
    let sources: Vec<tomo_graph::NodeId> = g.nodes().filter(|&s| s != z).collect();
    c.bench_function("graph/yen_8_shortest_shared_target", |b| {
        b.iter(|| {
            let mut yen = shortest::KShortest::new(black_box(&g));
            for &s in &sources {
                black_box(yen.paths(s, z, 8).unwrap());
            }
        });
    });
}

fn bench_placement_and_attack(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = isp::generate(&isp::IspConfig::default(), &mut rng).unwrap();
    c.bench_function("core/monitor_placement_isp100", |b| {
        b.iter(|| {
            let mut r = ChaCha8Rng::seed_from_u64(4);
            random_placement(black_box(&g), &PlacementConfig::default(), &mut r).unwrap()
        });
    });

    let system = fig1::fig1_system().unwrap();
    let topo = fig1::fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    let scenario = AttackScenario::paper_defaults();
    let x = Vector::filled(10, 10.0);
    c.bench_function("attack/chosen_victim_fig1", |b| {
        b.iter(|| {
            strategy::chosen_victim(
                black_box(&system),
                &attackers,
                &scenario,
                &x,
                &[topo.paper_link(10)],
            )
            .unwrap()
        });
    });
    c.bench_function("attack/max_damage_fig1", |b| {
        b.iter(|| strategy::max_damage(black_box(&system), &attackers, &scenario, &x).unwrap());
    });
}

criterion_group!(
    benches,
    bench_linalg,
    bench_lp,
    bench_graph,
    bench_placement_and_attack
);
criterion_main!(benches);
