//! Thread-scaling of the parallel Monte-Carlo engine on a fixed Fig. 7
//! configuration.
//!
//! Sweeps worker counts {1, 2, max} over the same seeded workload and
//! prints a trials/sec line per count, so `cargo bench` doubles as a
//! thread-scaling report.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tomo_bench::BENCH_SEED;
use tomo_par::Executor;
use tomo_sim::fig7::{self, Fig7Config};

fn scaling_config() -> Fig7Config {
    Fig7Config {
        num_systems: 1,
        trials_per_system: 40,
        max_attackers: 3,
        bins: 10,
    }
}

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1];
    if max >= 2 {
        counts.push(2);
    }
    if max > 2 {
        counts.push(max);
    }
    counts
}

fn bench_par_scaling(c: &mut Criterion) {
    let config = scaling_config();

    // One-shot trials/sec report per worker count (both topology families
    // run, so the workload is 2 × trials_per_system LP-backed trials).
    let trials = 2 * config.trials_per_system;
    for &threads in &thread_counts() {
        let exec = Executor::new(threads);
        let start = Instant::now();
        fig7::run(BENCH_SEED, &config, &exec).expect("fig7 runs");
        let secs = start.elapsed().as_secs_f64();
        println!(
            "par_scaling: {threads} thread(s): {trials} trials in {secs:.3} s \
             ({:.1} trials/sec)",
            trials as f64 / secs
        );
    }

    let mut group = c.benchmark_group("par_scaling");
    group.sample_size(10);
    for threads in thread_counts() {
        let exec = Executor::new(threads);
        group.bench_function(&format!("fig7_quick_{threads}_threads"), |b| {
            b.iter(|| fig7::run(black_box(BENCH_SEED), &config, &exec).expect("fig7 runs"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_scaling);
criterion_main!(benches);
