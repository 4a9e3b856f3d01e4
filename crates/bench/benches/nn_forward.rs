//! Component microbench: forward-pass latency of the policy networks (the
//! unit of work every inference fault campaign multiplies).

use criterion::{criterion_group, criterion_main, Criterion};
use navft_nn::{mlp, C3f2Config, EngineConfig, ForwardTrace, NoHooks, Scratch, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0);
    let grid_policy = mlp(&[100, 32, 4], &mut rng);
    let scaled = C3f2Config::scaled().build(&mut rng);

    let mut group = c.benchmark_group("nn_forward");
    group.bench_function("grid_mlp_forward", |b| {
        let x = Tensor::full(&[100], 0.1);
        b.iter(|| grid_policy.forward(&x));
    });
    group.bench_function("grid_mlp_forward_scratch", |b| {
        let x = Tensor::full(&[100], 0.1);
        let mut scratch = Scratch::new();
        b.iter(|| grid_policy.forward_scratch(&x, &mut scratch, &mut NoHooks).len());
    });
    group.bench_function("c3f2_scaled_forward", |b| {
        let x = Tensor::full(&C3f2Config::scaled().input_shape(), 0.3);
        b.iter(|| scaled.forward(&x));
    });
    group.bench_function("c3f2_scaled_forward_scratch", |b| {
        let x = Tensor::full(&C3f2Config::scaled().input_shape(), 0.3);
        let mut scratch = Scratch::new();
        b.iter(|| scaled.forward_scratch(&x, &mut scratch, &mut NoHooks).len());
    });
    group.bench_function("c3f2_scaled_traced_forward_and_fc_backward", |b| {
        let config = C3f2Config::scaled();
        let mut net = config.build(&mut rng);
        let x = Tensor::full(&config.input_shape(), 0.3);
        let mut trace = ForwardTrace::new();
        b.iter(|| {
            net.forward_traced_into(&x, &mut trace, EngineConfig::default());
            let grad = vec![0.01f32; 25];
            net.backward_tail(&mut trace, &grad, 0.001, config.first_fc_layer())
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
