//! The telemetry layer's cost, on one grid of (case × key) trials on the
//! FSMD tape backend: `grid-uninstrumented` runs the default executor,
//! whose `Obs` handle and progress feed are disabled, and
//! `grid-obs-noop-sink` runs one whose no-op-sink handle keeps every
//! span and counter live. The grid's hooks sit inline in its one loop,
//! each a never-taken branch on a disabled handle, so the disabled-path
//! cost is checked by timing `grid-uninstrumented` on a commit against
//! its parent; `grid-obs-noop-sink` bounds the worst-case cost of
//! leaving instrumentation on.

use bench::locking_key;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rtl::{CompiledFsmd, SimOptions, TestCase};
use sim_core::GridExec;

fn bench_obs_overhead(c: &mut Criterion) {
    let lk = locking_key(0x5eed);
    let b = benchmarks::by_name("sobel").unwrap();
    let m = b.compile().unwrap();
    let d = tao::lock(&m, b.top, &lk, &tao::TaoOptions::default()).unwrap();
    let wk = d.working_key(&lk);
    let stim = &b.stimuli(1, 1)[0];
    let case = TestCase { args: stim.args.clone(), mem_inputs: stim.resolve(&d.module) };
    let ctape = CompiledFsmd::compile(&d.fsmd);
    let mut keys = vec![wk.clone()];
    for i in 1..9u64 {
        keys.push(d.working_key(&locking_key(0x6e1d ^ i)));
    }
    let budget = SimOptions { max_cycles: 2_000_000, snapshot_on_timeout: true };
    let cases = std::slice::from_ref(&case);
    let cycles: u64 = GridExec::sequential()
        .grid(&ctape, cases, &keys, &budget)
        .iter()
        .flatten()
        .map(|r| r.as_ref().unwrap().cycles)
        .sum();

    let mut g = c.benchmark_group("obs-overhead");
    g.throughput(Throughput::Elements(cycles));
    let plain = GridExec::default();
    g.bench_function("grid-uninstrumented", |bench| {
        bench.iter(|| plain.grid(&ctape, cases, &keys, &budget));
    });
    let noop = GridExec::default().with_obs(obs::Obs::noop());
    g.bench_function("grid-obs-noop-sink", |bench| {
        bench.iter(|| noop.grid(&ctape, cases, &keys, &budget));
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
