//! perfbench — the repository's benchmark. Runs one named workload from a
//! seed, checks every output, and prints each metric by name with its
//! unit; the last line of standard output is one JSON object.
//!
//! ```text
//! perfbench --workload <lock-flow|key-sweep|sat-corpus|sat-window>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop in one process: one item at a time,
//! with `GridExec::default()` inside the program as the only parallelism.
//! Set-up runs several times and reports its median; the timed phase then
//! runs whole passes over the workload's items for about `--seconds`.
//! End-to-end times are corrected for the host's speed (see `host`).
//! `--trace 0` reports the end-to-end metrics. `--trace 1` adds
//! one traced pass and a layer probe, and reports the per-layer metrics
//! and the tracing overhead. The first pass's items, with their times and
//! outcomes, go to standard error.

mod flow;
mod gen;
mod host;
mod report;
mod workloads;

use flow::Counts;
use obs::{ChromeTraceSink, Obs};
use report::{Layers, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Inputs, Kind, Spec};

/// Set-up repetitions of an untraced run, at least, and the set-up time
/// they fill, at least; `setup_s` is their median.
const SETUP_REPS: usize = 11;
const SETUP_MIN_S: f64 = 1.5;
/// Host reference samples taken before each set-up to correct its time.
const SETUP_SAMPLES: usize = 9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Item times and outcomes of one or more passes.
#[derive(Default)]
struct Phase {
    ms: Vec<f64>,
    /// Per item of the pass, its host-corrected time in each pass.
    item_ms: Vec<Vec<f64>>,
    wall_s: f64,
    /// Host-corrected items per second of each pass.
    pass_rates: Vec<f64>,
    /// The host's slowness over each pass (`host::slowness`).
    slowness: Vec<f64>,
    failed: usize,
    decided: usize,
    /// Work counts of the first pass.
    counts: Counts,
    /// SAT items: (design index, unroll depth the attack ended at).
    depths: Vec<(usize, u32)>,
    /// Peak resident set after set-up and the first pass.
    rss_mb: Option<f64>,
}

/// One pass over every item, sampling the host's speed between items. A
/// failed check, an error or a panic fails the item and is counted, never
/// fatal. `log` prints each item to standard error.
fn run_pass(obs: &Obs, spec: &Spec, inputs: &Inputs, log: bool, probe: &mut host::Probe) -> Phase {
    let mut pass = Phase::default();
    let mut wall = 0.0;
    for i in 0..workloads::items(spec) {
        probe.tick();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            workloads::run_item(obs, spec, inputs, i, &mut pass.counts)
        }));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        wall += ms / 1e3;
        pass.ms.push(ms);
        let mut note = String::new();
        match out {
            Ok(Ok(r)) => {
                pass.decided += usize::from(r.decided);
                pass.depths.extend(r.depth.map(|k| (i, k)));
                note = r.note;
            }
            Ok(Err(e)) => {
                pass.failed += 1;
                eprintln!("perfbench: item {i} failed: {e}");
            }
            Err(_) => {
                pass.failed += 1;
                eprintln!("perfbench: item {i} panicked");
            }
        }
        if log {
            eprintln!("item {i:>3} {ms:>10.3} ms  {note}");
        }
    }
    // The items' own times: the reference samples between them are left out.
    pass.wall_s = wall;
    pass.slowness.push(probe.slowness());
    pass
}

/// Whole passes until another would end more than half a pass after
/// `seconds` (at least one pass). Items repeat across passes, and so must
/// their work counts.
fn timed_phase(spec: &Spec, inputs: &Inputs, seconds: f64) -> Result<Phase, String> {
    let mut phase = Phase { item_ms: vec![Vec::new(); workloads::items(spec)], ..Phase::default() };
    let mut probe = host::Probe::default();
    let start = Instant::now();
    for n in 0.. {
        let pass = run_pass(&Obs::off(), spec, inputs, n == 0, &mut probe);
        let slowness = pass.slowness[0];
        for (times, &ms) in phase.item_ms.iter_mut().zip(&pass.ms) {
            times.push(ms / slowness);
        }
        if n == 0 {
            phase.counts = pass.counts;
            // Later passes repeat the same items; reading the high-water
            // mark here keeps allocator drift over passes out of it.
            phase.rss_mb = report::peak_rss_mb();
        } else if pass.failed == 0 && phase.failed == 0 {
            drift("pass 1", &phase.counts, &format!("pass {}", n + 1), &pass.counts)?;
        }
        phase.pass_rates.push(pass.ms.len() as f64 / pass.wall_s * slowness);
        phase.slowness.push(slowness);
        phase.ms.extend(pass.ms);
        phase.failed += pass.failed;
        phase.decided += pass.decided;
        if start.elapsed().as_secs_f64() + pass.wall_s / 2.0 >= seconds {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok(phase)
}

/// Fails loudly when two runs of the same work counted differently.
fn drift(a_name: &str, a: &Counts, b_name: &str, b: &Counts) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .collect();
    Err(format!("determinism drift between {a_name} and {b_name}: {}", diffs.join(", ")))
}

/// Compares this run's counts with an earlier run of the same binary,
/// workload, seed and trace mode, recorded next to the binary.
fn check_earlier_run(args: &Args, counts: &Counts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading the binary: {e}"))?;
    let hash = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    let dir = exe.parent().expect("the binary has a directory").join("perfbench-counts");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-{}-t{}-{hash:016x}.txt",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => {
            let lines: std::collections::BTreeSet<&str> = text.lines().collect();
            let was: Vec<&str> = earlier.lines().filter(|l| !lines.contains(l)).collect();
            Err(format!(
                "determinism drift against an earlier run of this binary and seed ({}): was {:?}",
                path.display(),
                was
            ))
        }
        Err(_) => std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display())),
    }
}

fn merge(into: &mut Counts, from: &Counts) {
    for (k, v) in from {
        flow::add(into, k, *v);
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let kind = args.kind;
    let spec = workloads::generate(kind, args.seed);
    let sink = Arc::new(ChromeTraceSink::new());
    let traced = if args.trace { Obs::new(sink.clone()) } else { Obs::off() };

    // Set-up: several untraced repetitions for `setup_s`, or one traced.
    let (min_reps, min_s) = if args.trace { (1, 0.0) } else { (SETUP_REPS, SETUP_MIN_S) };
    let (mut setup_s, mut counts, mut inputs) = (Vec::new(), Counts::new(), None);
    let setup_start = Instant::now();
    while setup_s.len() < min_reps || setup_start.elapsed().as_secs_f64() < min_s {
        let rep = setup_s.len();
        drop(inputs.take());
        let mut c = Counts::new();
        let slowness = host::slowness(&host::sample(SETUP_SAMPLES));
        let t0 = Instant::now();
        let built = workloads::setup(&traced, &spec, &mut c)?;
        setup_s.push(t0.elapsed().as_secs_f64() / slowness);
        if rep > 0 {
            drift("set-up 1", &counts, &format!("set-up {}", rep + 1), &c)?;
        }
        counts = c;
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    let phase = timed_phase(&spec, &inputs, args.seconds)?;
    let attempted = phase.ms.len();
    let items_per_s = report::median(&phase.pass_rates);
    let mut failed = phase.failed;
    let mut out = format!(
        "perfbench {} seed={} seconds={} trace={}\n{} items per pass, {attempted} items in {:.3} s\n",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::items(&spec),
        phase.wall_s,
    );

    let metrics = if !args.trace {
        merge(&mut counts, &phase.counts);
        let (tail_ms, tail_what) = match report::tail(&phase.ms) {
            Some((ms, pct)) => (ms, format!("p{pct:.1} of n={attempted} items")),
            None => (0.0, format!("n/a: n={attempted} items, fewer than 20")),
        };
        let decided = if kind.attacks() {
            format!(
                "{:.4} ({}/{attempted} attacks collapsed the key space)",
                phase.decided as f64 / attempted as f64,
                phase.decided
            )
        } else {
            "n/a (no attacks)".into()
        };
        let mut metrics = vec![
            Metric::new(
                "items_per_s",
                "1/s",
                items_per_s,
                "median over passes of items completed per second (host-corrected)",
            ),
            Metric::new(
                "item_geomean_ms",
                "ms",
                report::geomean_of_medians(&phase.item_ms),
                "geometric mean over the pass's items of each item's median time (host-corrected)",
            ),
            Metric::new(
                "setup_s",
                "s",
                report::median(&setup_s),
                format!("median of {} set-ups (host-corrected)", setup_s.len()),
            ),
        ];
        if let Some(mb) = phase.rss_mb {
            metrics.push(Metric::new("peak_rss_mb", "MB", mb, "VmHWM after set-up and pass 1"));
        }
        out += &report::table("end-to-end", &metrics);
        let slowness = report::median(&phase.slowness);
        out += &format!(
            "  {:<28} {:>16.4}        host slowness: median over passes of reference time / nominal\n",
            "host_slowness", slowness
        );
        out += &format!(
            "  {:<28} {:>16.4} 1/s    items_per_s as measured, before correction\n",
            "items_per_s_raw",
            items_per_s / slowness
        );
        out += &format!(
            "  {:<28} {:>16.4} ms     median time per item, as measured\n",
            "item_p50_ms",
            report::median(&phase.ms)
        );
        out += &format!("  {:<28} {tail_ms:>16.4} ms     {tail_what}\n", "item_tail_ms");
        out += &format!(
            "  {:<28} {:>16.4}        ({failed}/{attempted} items failed)\n",
            "fail_frac",
            failed as f64 / attempted as f64
        );
        out += &format!("  {:<28} {decided}\n", "decided_frac");
        if phase.rss_mb.is_none() {
            out += "  peak_rss_mb                  n/a off Linux\n";
        }
        metrics
    } else {
        // One traced pass: same items, spans on; its counts must equal the
        // untraced pass's.
        let pass = run_pass(&traced, &spec, &inputs, false, &mut host::Probe::default());
        failed += pass.failed;
        if pass.failed == 0 && phase.failed == 0 {
            drift("the untraced pass", &phase.counts, "the traced pass", &pass.counts)?;
        }
        let overhead = (pass.ms.len() as f64 / pass.wall_s * pass.slowness[0]) / items_per_s;
        merge(&mut counts, &pass.counts);
        for &(i, k) in &pass.depths {
            flow::encode_miter(&traced, &inputs.designs[i].sim, k, &mut counts);
        }
        let own;
        let d = match inputs.designs.first() {
            Some(d) => d,
            None => {
                own = workloads::first_design(&traced, &spec, &mut counts)?;
                &own
            }
        };
        flow::probe(&traced, d, kind != Kind::KeySweep, args.seed, &mut counts)?;
        if !kind.attacks() {
            let (pd, k) = workloads::probe_attack(&traced, args.seed, &mut counts)?;
            flow::encode_miter(&traced, &pd.sim, k, &mut counts);
        }
        drop(traced);
        let trace = obs::analyze::parse_trace(&sink.to_json())?;
        let attr = obs::analyze::attribution(&trace);
        let metrics = layer_metrics(&Layers { attr: &attr, counts: &counts }, overhead);
        out += &report::table("per-layer (traced run: set-up, one pass, layer probe)", &metrics);
        metrics
    };
    if failed == 0 {
        check_earlier_run(&args, &counts)?;
    }
    let attempted = attempted + if args.trace { workloads::items(&spec) } else { 0 };
    print!("{out}");
    println!("{}", report::json(failed == 0, attempted, failed, &metrics));
    Ok(())
}

/// The per-layer table: each metric with its unit and the call it times.
fn layer_metrics(l: &Layers, overhead: f64) -> Vec<Metric> {
    vec![
        Metric::new(
            "frontend.compile_ms",
            "ms",
            l.mean_ms("frontend.compile"),
            "per hls_frontend compile (Benchmark::compile / compile)",
        ),
        Metric::new(
            "ir.prepare_ms",
            "ms",
            l.mean_ms("ir.prepare"),
            "per hls_core::prepare (inline + IR passes)",
        ),
        Metric::new(
            "ir.instrs",
            "count",
            l.count("ir.instrs"),
            "IR instructions of every prepared module built",
        ),
        Metric::new(
            "ir.golden_ms",
            "ms",
            l.mean_ms("ir.golden_outputs"),
            "per rtl::golden_outputs (IR interpreter)",
        ),
        Metric::new(
            "core.schedule_bind_ms",
            "ms",
            l.mean_ms("core.schedule_and_bind"),
            "per hls_core::schedule_and_bind",
        ),
        Metric::new("core.fsmd_ms", "ms", l.mean_ms("core.build_fsmd"), "per hls_core::build_fsmd"),
        Metric::new("core.emit_ms", "ms", l.mean_ms("core.emit"), "per hls_core::verilog::emit"),
        Metric::new(
            "core.verilog_kb",
            "kB",
            l.count("core.verilog_bytes") / 1024.0,
            "Verilog text emitted",
        ),
        Metric::new(
            "tao.lock_ms",
            "ms",
            l.mean_ms("tao.lock_from_baseline"),
            "per tao::lock_from_baseline",
        ),
        Metric::new(
            "tao.key_bits",
            "count",
            l.count("tao.key_bits"),
            "working-key bits of every design locked",
        ),
        Metric::new(
            "vlog.elaborate_ms",
            "ms",
            l.mean_ms("vlog.elaborate"),
            "per vlog::VlogSim::new (parse + elaborate)",
        ),
        Metric::new(
            "vlog.tape_compile_ms",
            "ms",
            l.mean_ms("vlog.tape_compile"),
            "per vlog::VlogTape::compile",
        ),
        Metric::new(
            "vlog.tape_cycles_per_s",
            "1/s",
            l.rate("vlog.tape_cycles", "vlog.tape_run"),
            "cycles/s of vlog::TapeRunner::run_case (probe)",
        ),
        Metric::new(
            "rtl.tape_compile_ms",
            "ms",
            l.mean_ms("rtl.tape_compile"),
            "per rtl::CompiledFsmd::compile",
        ),
        Metric::new(
            "rtl.spec_bind_us",
            "us",
            (l.mean_ms("rtl.spec_bind_run") - l.mean_ms("rtl.spec_steady_run")) * 1e3,
            "SpecRunner::run_case on a new key minus a steady run (probe)",
        ),
        Metric::new(
            "rtl.tape_cycles_per_s",
            "1/s",
            l.rate("rtl.tape_cycles", "rtl.tape_run"),
            "cycles/s of rtl::FsmdRunner::run_case (probe)",
        ),
        Metric::new(
            "rtl.spec_cycles_per_s",
            "1/s",
            l.rate("rtl.spec_cycles", "rtl.spec_steady_run"),
            "cycles/s of steady SpecRunner::run_case (probe)",
        ),
        Metric::new(
            "grid.trials_per_s",
            "1/s",
            l.rate("grid.trials", "grid.parallel"),
            "(case x key) trials/s of GridExec::default().grid (probe)",
        ),
        Metric::new(
            "grid.speedup",
            "ratio",
            l.total_s("grid.sequential") / l.total_s("grid.parallel"),
            "GridExec::sequential() time / GridExec::default() time, same trials",
        ),
        Metric::new(
            "verify.comparisons_per_s",
            "1/s",
            l.rate("verify.comparisons", "verify.differential_verify"),
            "(case x key) comparisons/s of tao::differential_verify",
        ),
        Metric::new(
            "verify.timeouts",
            "count",
            l.count("verify.timeouts"),
            "differential runs cut off by the cycle budget",
        ),
        Metric::new(
            "attack.encode_ms",
            "ms",
            l.mean_ms("attack.encode_miter"),
            "per Encoder::new + fresh_inputs + 2 KeyLits::fresh + 2 unroll at the attack's k",
        ),
        Metric::new(
            "attack.encode_clauses_per_s",
            "1/s",
            l.rate("attack.encode_clauses", "attack.encode_miter"),
            "clauses/s of that encoding",
        ),
        Metric::new(
            "attack.miter_vars",
            "count",
            l.count("attack.miter_vars"),
            "CNF variables at the end of every attack",
        ),
        Metric::new(
            "attack.miter_clauses",
            "count",
            l.count("attack.miter_clauses"),
            "CNF clauses at the end of every attack",
        ),
        Metric::new("attack.dips", "count", l.count("attack.dips"), "distinguishing inputs found"),
        Metric::new("attack.growths", "count", l.count("attack.growths"), "lazy unroll growths"),
        Metric::new(
            "attack.decided_frac",
            "ratio",
            l.count("attack.decided") / l.count("attack.attacks"),
            "attacks that collapsed the key space / attacks",
        ),
        Metric::new(
            "attack.model_ms",
            "ms",
            l.per_attack_ms("attack.model"),
            "attack.model span (final model solve) per attack",
        ),
        Metric::new(
            "attack.oracle_ms",
            "ms",
            l.per_attack_ms("attack.oracle"),
            "attack.oracle span per attack",
        ),
        Metric::new(
            "attack.grow_ms",
            "ms",
            l.per_attack_ms("attack.grow"),
            "attack.grow span per attack",
        ),
        Metric::new(
            "attack.constrain_ms",
            "ms",
            l.per_attack_ms("attack.constrain"),
            "attack.constrain span per attack",
        ),
        Metric::new(
            "attack.sat_ms",
            "ms",
            l.per_attack_ms("attack.sat_attack_design"),
            "per tao::sat_attack_design",
        ),
        Metric::new(
            "sat.conflicts",
            "count",
            l.count("sat.conflicts"),
            "solver conflicts over every attack",
        ),
        Metric::new(
            "sat.propagations",
            "count",
            l.count("sat.propagations"),
            "solver propagations over every attack",
        ),
        Metric::new(
            "sat.solve_ms",
            "ms",
            l.per_attack_ms("sat.solve"),
            "sat.solve spans per attack",
        ),
        Metric::new(
            "sat.props_per_s",
            "1/s",
            l.rate("sat.propagations", "sat.solve"),
            "propagations per second inside sat.solve",
        ),
        Metric::new("trace.overhead", "ratio", overhead, "traced / untraced items_per_s"),
    ]
}
