//! `reproduce` — regenerates every table and figure of the TAO paper.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all
//! cargo run --release -p bench --bin reproduce -- table1 fig6 freq cycles \
//!     validate keymgmt ablate-bi ablate-c ablate-swap
//! ```

use bench::format::*;
use bench::*;

/// Every dispatchable experiment name (plus the `all` expander).
const KNOWN: &[&str] = &[
    "table1",
    "fig6",
    "freq",
    "cycles",
    "validate",
    "keymgmt",
    "ablate-bi",
    "ablate-c",
    "ablate-swap",
    "ablate-alloc",
    "attack",
    "unroll",
    "report",
    "dse",
    "dse-smoke",
    "vlog-diff",
    "sim-bench",
    "sim-bench-smoke",
    "analyze",
    "analyze-smoke",
    "grid-smoke",
    "profile",
    "profile-smoke",
    "sat-attack",
    "sat-smoke",
    "chaos-smoke",
    "all",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `profile <kernel>` consumes its operand before dispatch. An operand
    // that names no kernel is an error, not a silent fall-through to the
    // default (which used to profile sobel *and* re-dispatch the operand
    // as a bogus experiment).
    let mut profile_kernel_name = String::from("sobel");
    let mut profile_out_path = String::from("target/trace.json");
    if let Some(i) = args.iter().position(|a| a == "profile") {
        match args.get(i + 1) {
            Some(name) if benchmarks::by_name(name).is_some() => {
                profile_kernel_name = name.clone();
                args.remove(i + 1);
                // Optional second operand: the trace output path
                // (`profile gsm target/gsm.json`). Any token that is not
                // another experiment name is the path.
                if let Some(out) = args.get(i + 1) {
                    if !KNOWN.contains(&out.as_str()) {
                        profile_out_path = out.clone();
                        args.remove(i + 1);
                    }
                }
            }
            // Next token is another experiment (or absent): keep default.
            Some(name) if KNOWN.contains(&name.as_str()) => {}
            None => {}
            Some(name) => {
                let kernels: Vec<&str> = benchmarks::all().iter().map(|b| b.name).collect();
                eprintln!("unknown profile kernel `{name}`");
                eprintln!("known kernels: {}", kernels.join(" "));
                std::process::exit(2);
            }
        }
    }
    // `analyze <trace.json>` likewise consumes its operand (default:
    // where `profile` writes).
    let mut analyze_path = String::from("target/trace.json");
    if let Some(i) = args.iter().position(|a| a == "analyze") {
        if let Some(path) = args.get(i + 1) {
            if !KNOWN.contains(&path.as_str()) {
                analyze_path = path.clone();
                args.remove(i + 1);
            }
        }
    }
    const ALL: &[&str] = &[
        "table1",
        "fig6",
        "freq",
        "cycles",
        "validate",
        "keymgmt",
        "ablate-bi",
        "ablate-c",
        "ablate-swap",
        "ablate-alloc",
        "attack",
        "unroll",
        "report",
        "vlog-diff",
        "dse-smoke",
        "sat-attack",
    ];
    // `all` expands in place, keeping any explicitly named experiments
    // around it (it used to silently drop them).
    let wanted: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        let mut w: Vec<&str> = Vec::new();
        for a in &args {
            if a == "all" {
                for e in ALL {
                    if !w.contains(e) {
                        w.push(e);
                    }
                }
            } else if !w.contains(&a.as_str()) {
                w.push(a.as_str());
            }
        }
        w
    };
    if let Some(bad) = wanted.iter().find(|w| !KNOWN.contains(w)) {
        eprintln!("unknown experiment `{bad}`");
        eprintln!("known: {}", KNOWN.join(" "));
        std::process::exit(2);
    }

    for what in wanted {
        let t0 = std::time::Instant::now();
        match what {
            "table1" => println!("{}", render_table1(&table1())),
            "fig6" => println!("{}", render_fig6(&fig6())),
            "freq" => println!("{}", render_freq(&freq())),
            "cycles" => println!("{}", render_cycles(&cycles())),
            "validate" => {
                // The paper's protocol: 100 random 256-bit locking keys per
                // benchmark, one of which is correct.
                println!("{}", render_validation(&validate(100)));
            }
            "keymgmt" => println!("{}", render_keymgmt(&keymgmt())),
            "ablate-bi" => println!("{}", render_ablate_bi(&ablate_bi())),
            "ablate-c" => println!("{}", render_ablate_c(&ablate_c())),
            "ablate-swap" => println!("{}", render_ablate_swap(&ablate_swap(40))),
            "ablate-alloc" => println!("{}", render_ablate_alloc(&ablate_alloc())),
            "attack" => println!("{}", render_attack(&attack())),
            "report" => {
                for r in reports() {
                    println!("{r}");
                }
            }
            "unroll" => {
                let tables: Vec<_> = [1u32, 2, 4].iter().map(|&f| unroll_table(f)).collect();
                println!("{}", render_unroll(&tables));
            }
            "dse" => {
                // The design-space exploration extension: 3 kernels × 18
                // configurations, evaluated in parallel, Pareto-extracted.
                let t0 = std::time::Instant::now();
                let report = dse_sweep().expect("dse sweep");
                let secs = t0.elapsed().as_secs_f64();
                println!("{report}");
                println!(
                    "evaluated {} points in {:.1}s ({:.1} points/s, {} threads)",
                    report.points.len(),
                    secs,
                    report.points.len() as f64 / secs,
                    report.threads
                );
                let path = "target/dse_sweep.jsonl";
                match std::fs::write(path, report.to_jsonl() + "\n") {
                    Ok(()) => println!("wrote {path}"),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
            "dse-smoke" => {
                // CI-sized sweep: one kernel, <= 8 points.
                let report = smoke_sweep().expect("dse smoke sweep");
                println!("{report}");
                assert!(report.points.iter().all(|p| p.correct), "smoke sweep must sign off");
            }
            "sat-attack" => {
                // The SAT-based oracle-guided attack (the literature's
                // canonical adversary) vs the branch enumeration, on the
                // attack-kernel corpus under per-technique locks. Grants
                // the oracle the paper's threat model denies; the point
                // is a *measured* effort number per technique.
                let mut rows = sat_attack_rows();
                // The paper-scale attempt: viterbi's full lock head-on,
                // under an explicit effort ceiling — either it recovers
                // or the exhaustion row records the effort frontier
                // (cause, depth reached, constraints retained).
                let (paper_row, frontier) = sat_attack_paper_attempt();
                rows.push(paper_row);
                println!("{}", render_sat_attack(&rows));
                println!("{frontier}\n");
                // Acceptance: constants+branches locks must be recovered
                // bit-exact on at least three kernels.
                let exact_cb = rows
                    .iter()
                    .filter(|r| r.plan == "cb-" && r.recovered() && r.cmp.sat.key_exact)
                    .count();
                assert!(exact_cb >= 3, "only {exact_cb} cb- kernels recovered exactly");
                assert!(
                    rows.iter().filter(|r| r.recovered()).all(|r| r.cmp.sat.key_functional),
                    "every collapsed key space must yield an unlocking key"
                );
            }
            "sat-smoke" => {
                // CI-sized SAT-attack check: one kernel, tight budgets,
                // asserts exact working-key recovery.
                println!("{}", sat_attack_smoke());
            }
            "vlog-diff" => {
                // Three-way differential: all five kernels, correct key +
                // 8 wrong keys, interpreter vs FSMD sim vs emitted Verilog.
                let rows = vlog_diff(8);
                println!("{}", render_vlogdiff(&rows));
                assert!(vlog_diff_clean(&rows), "differential verification failed: {rows:?}");
            }
            "sim-bench" | "sim-bench-smoke" => {
                // Simulator throughput (the smoke size runs two kernels),
                // gated by the two floors, each a ratio of two
                // measurements taken in this process.
                let rows = if what == "sim-bench" { sim_bench() } else { sim_bench_smoke() };
                println!("{}", render_sim_bench(&rows));
                let violations: Vec<String> =
                    [check_floor(&rows, VLOG_TAPE_FLOOR), check_grid_floor(&rows, GRID_FLOOR)]
                        .into_iter()
                        .filter_map(Result::err)
                        .flatten()
                        .collect();
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("FLOOR VIOLATION: {v}");
                    }
                    std::process::exit(1);
                }
            }
            "profile" => {
                // One instrumented pass over grid + SAT + DSE with the
                // obs telemetry layer on, exported as a Chrome trace
                // (chrome://tracing or ui.perfetto.dev) plus the metric
                // registry's summary table.
                let progress = obs::ProgressTracker::new(obs::StderrTicker::default());
                let rep = profile_kernel(&profile_kernel_name, false, progress);
                let path = &profile_out_path;
                if let Some(dir) = std::path::Path::new(path).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                std::fs::write(path, &rep.trace_json)
                    .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
                println!("{}", rep.summary);
                println!(
                    "profile[{}]: {} grid trials, {} DIPs, {} DSE points",
                    rep.kernel, rep.grid_trials, rep.sat_dips, rep.dse_points
                );
                println!("wrote {path} (load in chrome://tracing or ui.perfetto.dev)");
                // Trace intelligence rides along: attribute the trace we
                // just wrote instead of making the user re-invoke.
                match analyze_trace_file(std::path::Path::new(path)) {
                    Ok(a) => {
                        println!("{}", a.report);
                        println!("wrote {} and {}", a.folded_path.display(), a.svg_path.display());
                    }
                    Err(e) => eprintln!("trace analysis failed: {e}"),
                }
            }
            "analyze" => {
                // Trace intelligence: span attribution, critical path,
                // worker utilization, collapsed stacks + SVG flamegraph
                // from a recorded `profile` trace.
                match analyze_trace_file(std::path::Path::new(&analyze_path)) {
                    Ok(a) => {
                        println!("{}", a.report);
                        println!("wrote {} and {}", a.folded_path.display(), a.svg_path.display());
                    }
                    Err(e) => {
                        eprintln!("analyze failed: {e}");
                        eprintln!("(record a trace first: reproduce -- profile <kernel>)");
                        std::process::exit(1);
                    }
                }
            }
            "analyze-smoke" => {
                // CI gate: profile gsm at smoke size, analyze the trace,
                // assert critical path / utilization / SVG / folded
                // round-trip.
                println!("{}", analyze_smoke());
            }
            "profile-smoke" => {
                // CI gate: tight-budget profile pass; asserts the trace
                // is well-formed and covers grid, SAT and DSE spans.
                println!("{}", profile_smoke());
            }
            "chaos-smoke" => {
                // CI robustness gate: deterministic fault injection over
                // grid, SAT, attack and DSE — panics isolated per slot,
                // cancellation drains to consistent partial results, the
                // process never aborts.
                println!("{}", chaos_smoke());
            }
            "grid-smoke" => {
                // CI determinism gate: a small parallel (case × key)
                // sweep on ≥2 workers must match the sequential grid
                // bit for bit.
                println!("{}", grid_smoke());
            }
            other => unreachable!("`{other}` passed the KNOWN check"),
        }
        // The stdout tables stay diffable; the timing row goes to stderr.
        let rss = peak_rss_mb().map_or("n/a".to_string(), |mb| format!("{mb:.0} MB"));
        eprintln!("[{what}] {:.1} s, peak RSS {rss}", t0.elapsed().as_secs_f64());
    }
}

/// The process's peak resident set (`VmHWM`) in MB so far; `None` off
/// Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
