//! **Figure 7** — the HW/SW partitioning Pareto front: fabric area vs
//! application makespan for a six-thread mixed application, with the
//! heuristic searches compared against the exhaustive optimum.
//!
//! Run with `cargo run --release -p svmsyn-bench --bin fig7_dse`.

use svmsyn::app::{Application, ApplicationBuilder, ArgSpec};
use svmsyn::dse::{explore, DseConfig, DseMethod};
use svmsyn::platform::Platform;
use svmsyn::report::{fmt_cycles, placement_code, Table};
use svmsyn::sim::SimConfig;
use svmsyn_workloads::{
    histogram::histogram, matmul::matmul, oesort::oesort, sobel::sobel, spmv::spmv,
    streaming::vecadd,
};

/// Merges single-thread workload apps into one multi-threaded application
/// (buffer indices shifted per thread).
fn mixed_app() -> Application {
    let parts = vec![
        vecadd(2048, 11).app,
        matmul(16, 12).app,
        sobel(48, 32, 13).app,
        histogram(2048, 14).app,
        spmv(256, 6, 15).app,
        oesort(96, 16).app,
    ];
    let mut builder = ApplicationBuilder::new("mixed");
    let mut buf_base = 0usize;
    let mut threads = Vec::new();
    for app in &parts {
        for b in &app.buffers {
            builder = builder.buffer(b.name.clone(), b.len, b.init.clone(), b.populate);
        }
        for t in &app.threads {
            let args = t
                .args
                .iter()
                .map(|a| match a {
                    ArgSpec::Buffer(i, off) => ArgSpec::Buffer(i + buf_base, *off),
                    ArgSpec::Value(v) => ArgSpec::Value(*v),
                })
                .collect::<Vec<_>>();
            threads.push((t.name.clone(), t.kernel.clone(), args));
        }
        buf_base += app.buffers.len();
    }
    for (i, (_, kernel, args)) in threads.into_iter().enumerate() {
        builder = builder.thread(format!("t{i}"), kernel, args, true);
    }
    builder.build().expect("mixed app")
}

fn main() {
    let app = mixed_app();
    // A budget tight enough that all-hardware does not trivially fit.
    let platform = Platform::small();
    let sim = SimConfig {
        quantum: 50_000,
        ..SimConfig::default()
    };

    let exhaustive = explore(
        &app,
        &platform,
        &DseConfig {
            method: DseMethod::Exhaustive,
            sim,
            ..DseConfig::default()
        },
    )
    .expect("exhaustive DSE");

    let mut t = Table::new(
        "Figure 7: area/makespan Pareto front (6-thread mixed app, small fabric)",
        &["placement", "LUT", "BRAM", "makespan", "vs all-SW"],
    );
    let all_sw = exhaustive
        .feasible
        .iter()
        .find(|p| p.resources.lut == 0)
        .expect("all-SW point");
    for p in &exhaustive.pareto {
        t.row_owned(vec![
            placement_code(&p.placements),
            p.resources.lut.to_string(),
            p.resources.bram36.to_string(),
            fmt_cycles(p.makespan.0),
            format!("{:.2}x", all_sw.makespan.0 as f64 / p.makespan.0 as f64),
        ]);
    }
    println!("{t}");

    let greedy = explore(
        &app,
        &platform,
        &DseConfig {
            method: DseMethod::Greedy,
            sim,
            ..DseConfig::default()
        },
    )
    .expect("greedy DSE");
    let anneal = explore(
        &app,
        &platform,
        &DseConfig {
            method: DseMethod::Anneal { iters: 24, seed: 7 },
            sim,
            ..DseConfig::default()
        },
    )
    .expect("annealing DSE");
    let mut cmp = Table::new(
        "Search-method comparison",
        &["method", "evaluations", "best makespan", "gap to optimum"],
    );
    for (name, r) in [
        ("exhaustive", &exhaustive),
        ("greedy", &greedy),
        ("anneal", &anneal),
    ] {
        cmp.row_owned(vec![
            name.into(),
            r.evaluated.to_string(),
            fmt_cycles(r.best.makespan.0),
            format!(
                "{:.1}%",
                100.0 * (r.best.makespan.0 as f64 / exhaustive.best.makespan.0 as f64 - 1.0)
            ),
        ]);
    }
    println!("{cmp}");
}
