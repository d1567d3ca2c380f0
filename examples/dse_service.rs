//! A two-tenant DSE sweep over a multi-app × multi-platform matrix, run
//! **twice** against one persistent result store — once cold (every
//! candidate simulated and published) and once warm (served from disk) —
//! to show the cache economics of a shared store. Each (tenant, app,
//! platform) cell is one `explore_with_store` call; a sweep over several
//! platforms is just a loop.
//!
//! Run with `cargo run --release --example dse_service`
//! (add `-- --smoke` for CI-sized workloads).

use std::time::{Duration, Instant};

use svmsyn::app::Application;
use svmsyn::dse::{explore_with_store, DseConfig, DseMethod};
use svmsyn::platform::Platform;
use svmsyn::report::{fmt_cycles, fmt_ratio, placement_code, Table};
use svmsyn::sim::SimConfig;
use svmsyn_store::ResultStore;
use svmsyn_workloads::streaming;

/// What one pass over every cell produced.
struct Pass {
    /// Best feasible point per cell, in (tenant, app, platform) order.
    matrix: Table,
    /// Memo misses answered by the store.
    store_hits: usize,
    /// Memo misses the store could not answer: simulated, then published.
    simulated: usize,
    wall: Duration,
}

fn sweep(
    apps: &[(&str, Application)],
    platforms: &[Platform],
    dse: &DseConfig,
    store: &ResultStore,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        matrix: Table::new(
            "DSE sweep: best point per app x platform",
            &["tenant", "app", "platform", "best", "makespan", "lut"],
        ),
        store_hits: 0,
        simulated: 0,
        wall: Duration::ZERO,
    };
    for (tenant, app) in apps {
        for platform in platforms {
            let r = explore_with_store(app, platform, dse, Some(store))
                .expect("every cell has a feasible point");
            println!(
                "  {tenant}/{} on {}: evaluated {} ({} cached)",
                app.name,
                platform.name,
                r.evaluated,
                r.cache_hits + r.store_hits
            );
            pass.store_hits += r.store_hits;
            pass.simulated += r.store_misses;
            pass.matrix.row_owned(vec![
                tenant.to_string(),
                app.name.clone(),
                platform.name.clone(),
                placement_code(&r.best.placements),
                fmt_cycles(r.best.makespan.0),
                r.best.resources.lut.to_string(),
            ]);
        }
    }
    pass.wall = start.elapsed();
    pass
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: u64 = if smoke { 64 } else { 1024 };
    let dse = DseConfig {
        method: DseMethod::Exhaustive,
        sim: SimConfig {
            quantum: 50_000,
            ..SimConfig::default()
        },
        threads: 1,
        ..DseConfig::default()
    };
    // tenant-b resubmits tenant-a's first app: with one shared store the
    // duplicate is answered from cache even on the cold pass.
    let apps = [
        ("tenant-a", streaming::vecadd(n, 1).app),
        ("tenant-a", streaming::saxpy(n, 1).app),
        ("tenant-b", streaming::fanout_vecadd(2, n / 2, 1).app),
        ("tenant-b", streaming::vecadd(n, 1).app),
    ];
    // Platform axis: the big and small parts, plus the big part with a
    // deeper outstanding-miss queue on the hardware-thread MEMIF. The
    // rename is display-only — fingerprints ignore the cosmetic name.
    let mut deep = Platform::default().with_miss_depth(8);
    deep.name = "zynq7020-deep-miss".into();
    let platforms = [Platform::default(), Platform::small(), deep];

    let root = std::env::temp_dir().join(format!("svmsyn-dse-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ResultStore::open(&root).expect("open store");

    println!("== Cold sweep (empty store at {}) ==", root.display());
    let cold = sweep(&apps, &platforms, &dse, &store);
    println!("\n== Warm sweep (same store) ==");
    let warm = sweep(&apps, &platforms, &dse, &store);

    println!("\n{}", warm.matrix);
    let warm_served = warm.store_hits as f64 / (warm.store_hits + warm.simulated).max(1) as f64;
    println!(
        "cold: {:.2?} wall, {} simulated and published, {} store hits",
        cold.wall, cold.simulated, cold.store_hits
    );
    println!(
        "warm: {:.2?} wall, {} store hits / {} misses ({} store-served)",
        warm.wall,
        warm.store_hits,
        warm.simulated,
        fmt_ratio(warm_served)
    );
    if warm.wall.as_nanos() > 0 {
        println!(
            "warm-vs-cold wall speedup: {}",
            fmt_ratio(cold.wall.as_secs_f64() / warm.wall.as_secs_f64())
        );
    }

    // The contract this example exists to demonstrate: overlap between
    // cells is served from the shared store even on the cold pass, and a
    // repeat sweep is ≥95% store-served and renders the identical matrix.
    assert!(
        cold.store_hits > 0,
        "tenant-b's duplicate app must be served from the store"
    );
    assert!(
        warm_served >= 0.95,
        "warm sweep must be served from the store"
    );
    assert_eq!(
        warm.matrix.to_string(),
        cold.matrix.to_string(),
        "warm and cold sweeps must agree on the result matrix"
    );
    println!("warm sweep bit-identical to cold: OK");

    let _ = std::fs::remove_dir_all(&root);
}
