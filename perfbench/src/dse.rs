//! `dse`: an exhaustive sweep over one four-thread application merged from
//! `small_suite(seed)`'s sobel, matmul, spmv and chase, crossed with
//! MEMIF depths 1 and 4 — 32 design points, evaluated on one worker.
//!
//! The small suite's inputs keep each point's simulation short, so a pass
//! spends its host time in HLS, the DSE evaluator and the store (`suite`
//! measures full-size simulation), and it stays short enough that its
//! fastest pass is steady on a host whose speed changes in phases.
//!
//! Each pass runs the sweep cold against a fresh result store (every point
//! synthesized, simulated and published), then warm on the reopened store
//! (every point read back) several times, since one warm sweep is too short
//! to time. `flow::synthesize` recompiles HLS for every point; the DSE
//! evaluator, memo and fingerprinting, and store writes against reads,
//! work here and nowhere else. The worker pool's fan-out is not measured:
//! with one worker the evaluator runs every point on the calling thread.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use svmsyn::app::{ApplicationBuilder, ArgSpec};
use svmsyn::dse::{explore_with_store, DseConfig, DseMethod, DseResult};
use svmsyn::flow::{synthesize, Placement};
use svmsyn::platform::Platform;
use svmsyn::sim::SimConfig;
use svmsyn_store::ResultStore;
use svmsyn_workloads::{small_suite, Workload};

use crate::trace::Tracer;
use crate::work::{fold, simulate_verified, Work};
use crate::{guarded, inputs_digest, scratch_dir, Bench, PassOut};

const KERNELS: [&str; 4] = ["sobel", "matmul", "spmv", "chase"];
const MEMIF_DEPTHS: [u32; 2] = [1, 4];
/// Warm sweeps per pass: one takes well under a millisecond.
const WARM_SWEEPS: u32 = 16;
/// DSE worker threads. One, so a pass runs on one host core like the other
/// workloads: on a shared two-core host, a sweep fanned out to both cores
/// waits for whichever core is contended. Over five runs of a full-size
/// sweep, the fastest pass spread by 0.146 on two workers and 0.033 on one.
const WORKERS: usize = 1;

pub struct Dse {
    workload: Workload,
    platform: Platform,
    cfg: DseConfig,
    /// Reference makespan of every design point, simulated at set-up.
    reference: BTreeMap<(Vec<bool>, u32), u64>,
    /// Counters of every point's reference run: what a cold sweep
    /// simulates.
    swept: Work,
}

/// Concatenates single-thread workloads into one application, remapping
/// buffer indices.
fn merge(parts: &[Workload]) -> Result<Workload, String> {
    let mut b = ApplicationBuilder::new("dse-merged");
    let mut expected = Vec::new();
    let mut base = 0;
    for w in parts {
        for buf in &w.app.buffers {
            let name = format!("{}.{}", w.name, buf.name);
            b = b.buffer(name, buf.len, buf.init.clone(), buf.populate);
        }
        for t in &w.app.threads {
            if !t.pre.is_empty() || !t.post.is_empty() {
                return Err(format!("{}: merging threads with sync actions", w.name));
            }
            let args = t
                .args
                .iter()
                .map(|a| match *a {
                    ArgSpec::Buffer(i, off) => ArgSpec::Buffer(base + i, off),
                    v => v,
                })
                .collect();
            let name = format!("{}.{}", w.name, t.name);
            b = b.thread(name, t.kernel.clone(), args, t.hw_eligible);
        }
        expected.extend(w.expected.iter().map(|(i, e)| (base + i, e.clone())));
        base += w.app.buffers.len();
    }
    Ok(Workload {
        name: "dse-merged".into(),
        app: b.build().map_err(|e| e.to_string())?,
        expected,
    })
}

fn is_hw(placements: &[Placement]) -> Vec<bool> {
    placements
        .iter()
        .map(|&p| p == Placement::Hardware)
        .collect()
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Dse, String> {
    let parts: Vec<Workload> = small_suite(seed)
        .into_iter()
        .filter(|w| KERNELS.contains(&w.name.as_str()))
        .collect();
    let workload = merge(&parts)?;
    let platform = Platform::default();
    let cfg = DseConfig {
        method: DseMethod::Exhaustive,
        sim: SimConfig::default(),
        threads: WORKERS,
        memif_axis: MEMIF_DEPTHS.to_vec(),
        ..DseConfig::default()
    };
    // Reference runs: every point simulated and verified on its own.
    let mut reference = BTreeMap::new();
    let mut swept = Work::default();
    let threads = workload.app.threads.len();
    for depth in MEMIF_DEPTHS {
        let variant = platform.with_miss_depth(depth);
        for mask in 0..1u32 << threads {
            let placements: Vec<Placement> = (0..threads)
                .map(|t| match mask >> t & 1 {
                    1 => Placement::Hardware,
                    _ => Placement::Software,
                })
                .collect();
            let design = tr
                .time("flow.synthesize", || {
                    synthesize(&workload.app, &variant, &placements)
                })
                .map_err(|e| format!("dse point {mask:#x}/{depth}: synthesize: {e}"))?;
            let run = simulate_verified(tr, &design, &cfg.sim, &workload)?;
            reference.insert((is_hw(&placements), depth), run.work.get("makespan_cycles"));
            swept.merge(&run.work);
        }
    }
    Ok(Dse {
        workload,
        platform,
        cfg,
        reference,
        swept,
    })
}

impl Dse {
    fn sweep(
        &self,
        tr: &mut Tracer,
        store: &ResultStore,
        label: &str,
    ) -> Result<(DseResult, f64), String> {
        let start = Instant::now();
        let r = tr
            .time("dse.explore", || {
                explore_with_store(&self.workload.app, &self.platform, &self.cfg, Some(store))
            })
            .map_err(|e| format!("{label} sweep: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        if !r.panics.is_empty() {
            return Err(format!(
                "{label} sweep: {} evaluations panicked",
                r.panics.len()
            ));
        }
        if r.feasible.len() != self.reference.len() {
            return Err(format!(
                "{label} sweep: {} feasible points, {} expected",
                r.feasible.len(),
                self.reference.len()
            ));
        }
        for p in &r.feasible {
            let want = self.reference.get(&(is_hw(&p.placements), p.miss_depth));
            if want != Some(&p.makespan.0) {
                return Err(format!(
                    "{label} sweep: point {:?}/{} makespan {} differs from its reference run",
                    p.placements, p.miss_depth, p.makespan.0
                ));
            }
        }
        Ok((r, secs))
    }

    fn open(&self, tr: &mut Tracer, root: &Path) -> Result<ResultStore, String> {
        tr.time("store.open", || ResultStore::open(root))
            .map_err(|e| format!("store open: {e}"))
    }
}

/// A fresh store directory per pass.
fn store_root(pass: u32) -> PathBuf {
    scratch_dir().join(format!("store-{}-{pass}", std::process::id()))
}

fn add_sweep(work: &mut Work, r: &DseResult, cold: bool) {
    if cold {
        work.add("dse.cold_store_hits", r.store_hits as u64);
    } else {
        work.add("dse.warm_store_misses", r.store_misses as u64);
    }
    work.add("dse.evaluated", r.evaluated as u64);
    work.add("dse.memo_hits", r.cache_hits as u64);
    work.add("dse.store_hits", r.store_hits as u64);
    work.add("dse.store_misses", r.store_misses as u64);
    work.add("dse.panics", r.panics.len() as u64);
}

impl Bench for Dse {
    fn pass(&self, tr: &mut Tracer, out: &mut PassOut, pass: u32) {
        let root = store_root(pass);
        let _ = std::fs::remove_dir_all(&root);

        // Cold: a fresh store, every point simulated and published.
        let cold = guarded(|| {
            let store = self.open(tr, &root)?;
            let (r, secs) = self.sweep(tr, &store, "cold")?;
            let s = store.stats();
            if r.store_hits != 0 || s.hits != 0 {
                return Err(format!(
                    "cold sweep: {} store hits on a fresh store",
                    s.hits
                ));
            }
            if s.published != self.reference.len() as u64 {
                return Err(format!("cold sweep: published {} points", s.published));
            }
            Ok((r, secs, s))
        });
        let Some((cold, cold_secs, cold_stats)) = out.record(cold) else {
            return;
        };
        add_sweep(&mut out.work, &cold, true);
        out.work.add("store.published", cold_stats.published);
        out.work
            .add("store.bytes_written", cold_stats.bytes_written);
        out.work.add("store.corrupt", cold_stats.corrupt);
        // What the cold sweep simulated, counted once per pass.
        out.work.add("sweep.instrs", self.swept.instrs());
        out.work
            .add("sweep.cycles", self.swept.get("makespan_cycles"));
        out.timings.insert("sweep_cold_s", cold_secs);
        out.timings.insert(
            "dse.points_per_s",
            cold.evaluated as f64 / cold_secs.max(f64::MIN_POSITIVE),
        );

        // Warm: the reopened store answers every point.
        let Some(store) = out.record(self.open(tr, &root)) else {
            return;
        };
        let mut warm_secs = Vec::new();
        for _ in 0..WARM_SWEEPS {
            let warm = guarded(|| {
                let (r, secs) = self.sweep(tr, &store, "warm")?;
                if r.store_misses != 0 {
                    return Err(format!("warm sweep: {} store misses", r.store_misses));
                }
                if r.best != cold.best {
                    return Err("warm sweep: best point differs from the cold sweep".into());
                }
                Ok((r, secs))
            });
            if let Some((r, secs)) = out.record(warm) {
                add_sweep(&mut out.work, &r, false);
                warm_secs.push(secs);
            }
        }
        let s = store.stats();
        out.work.add("store.hits", s.hits);
        out.work.add("store.bytes_read", s.bytes_read);
        out.work.add("store.corrupt", s.corrupt);
        out.timings
            .insert("sweep_warm_s", crate::stats::median(&warm_secs));

        // The best point, re-simulated, verifies against the merged
        // expected bytes and reproduces the sweep's makespan.
        let best = guarded(|| {
            let b = &cold.best;
            let design = tr
                .time("flow.synthesize", || {
                    synthesize(
                        &self.workload.app,
                        &self.platform.with_miss_depth(b.miss_depth),
                        &b.placements,
                    )
                })
                .map_err(|e| format!("best point: synthesize: {e}"))?;
            let run = simulate_verified(tr, &design, &self.cfg.sim, &self.workload)?;
            let makespan = run.work.get("makespan_cycles");
            if makespan != b.makespan.0 {
                return Err(format!(
                    "best point: re-simulated makespan {makespan} differs from the sweep's {}",
                    b.makespan.0
                ));
            }
            Ok(run)
        });
        if let Some(run) = out.record(best) {
            out.work.merge(&run.work);
            out.digest = fold(out.digest, run.digest);
        }
    }

    fn cleanup(&self, pass: u32) {
        let _ = std::fs::remove_dir_all(store_root(pass));
    }

    fn inputs(&self) -> u64 {
        inputs_digest(&self.workload)
    }
}
