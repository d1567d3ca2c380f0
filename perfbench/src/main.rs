//! The toolflow benchmark: one command that runs a workload from a seed,
//! checks every output, and prints each metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|pressure|dse --seed N --seconds S --trace 0|1
//! ```
//!
//! The load is closed-loop from one process: the next pass starts when the
//! previous one has finished and been verified. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` alternates untraced and
//! traced passes and reports per-layer metrics from the traced ones, plus
//! the tracing overhead. See `perfbench/README.md` for what each workload
//! and metric is for.

mod dse;
mod pressure;
mod stats;
mod suite;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use svmsyn_snap::Fnv1a;
use svmsyn_workloads::Workload;

use stats::{least, median, ratio, tail};
use trace::{Tracer, Unit};
use work::Work;

/// Share of a run's measured time spent repeating the set-up. Host speed
/// on a shared machine changes in phases lasting seconds to minutes, so
/// set-up rounds are interleaved with the passes over the whole run, not
/// run back to back, and `setup_s` takes the same statistic as the passes:
/// the fastest.
const SETUP_SHARE: f64 = 1.0 / 3.0;
/// A run measures at least this many passes and set-up rounds, so the
/// pass tail has ten samples beyond it.
const MIN_SAMPLES: usize = 11;

/// One workload, set up and ready to run passes.
trait Bench {
    /// Runs one verified pass over the workload's run set.
    fn pass(&self, tr: &mut Tracer, out: &mut PassOut, pass: u32);
    /// Digest of the generated inputs.
    fn inputs(&self) -> u64;
    /// Removes what a pass left on disk (outside the timed region).
    fn cleanup(&self, _pass: u32) {}
}

/// What one pass did.
#[derive(Default)]
struct PassOut {
    work: Work,
    digest: u64,
    attempted: u64,
    failures: Vec<String>,
    /// Host timings a workload takes inside its pass (seconds or rates).
    timings: BTreeMap<&'static str, f64>,
}

impl PassOut {
    /// Counts one attempted operation and, if it failed, the failure.
    fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.failures.push(e)).ok()
    }
}

/// Runs an operation, turning a panic into a counted failure.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Digest of a workload's generated inputs and expected outputs.
fn inputs_digest(w: &Workload) -> u64 {
    let mut h = Fnv1a::new();
    for b in &w.app.buffers {
        h.update(&b.init);
    }
    for (i, e) in &w.expected {
        h.update(&i.to_le_bytes()).update(e);
    }
    h.finish()
}

/// Where runs keep what they write: result stores and trace files.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench_run")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "suite" => Box::new(suite::setup(seed, tr)?),
        "pressure" => Box::new(pressure::setup(seed, tr)?),
        "dse" => Box::new(dse::setup(seed, tr)?),
        _ => return Err(format!("unknown workload {name} (suite, pressure, dse)")),
    })
}

/// Everything a run measured.
struct Measured {
    /// Host time of every set-up round, in seconds.
    setup_s: Vec<f64>,
    /// Pass host times in ms, untraced and traced.
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Counters of one pass (every pass must repeat them exactly).
    work: Work,
    digest: u64,
    inputs: u64,
    attempted: u64,
    failures: Vec<String>,
    timings: BTreeMap<&'static str, Vec<f64>>,
}

/// One set-up round, timed.
fn timed_setup(args: &Args, tr: &mut Tracer, round: u32) -> (Result<Box<dyn Bench>, String>, f64) {
    tr.enter(Unit::Setup(round), args.trace);
    let start = Instant::now();
    let bench = setup(&args.workload, args.seed, tr);
    (bench, start.elapsed().as_secs_f64())
}

fn measure(args: &Args, tr: &mut Tracer) -> Result<Measured, String> {
    let (bench, secs) = timed_setup(args, tr, 0);
    let bench = bench?;

    // One untimed warm-up pass fixes the counters every later pass must
    // repeat.
    tr.enter(Unit::Setup(0), false);
    let mut first = PassOut::default();
    bench.pass(tr, &mut first, 0);
    bench.cleanup(0);
    let mut m = Measured {
        setup_s: vec![secs],
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
        work: first.work,
        digest: first.digest,
        inputs: bench.inputs(),
        attempted: first.attempted,
        failures: first.failures,
        timings: BTreeMap::new(),
    };

    let start = Instant::now();
    let mut in_setup = 0.0;
    let mut pass = 1;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let setups_short = m.setup_s.len() < MIN_SAMPLES;
        let passes_short = m.plain_ms.len() < MIN_SAMPLES;
        let next_setup = if elapsed < args.seconds {
            in_setup < SETUP_SHARE * elapsed
        } else if setups_short || passes_short {
            setups_short
        } else {
            break;
        };
        if next_setup {
            // A repeated set-up must generate the same inputs.
            let round = m.setup_s.len() as u32;
            let (again, secs) = timed_setup(args, tr, round);
            in_setup += secs;
            m.setup_s.push(secs);
            let again = again.and_then(|b| {
                if b.inputs() == m.inputs {
                    Ok(())
                } else {
                    Err(format!("set-up round {round} generated different inputs"))
                }
            });
            m.attempted += 1;
            if let Err(e) = again {
                m.failures.push(e);
            }
            continue;
        }
        let traced = args.trace && pass % 2 == 0;
        tr.enter(Unit::Pass(pass), traced);
        let mut out = PassOut::default();
        let t = Instant::now();
        let id = tr.begin("pass");
        bench.pass(tr, &mut out, pass);
        tr.end(id);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        bench.cleanup(pass);
        if traced {
            m.traced_ms.push(ms);
        } else {
            m.plain_ms.push(ms);
        }
        let repeat = if out.work == m.work && out.digest == m.digest {
            Ok(())
        } else {
            Err(format!(
                "pass {pass}: work counters or digest differ from pass 0"
            ))
        };
        out.record(repeat);
        m.attempted += out.attempted;
        m.failures.append(&mut out.failures);
        for (k, v) in out.timings {
            m.timings.entry(k).or_default().push(v);
        }
        pass += 1;
    }
    Ok(m)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let w = &m.work;
    // Host contention comes and goes in phases of seconds to minutes, so
    // the median, mean and tail of pass time follow the share of contended
    // time in a run. Every pass does the same work, and contention only
    // adds time to it, so the rates use the fastest pass.
    let secs = least(&m.plain_ms) / 1e3;
    let instrs = (w.instrs() + w.get("sweep.instrs")) as f64;
    let cycles = (w.get("makespan_cycles") + w.get("sweep.cycles")) as f64;
    vec![
        ("sim_instrs_per_s", ratio(instrs, secs), "instr/s"),
        ("sim_cycles_per_s", ratio(cycles, secs), "cycles/s"),
        ("setup_s", least(&m.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("makespan_cycles", w.get("makespan_cycles") as f64, "cycles"),
    ]
}

fn per_layer(m: &Measured, tr: &Tracer) -> Vec<Metric> {
    let w = &m.work;
    let n = |k: &str| w.get(k) as f64;
    let traced = m.traced_ms.len() as f64;
    let timing = |k: &str| m.timings.get(k).map_or(0.0, |v| median(v));
    let run_ns = (tr.pass_self_ns("sim.run") + tr.pass_self_ns("sim.run_until")) as f64;
    let p50 = median(&m.plain_ms);
    let cycles = n("makespan_cycles");
    vec![
        (
            "flow.synthesize_ms",
            tr.setup_self_ms("flow.synthesize"),
            "ms",
        ),
        ("sim.new_ms", tr.self_ms("sim.new"), "ms"),
        (
            "sim.run_ms",
            tr.self_ms("sim.run") + tr.self_ms("sim.run_until"),
            "ms",
        ),
        ("sim.finish_ms", tr.self_ms("sim.finish"), "ms"),
        ("verify_ms", tr.self_ms("verify"), "ms"),
        ("sim.events", n("sim.events"), "count"),
        (
            "sim.host_ns_per_event",
            ratio(run_ns, n("sim.events") * traced),
            "ns",
        ),
        ("hwt.instrs", n("hwt.instrs"), "count"),
        ("hwt.mem_ops", n("hwt.mem_ops"), "count"),
        ("hwt.host_ns_per_instr", tr.ns_per_instr("hwt"), "ns"),
        ("hwt.compute_cycles", n("hwt.compute_cycles"), "cycles"),
        (
            "hwt.hidden_mem_cycles",
            n("hwt.hidden_mem_cycles"),
            "cycles",
        ),
        ("hwt.miss_parks", n("hwt.miss_parks"), "count"),
        ("memif.loads", n("memif.loads"), "count"),
        ("memif.stores", n("memif.stores"), "count"),
        ("memif.hit_under_miss", n("memif.hit_under_miss"), "count"),
        (
            "memif.miss_stall_cycles",
            n("memif.miss_stall_cycles"),
            "cycles",
        ),
        (
            "memif.mshr_stall_cycles",
            n("memif.mshr_stall_cycles"),
            "cycles",
        ),
        ("cpu.instrs", n("cpu.instrs"), "count"),
        ("cpu.host_ns_per_instr", tr.ns_per_instr("cpu"), "ns"),
        ("vm.translations", n("vm.translations"), "count"),
        ("vm.walks", n("vm.walks"), "count"),
        (
            "vm.tlb_hit_rate",
            ratio(n("vm.tlb_hits"), n("vm.translations")),
            "ratio",
        ),
        (
            "vm.l1_walk_hit_rate",
            ratio(n("vm.l1_walk_hits"), n("vm.walks")),
            "ratio",
        ),
        (
            "vm.l2_walk_hit_rate",
            ratio(n("vm.l2_walk_hits"), n("vm.walks")),
            "ratio",
        ),
        ("fabric.transactions", n("fabric.transactions"), "count"),
        ("fabric.bytes", n("fabric.bytes"), "bytes"),
        ("fabric.wait_cycles", n("fabric.wait_cycles"), "cycles"),
        (
            "fabric.data_utilization",
            ratio(n("fabric.data_busy_cycles"), cycles),
            "ratio",
        ),
        (
            "fabric.outstanding_mean",
            ratio(n("fabric.inflight_cycles"), cycles),
            "txns",
        ),
        ("mem.reads", n("mem.reads"), "count"),
        ("mem.writes", n("mem.writes"), "count"),
        ("os.hw_faults", n("os.hw_faults"), "count"),
        ("os.sw_faults", n("os.sw_faults"), "count"),
        ("os.major_faults", n("os.major_faults"), "count"),
        ("os.reclaims", n("os.reclaims"), "count"),
        ("pressure.shootdowns", n("pressure.shootdowns"), "count"),
        (
            "pressure.swap_busy_cycles",
            n("pressure.swap_busy_cycles"),
            "cycles",
        ),
        ("os.frames_high_water", n("os.frames_high_water"), "frames"),
        ("os.sigsegv", n("os.sigsegv"), "count"),
        ("ckpt.snapshot_ms", tr.self_ms("ckpt.snapshot"), "ms"),
        ("ckpt.restore_ms", tr.self_ms("ckpt.restore"), "ms"),
        ("ckpt.image_bytes", n("ckpt.image_bytes"), "bytes"),
        ("dse.explore_ms", tr.self_ms("dse.explore"), "ms"),
        ("dse.evaluated", n("dse.evaluated"), "count"),
        ("dse.memo_hits", n("dse.memo_hits"), "count"),
        ("dse.store_hits", n("dse.store_hits"), "count"),
        ("dse.store_misses", n("dse.store_misses"), "count"),
        ("dse.cold_store_hits", n("dse.cold_store_hits"), "count"),
        ("dse.warm_store_misses", n("dse.warm_store_misses"), "count"),
        ("dse.panics", n("dse.panics"), "count"),
        ("dse.points_per_s", timing("dse.points_per_s"), "1/s"),
        ("sweep_cold_s", timing("sweep_cold_s"), "s"),
        ("sweep_warm_s", timing("sweep_warm_s"), "s"),
        ("store.open_ms", tr.self_ms("store.open"), "ms"),
        ("store.published", n("store.published"), "count"),
        ("store.hits", n("store.hits"), "count"),
        ("store.corrupt", n("store.corrupt"), "count"),
        ("store.bytes_written", n("store.bytes_written"), "bytes"),
        ("store.bytes_read", n("store.bytes_read"), "bytes"),
        ("pass_p50_ms", p50, "ms"),
        ("pass_tail_ms", tail(&m.plain_ms).map_or(0.0, |t| t.0), "ms"),
        ("pass_min_ms", least(&m.plain_ms), "ms"),
        ("trace.passes", traced, "count"),
        ("trace.overhead_ms", median(&m.traced_ms) - p50, "ms"),
    ]
}

/// Host peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit when run inside a git work tree (read from `.git`, loose or
/// packed ref, no subprocess), else "none".
fn commit() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == r).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "none".into())
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new();
    let m = match measure(&args, &mut tr) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let failed = m.failures.len() as u64;
    for f in m.failures.iter().take(10) {
        eprintln!("perfbench: FAILED: {f}");
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        svmsyn::host_cores(),
        commit()
    );
    println!(
        "passes={} traced_passes={} attempted={} failed={} fail_ratio={}",
        m.plain_ms.len(),
        m.traced_ms.len(),
        m.attempted,
        failed,
        ratio(failed as f64, m.attempted as f64)
    );
    let counters: Vec<String> = m.work.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("work per pass (exact): {}", counters.join(" "));
    println!(
        "digest: outputs+stats={:016x} inputs={:016x}",
        m.digest, m.inputs
    );
    let metrics = if args.trace {
        per_layer(&m, &tr)
    } else {
        end_to_end(&m)
    };
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    println!(
        "untraced passes: {} (fastest {} ms, p50 {} ms); set-up rounds: {} (median {} s)",
        m.plain_ms.len(),
        least(&m.plain_ms),
        median(&m.plain_ms),
        m.setup_s.len(),
        median(&m.setup_s)
    );
    if let Some((ms, pct)) = tail(&m.plain_ms) {
        println!(
            "pass_tail_ms = {ms} ms, p{pct:.1} of {} passes",
            m.plain_ms.len()
        );
    }
    if args.trace {
        let dir = scratch_dir();
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| tr.write_chrome(&path)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!(
            "tracing overhead: traced minus untraced pass_p50_ms = {} ms",
            median(&m.traced_ms) - median(&m.plain_ms)
        );
    }
    // Only removes the directory when no span file was written to it.
    let _ = std::fs::remove_dir(scratch_dir());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.attempted,
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed no benchmark run uses by default.
    const HELD_OUT: u64 = 0x5EED_0FF5;

    /// Run with `--release`: the dse set-up simulates 32 design points.
    #[test]
    fn held_out_seed_changes_inputs_and_every_workload_verifies() {
        for name in ["suite", "pressure", "dse"] {
            let mut tr = Tracer::new();
            let default = setup(name, 1, &mut tr).expect("set-up at seed 1");
            let held_out = setup(name, HELD_OUT, &mut tr).expect("set-up at the held-out seed");
            assert_ne!(
                default.inputs(),
                held_out.inputs(),
                "{name}: seed did not change inputs"
            );
            for (seed, bench) in [(1, default), (HELD_OUT, held_out)] {
                let mut out = PassOut::default();
                bench.pass(&mut tr, &mut out, 0);
                bench.cleanup(0);
                assert!(out.attempted > 0, "{name}: pass attempted nothing");
                assert!(
                    out.failures.is_empty(),
                    "{name} seed {seed}: {:?}",
                    out.failures
                );
            }
        }
        let _ = std::fs::remove_dir(scratch_dir());
    }
}
