//! Exact work counters and digests, read from the outcome of each verified
//! simulation, plus the traced simulation loop every workload shares.
//!
//! Counters are deterministic functions of the inputs: they repeat
//! bit-for-bit across passes, runs and hosts, so an algorithmic or model
//! change shows in them even when host time is noisy.

use std::collections::BTreeMap;

use svmsyn::flow::{Placement, SystemDesign};
use svmsyn::sim::{RunProgress, Sim, SimConfig, SimOutcome};
use svmsyn_snap::Fnv1a;
use svmsyn_workloads::Workload;

use crate::trace::Tracer;

/// Named exact counters of one pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work(BTreeMap<&'static str, u64>);

impl Work {
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.0.entry(key).or_default() += n;
    }

    pub fn max(&mut self, key: &'static str, n: u64) {
        let e = self.0.entry(key).or_default();
        *e = (*e).max(n);
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }

    /// Simulated instructions: hardware interpreter steps plus software
    /// CPU instructions.
    pub fn instrs(&self) -> u64 {
        self.get("hwt.instrs") + self.get("cpu.instrs")
    }

    /// Adds the counters of one finished simulation.
    pub fn absorb(&mut self, outcome: &SimOutcome, events: u64) {
        let stat = |s: &svmsyn_sim::StatSet, k: &str| s.get(k).unwrap_or(0.0) as u64;
        self.add("sim.runs", 1);
        self.add("sim.events", events);
        for t in &outcome.threads {
            let s = t.stats();
            match t.placement {
                Placement::Hardware => {
                    for (key, stat_key) in [
                        ("hwt.instrs", "instrs"),
                        ("hwt.mem_ops", "mem_ops"),
                        ("hwt.compute_cycles", "compute_cycles"),
                        ("hwt.hidden_mem_cycles", "hidden_mem_cycles"),
                        ("hwt.miss_parks", "miss_parks"),
                        ("memif.loads", "memif.loads"),
                        ("memif.stores", "memif.stores"),
                        ("memif.hit_under_miss", "memif.hit_under_miss"),
                        ("memif.miss_stall_cycles", "memif.miss_stall_cycles"),
                        ("memif.mshr_stall_cycles", "memif.mshr_stall_cycles"),
                        ("vm.tlb_hits", "memif.mmu.tlb.hits"),
                        ("vm.translations", "memif.mmu.tlb.hits"),
                        ("vm.translations", "memif.mmu.tlb.misses"),
                    ] {
                        self.add(key, stat(s, stat_key));
                    }
                }
                Placement::Software => {
                    for (key, stat_key) in [
                        ("cpu.instrs", "instrs"),
                        ("vm.tlb_hits", "tlb.hits"),
                        ("vm.translations", "tlb.hits"),
                        ("vm.translations", "tlb.misses"),
                    ] {
                        self.add(key, stat(s, stat_key));
                    }
                }
            }
        }
        let s = outcome.stats();
        for (key, stat_key) in [
            ("makespan_cycles", "makespan"),
            ("vm.walks", "vm.walks"),
            ("vm.l1_walk_hits", "vm.l1_walk_hits"),
            ("vm.l2_walk_hits", "vm.l2_walk_hits"),
            ("fabric.transactions", "mem.fabric.transactions"),
            ("fabric.data_busy_cycles", "fabric.data_busy_cycles"),
            ("fabric.inflight_cycles", "fabric.inflight_cycles"),
            ("mem.reads", "mem.reads"),
            ("mem.writes", "mem.writes"),
            ("os.hw_faults", "os.hw_faults"),
            ("os.sw_faults", "os.sw_faults"),
            ("os.major_faults", "os.major_faults"),
            ("os.reclaims", "os.reclaims"),
            ("os.sigsegv", "os.sigsegv"),
            ("pressure.shootdowns", "pressure.shootdowns"),
            ("pressure.swap_busy_cycles", "pressure.swap_busy_cycles"),
        ] {
            self.add(key, stat(s, stat_key));
        }
        // Per-master byte and wait counters have no system-wide key.
        for (k, v) in s.iter() {
            let master = k.strip_prefix("mem.fabric.m");
            if let Some(rest) = master.filter(|r| r.starts_with(|c: char| c.is_ascii_digit())) {
                if rest.ends_with(".bytes") {
                    self.add("fabric.bytes", v as u64);
                } else if rest.ends_with(".wait_cycles") {
                    self.add("fabric.wait_cycles", v as u64);
                }
            }
        }
        self.max(HIGH_WATER, stat(s, HIGH_WATER));
    }

    /// Adds another pass's (or run's) counters; high-water marks take the
    /// maximum.
    pub fn merge(&mut self, other: &Work) {
        for (k, v) in other.iter() {
            if k == HIGH_WATER {
                self.max(k, v);
            } else {
                self.add(k, v);
            }
        }
    }
}

const HIGH_WATER: &str = "os.frames_high_water";

/// Digest of every simulated statistic, the makespan, and the bytes of
/// every checked output buffer of one simulation.
pub fn digest(outcome: &SimOutcome, expected: &[(usize, Vec<u8>)]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&outcome.makespan.0.to_le_bytes());
    let mut stats = |set: &svmsyn_sim::StatSet| {
        for (k, v) in set.iter() {
            h.update(k.as_bytes()).update(&v.to_bits().to_le_bytes());
        }
    };
    stats(outcome.stats());
    for t in &outcome.threads {
        stats(t.stats());
    }
    for (idx, bytes) in expected {
        let mut got = vec![0u8; bytes.len()];
        outcome.read_buffer(*idx, &mut got);
        h.update(&got);
    }
    h.finish()
}

/// Folds one value into a running digest.
pub fn fold(acc: u64, value: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&acc.to_le_bytes()).update(&value.to_le_bytes());
    h.finish()
}

/// Which placement class a design's threads all share, if any: host time
/// of a run is credited to `hwt` or `cpu` only when it simulated one kind
/// of thread.
pub fn class(design: &SystemDesign) -> Option<&'static str> {
    let all = |p| design.placements.iter().all(|&q| q == p);
    if all(Placement::Hardware) {
        Some("hwt")
    } else if all(Placement::Software) {
        Some("cpu")
    } else {
        None
    }
}

/// One verified simulation: its counters and its digest.
pub struct Run {
    pub work: Work,
    pub digest: u64,
}

/// Runs `design` to completion through `Sim::new`/`run`/`finish` with a
/// span around each call, then checks the output with `Workload::verify`.
pub fn simulate_verified(
    tr: &mut Tracer,
    design: &SystemDesign,
    cfg: &SimConfig,
    w: &Workload,
) -> Result<Run, String> {
    let mut sim = tr
        .time("sim.new", || Sim::new(design, cfg))
        .map_err(|e| format!("{}: Sim::new: {e}", w.name))?;
    let mut run_ns = 0;
    loop {
        let id = tr.begin("sim.run");
        let progress = sim.run();
        run_ns += tr.end(id);
        match progress.map_err(|e| format!("{}: Sim::run: {e}", w.name))? {
            RunProgress::Complete => break,
            RunProgress::Paused(_) => {}
        }
    }
    let events = sim.events_fired();
    let outcome = tr
        .time("sim.finish", || sim.finish())
        .map_err(|e| format!("{}: Sim::finish: {e}", w.name))?;
    finish_run(tr, design, w, outcome, events, run_ns)
}

/// Verifies a finished outcome, credits its run time to its placement
/// class, and digests it.
pub fn finish_run(
    tr: &mut Tracer,
    design: &SystemDesign,
    w: &Workload,
    outcome: SimOutcome,
    events: u64,
    run_ns: u64,
) -> Result<Run, String> {
    tr.time("verify", || w.verify(&outcome))?;
    let mut work = Work::default();
    work.absorb(&outcome, events);
    if let Some(class) = class(design) {
        tr.attribute(class, run_ns, work.instrs());
    }
    let digest = digest(&outcome, &w.expected);
    Ok(Run { work, digest })
}
