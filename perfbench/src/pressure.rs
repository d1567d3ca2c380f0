//! `pressure`: three hardware `vecadd` threads over shared inputs,
//! over-committed against an eight-frame budget, so every run finishes only
//! through clock reclaim, swap-out, shootdown broadcast and major-fault
//! swap-in. Each run is driven kill-and-resume style: `run_until` a fixed
//! cycle in the middle of the reclaim storm, `snapshot`, `restore`, and
//! finish on the restored `Sim`.
//!
//! OS fault service, VM shootdowns and refault walks, checkpoint/restore
//! and multi-master fabric arbitration do most of their work here and
//! almost none in `suite`. The regime is sensitive: two threads at the
//! same budget take only a handful of major faults.

use svmsyn::app::{ApplicationBuilder, ArgSpec};
use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::Platform;
use svmsyn::sim::{Sim, SimConfig};
use svmsyn_sim::Cycle;
use svmsyn_workloads::streaming::{vecadd, vecadd_kernel};
use svmsyn_workloads::Workload;

use crate::trace::Tracer;
use crate::work::{finish_run, simulate_verified, Run};
use crate::{guarded, inputs_digest, Bench, PassOut};

const THREADS: usize = 3;
const ELEMENTS: u64 = 8192;
const FRAME_BUDGET: u64 = 8;

pub struct Pressure {
    workload: Workload,
    design: SystemDesign,
    cfg: SimConfig,
    /// Where each run is killed: half the reference makespan.
    kill_at: Cycle,
    /// Digest of the uninterrupted reference run.
    reference: u64,
}

/// Three threads adding the same two seeded input vectors into their own
/// output buffers.
fn workload(seed: u64) -> Result<Workload, String> {
    let base = vecadd(ELEMENTS, seed);
    let bytes = ELEMENTS * 4;
    let mut b = ApplicationBuilder::new("pressure-vecadd-x3");
    for buf in &base.app.buffers[..2] {
        b = b.buffer(buf.name.clone(), buf.len, buf.init.clone(), false);
    }
    let (_, sum) = base
        .expected
        .first()
        .ok_or("vecadd has no expected output")?;
    let mut expected = Vec::new();
    for t in 0..THREADS {
        b = b.buffer(format!("dst{t}"), bytes, vec![], false).thread(
            format!("t{t}"),
            vecadd_kernel(),
            vec![
                ArgSpec::Buffer(0, 0),
                ArgSpec::Buffer(1, 0),
                ArgSpec::Buffer(2 + t, 0),
                ArgSpec::Value(ELEMENTS as i64),
            ],
            true,
        );
        expected.push((2 + t, sum.clone()));
    }
    Ok(Workload {
        name: "pressure".into(),
        app: b.build().map_err(|e| e.to_string())?,
        expected,
    })
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Pressure, String> {
    let workload = workload(seed)?;
    let mut platform = Platform::default();
    platform.os.frame_budget = Some(FRAME_BUDGET);
    let design = tr
        .time("flow.synthesize", || {
            synthesize(&workload.app, &platform, &[Placement::Hardware; THREADS])
        })
        .map_err(|e| format!("pressure: synthesize: {e}"))?;
    let cfg = SimConfig::default();
    let reference = simulate_verified(tr, &design, &cfg, &workload)?;
    let kill_at = Cycle(reference.work.get("makespan_cycles") / 2);
    Ok(Pressure {
        reference: reference.digest,
        workload,
        design,
        cfg,
        kill_at,
    })
}

impl Pressure {
    /// One kill-and-resume run, with its engagement guards.
    fn run(&self, tr: &mut Tracer) -> Result<Run, String> {
        let name = &self.workload.name;
        let mut sim = tr
            .time("sim.new", || Sim::new(&self.design, &self.cfg))
            .map_err(|e| format!("{name}: Sim::new: {e}"))?;
        let id = tr.begin("sim.run_until");
        let more = sim.run_until(self.kill_at);
        let mut run_ns = tr.end(id);
        if !more.map_err(|e| format!("{name}: Sim::run_until: {e}"))? {
            return Err(format!("{name}: finished before the kill point"));
        }
        let reclaims_at_kill = sim.os().reclaims();
        let image = tr.time("ckpt.snapshot", || sim.snapshot());
        drop(sim);
        let mut sim = tr
            .time("ckpt.restore", || {
                Sim::restore(&self.design, &self.cfg, &image)
            })
            .map_err(|e| format!("{name}: Sim::restore: {e}"))?;
        let id = tr.begin("sim.run");
        let progress = sim.run();
        run_ns += tr.end(id);
        progress.map_err(|e| format!("{name}: Sim::run: {e}"))?;
        let events = sim.events_fired();
        let outcome = tr
            .time("sim.finish", || sim.finish())
            .map_err(|e| format!("{name}: Sim::finish: {e}"))?;
        let mut run = finish_run(tr, &self.design, &self.workload, outcome, events, run_ns)?;
        run.work.add("ckpt.image_bytes", image.len() as u64);
        if run.digest != self.reference {
            return Err(format!(
                "{name}: resumed run differs from the uninterrupted reference"
            ));
        }
        // Engagement: the budget must bite, and the kill must land inside
        // the reclaim storm rather than before or after it.
        let w = &run.work;
        for key in ["os.major_faults", "os.reclaims", "pressure.shootdowns"] {
            if w.get(key) == 0 {
                return Err(format!("{name}: {key} is 0: the frame budget did not bite"));
            }
        }
        if reclaims_at_kill == 0 || reclaims_at_kill >= w.get("os.reclaims") {
            return Err(format!(
                "{name}: snapshot at cycle {} is not mid-reclaim ({reclaims_at_kill} of {} reclaims done)",
                self.kill_at.0,
                w.get("os.reclaims")
            ));
        }
        Ok(run)
    }
}

impl Bench for Pressure {
    fn pass(&self, tr: &mut Tracer, out: &mut PassOut, _pass: u32) {
        if let Some(run) = out.record(guarded(|| self.run(tr))) {
            out.work.merge(&run.work);
            out.digest = run.digest;
        }
    }

    fn inputs(&self) -> u64 {
        inputs_digest(&self.workload)
    }
}
