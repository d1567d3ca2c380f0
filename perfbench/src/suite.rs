//! `suite`: the eight kernels of `default_suite(seed)`, each all-hardware
//! and all-software — the paper's HW-versus-SW comparison. One pass is
//! sixteen verified simulations under the default `SimConfig`.
//!
//! Host time sits in hardware-thread stepping (HLS interpreter, MEMIF,
//! MMU, fabric) and in the software CPU model. Fault service, snapshots,
//! DSE and the store do almost nothing here: this is the bypass side for
//! their optimisations.

use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::Platform;
use svmsyn::sim::SimConfig;
use svmsyn_workloads::{default_suite, Workload};

use crate::trace::Tracer;
use crate::work::{fold, simulate_verified};
use crate::{guarded, inputs_digest, Bench, PassOut};

pub struct Suite {
    cases: Vec<Case>,
    cfg: SimConfig,
}

struct Case {
    workload: Workload,
    design: SystemDesign,
    /// Digest of the reference run made at set-up.
    reference: u64,
}

pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Suite, String> {
    let cfg = SimConfig::default();
    let platform = Platform::default();
    let mut cases = Vec::new();
    for w in default_suite(seed) {
        for placement in [Placement::Hardware, Placement::Software] {
            let design = tr
                .time("flow.synthesize", || {
                    synthesize(&w.app, &platform, &[placement])
                })
                .map_err(|e| format!("{}: synthesize: {e}", w.name))?;
            let reference = simulate_verified(tr, &design, &cfg, &w)?.digest;
            cases.push(Case {
                workload: w.clone(),
                design,
                reference,
            });
        }
    }
    Ok(Suite { cases, cfg })
}

impl Bench for Suite {
    fn pass(&self, tr: &mut Tracer, out: &mut PassOut, _pass: u32) {
        for c in &self.cases {
            let run = guarded(|| {
                let run = simulate_verified(tr, &c.design, &self.cfg, &c.workload)?;
                if run.digest != c.reference {
                    return Err(format!(
                        "{} {:?}: stats digest differs from the reference run",
                        c.workload.name, c.design.placements[0]
                    ));
                }
                // Engagement: a hardware thread that never walked did not
                // exercise its MMU.
                if c.design.placements[0] == Placement::Hardware && run.work.get("vm.walks") == 0 {
                    return Err(format!("{} HW: no page walks", c.workload.name));
                }
                Ok(run)
            });
            if let Some(run) = out.record(run) {
                out.work.merge(&run.work);
                out.digest = fold(out.digest, run.digest);
            }
        }
    }

    fn inputs(&self) -> u64 {
        self.cases
            .iter()
            .step_by(2)
            .fold(0, |acc, c| fold(acc, inputs_digest(&c.workload)))
    }
}
