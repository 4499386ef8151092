//! Timing wrappers around the two trait objects `MacroSim` calls back into.
//!
//! [`TimedWorkload`] marks host step boundaries at each `advance(step)` and
//! times the call; [`TimedPolicy`] times `place_into`. Both forward every
//! call unchanged, so wrapped and unwrapped runs give the same virtual
//! results (tested below).

use crate::trace::Recorder;
use amr_core::engine::{PlacementCtx, PlacementError, PlacementReport};
use amr_core::{Placement, PlacementPolicy};
use amr_mesh::AmrMesh;
use amr_sim::{RunReport, Workload, WorkloadStep};
use std::sync::Arc;

/// A [`Workload`] that records when each step starts and how long
/// `advance` takes.
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    rec: &'a Recorder,
    /// Recorder time at which each `advance` call began.
    starts_ns: Vec<u64>,
    /// The `step` argument of each `advance` call.
    steps_seen: Vec<u64>,
    advance_ns: u64,
}

impl<'a> TimedWorkload<'a> {
    pub fn new(inner: &'a mut dyn Workload, rec: &'a Recorder) -> TimedWorkload<'a> {
        TimedWorkload {
            inner,
            rec,
            starts_ns: Vec::new(),
            steps_seen: Vec::new(),
            advance_ns: 0,
        }
    }

    /// Close the last step at `end_ns` (when the run returned) and return
    /// the host timing of the run.
    pub fn finish(self, end_ns: u64) -> StepTimes {
        if !self.starts_ns.is_empty() {
            self.rec.end("sim.step");
        }
        let mut step_ns: Vec<u64> = self.starts_ns.windows(2).map(|w| w[1] - w[0]).collect();
        if let Some(&last) = self.starts_ns.last() {
            step_ns.push(end_ns.saturating_sub(last));
        }
        StepTimes {
            first_start_ns: self.starts_ns.first().copied(),
            step_ns,
            steps_in_order: self
                .steps_seen
                .iter()
                .copied()
                .eq(0..self.inner.total_steps()),
            advance_ns: self.advance_ns,
        }
    }
}

/// Host timing of one run, from the `advance` boundaries.
#[derive(Debug, Clone)]
pub struct StepTimes {
    /// When step 0 began (`None` if no step ran).
    pub first_start_ns: Option<u64>,
    /// Wall of each step: from its `advance` to the next one (the last step
    /// ends when the run returns).
    pub step_ns: Vec<u64>,
    /// `advance` saw exactly the steps `0..total_steps`, in order.
    pub steps_in_order: bool,
    /// Total wall inside `advance`.
    pub advance_ns: u64,
}

impl Workload for TimedWorkload<'_> {
    fn mesh(&self) -> &AmrMesh {
        self.inner.mesh()
    }

    fn advance(&mut self, step: u64) -> WorkloadStep {
        if !self.starts_ns.is_empty() {
            self.rec.end("sim.step");
        }
        let t0 = self.rec.now_ns();
        self.rec.begin("sim.step", None);
        self.rec.begin("workloads.advance", None);
        let ws = self.inner.advance(step);
        self.rec.end("workloads.advance");
        self.advance_ns += self.rec.now_ns() - t0;
        self.starts_ns.push(t0);
        self.steps_seen.push(step);
        ws
    }

    fn block_compute_ns(&self) -> &[f64] {
        self.inner.block_compute_ns()
    }

    fn total_steps(&self) -> u64 {
        self.inner.total_steps()
    }
}

/// A [`PlacementPolicy`] that times every `place_into` call.
pub struct TimedPolicy<P> {
    inner: P,
    rec: Arc<Recorder>,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P, rec: Arc<Recorder>) -> TimedPolicy<P> {
        TimedPolicy { inner, rec }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn place_into(
        &self,
        ctx: &PlacementCtx,
        out: &mut Placement,
    ) -> Result<PlacementReport, PlacementError> {
        let t0 = self.rec.now_ns();
        let result = self.inner.place_into(ctx, out);
        let t1 = self.rec.now_ns();
        self.rec.note_place(t1 - t0);
        self.rec.leaf("core.place_into", t0, t1);
        result
    }
}

/// The wall-free virtual result of a run: the `f64` bits of the compute,
/// communication and synchronization phases, the message counts, the
/// migrations and the final block count. Redistribution time (and so
/// `total_ns`) is left out because it includes host placement wall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualFingerprint {
    pub compute_bits: u64,
    pub comm_bits: u64,
    pub sync_bits: u64,
    pub msgs_local: u64,
    pub msgs_remote: u64,
    pub blocks_migrated: u64,
    pub final_blocks: u64,
}

impl VirtualFingerprint {
    pub fn of(r: &RunReport) -> VirtualFingerprint {
        VirtualFingerprint {
            compute_bits: r.phases.compute_ns.to_bits(),
            comm_bits: r.phases.comm_ns.to_bits(),
            sync_bits: r.phases.sync_ns.to_bits(),
            msgs_local: r.messages.local,
            msgs_remote: r.messages.remote,
            blocks_migrated: r.blocks_migrated,
            final_blocks: r.final_blocks as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_core::{Cplx, Lpt, RebalanceTrigger};
    use amr_sim::{MacroSim, SimConfig};
    use amr_workloads::SedovScenario;

    fn sedov_run(threads: usize, wrapped: bool) -> (VirtualFingerprint, Option<StepTimes>) {
        let mut w = SedovScenario::for_ranks(512, 1000).workload();
        let mut cfg = SimConfig::tuned(512);
        cfg.threads = threads;
        cfg.telemetry_sampling = 16;
        let mut sim = MacroSim::try_new(cfg).expect("valid config");
        let trigger = RebalanceTrigger::OnMeshChange;
        if !wrapped {
            let r = sim
                .try_run(&mut w, &Cplx::new(50), trigger)
                .expect("run succeeds");
            return (VirtualFingerprint::of(&r), None);
        }
        let rec = Arc::new(Recorder::new(true));
        let policy = TimedPolicy::new(Cplx::new(50), rec.clone());
        rec.begin("sim.run", None);
        let mut tw = TimedWorkload::new(&mut w, &rec);
        let r = sim
            .try_run(&mut tw, &policy, trigger)
            .expect("run succeeds");
        let times = tw.finish(rec.now_ns());
        rec.end("sim.run");
        assert_eq!(rec.take_place_ns().len() as u64, r.lb_invocations + 1);
        let spans = rec.take_spans();
        let steps = spans.iter().filter(|s| s.name == "sim.step").count();
        assert_eq!(steps as u64, r.steps);
        (VirtualFingerprint::of(&r), Some(times))
    }

    #[test]
    fn wrappers_leave_the_virtual_run_unchanged() {
        let (plain, _) = sedov_run(1, false);
        let (wrapped, times) = sedov_run(1, true);
        assert_eq!(plain, wrapped);
        let times = times.expect("wrapped run is timed");
        assert!(times.steps_in_order);
        assert_eq!(times.step_ns.len(), 30);
        assert!(times.advance_ns > 0);
        // And the fingerprint does not depend on the thread count.
        assert_eq!(sedov_run(2, true).0, plain);
    }

    #[test]
    fn timed_policy_places_like_its_inner_policy() {
        let costs: Vec<f64> = (0..97).map(|i| 1.0 + (i % 7) as f64).collect();
        let rec = Arc::new(Recorder::new(false));
        let timed = TimedPolicy::new(Lpt, rec.clone());
        assert_eq!(timed.name(), Lpt.name());
        assert_eq!(timed.place(&costs, 8), Lpt.place(&costs, 8));
        assert_eq!(rec.take_place_ns().len(), 1);
    }
}
