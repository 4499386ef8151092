//! The telemetry collection facade used by the simulator.
//!
//! Plays the role of the paper's custom MPI/Kokkos profiling-interface hooks
//! (§IV-C): simulation components report phase durations and message traffic
//! as they execute; the collector appends them to a columnar
//! [`EventTable`]. A `sampling` knob keeps high-frequency experiments from
//! drowning in rows (the paper similarly used programmable triggers to bound
//! telemetry volume).

use crate::record::{EventRecord, Phase, NO_BLOCK};
use crate::table::EventTable;

/// Accumulates telemetry events for one run.
#[derive(Debug)]
pub struct Collector {
    table: EventTable,
    current_step: u32,
    /// Record only every `sampling`-th step's events (1 = record all).
    sampling: u32,
    enabled: bool,
    /// Per-rank compute accumulator for the *current* step, kept regardless
    /// of `sampling` — online anomaly detection needs every step's signal
    /// even when the event table keeps only every n-th. Empty when step
    /// tracking is off.
    step_compute: Vec<f64>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Collector recording every step.
    pub fn new() -> Self {
        Collector {
            table: EventTable::new(),
            current_step: 0,
            sampling: 1,
            enabled: true,
            step_compute: Vec::new(),
        }
    }

    /// Collector recording every `sampling`-th step (panics on 0).
    pub fn with_sampling(sampling: u32) -> Self {
        assert!(sampling >= 1, "sampling period must be >= 1");
        Collector {
            sampling,
            ..Collector::new()
        }
    }

    /// Disabled collector: all records are dropped. Useful for pure
    /// performance runs where collection overhead should be zero.
    pub fn disabled() -> Self {
        Collector {
            enabled: false,
            ..Collector::new()
        }
    }

    /// Advance to a new timestep; subsequent records carry this step.
    /// Resets the per-step compute series if step tracking is enabled.
    pub fn begin_step(&mut self, step: u32) {
        self.current_step = step;
        self.step_compute.fill(0.0);
    }

    /// Enable per-step per-rank compute tracking for `num_ranks` ranks.
    /// Unlike the event table, the series is refreshed every step even when
    /// `sampling > 1` — it feeds online anomaly detection, which can't
    /// tolerate gaps.
    pub fn track_step_compute(&mut self, num_ranks: usize) {
        self.step_compute.clear();
        self.step_compute.resize(num_ranks, 0.0);
    }

    /// The per-rank compute durations (ns) accumulated since the last
    /// `begin_step`. Empty unless [`Collector::track_step_compute`] was
    /// called.
    pub fn step_compute(&self) -> &[f64] {
        &self.step_compute
    }

    #[inline]
    fn track_compute(&mut self, rank: u32, phase: Phase, duration_ns: u64) {
        if phase == Phase::Compute && !self.step_compute.is_empty() {
            if let Some(slot) = self.step_compute.get_mut(rank as usize) {
                *slot += duration_ns as f64;
            }
        }
    }

    /// The step currently being recorded.
    pub fn current_step(&self) -> u32 {
        self.current_step
    }

    /// Should events for the current step be kept?
    #[inline]
    fn sampled(&self) -> bool {
        self.enabled && self.current_step.is_multiple_of(self.sampling)
    }

    /// Will records made for the current step be kept in the table or fed
    /// to the per-step compute series? When false, every `record_*` call
    /// for this step is a no-op and callers may skip making it.
    #[inline]
    pub fn observes_step(&self) -> bool {
        self.sampled() || !self.step_compute.is_empty()
    }

    /// Record a per-block phase duration.
    pub fn record_block(&mut self, rank: u32, block: u32, phase: Phase, duration_ns: u64) {
        self.track_compute(rank, phase, duration_ns);
        if self.sampled() {
            self.table.push(EventRecord {
                step: self.current_step,
                rank,
                block,
                phase,
                duration_ns,
                msg_count: 0,
                msg_bytes: 0,
            });
        }
    }

    /// Record a rank-level phase duration (no block attribution).
    pub fn record_rank(&mut self, rank: u32, phase: Phase, duration_ns: u64) {
        self.track_compute(rank, phase, duration_ns);
        if self.sampled() {
            self.table.push(EventRecord::rank_phase(
                self.current_step,
                rank,
                phase,
                duration_ns,
            ));
        }
    }

    /// Record a communication measurement with traffic volume.
    pub fn record_comm(
        &mut self,
        rank: u32,
        block: u32,
        phase: Phase,
        duration_ns: u64,
        msg_count: u32,
        msg_bytes: u64,
    ) {
        if self.sampled() {
            self.table.push(EventRecord {
                step: self.current_step,
                rank,
                block,
                phase,
                duration_ns,
                msg_count,
                msg_bytes,
            });
        }
    }

    /// Record a rank-level communication measurement.
    pub fn record_comm_rank(
        &mut self,
        rank: u32,
        phase: Phase,
        duration_ns: u64,
        msg_count: u32,
        msg_bytes: u64,
    ) {
        self.record_comm(rank, NO_BLOCK, phase, duration_ns, msg_count, msg_bytes);
    }

    /// Rows collected so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Nothing collected?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Borrow the table for querying mid-run.
    pub fn table(&self) -> &EventTable {
        &self.table
    }

    /// Finish collection, returning the table sorted into canonical
    /// `(step, rank, phase, block)` order.
    pub fn finish(mut self) -> EventTable {
        self.table.sort_canonical();
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    #[test]
    fn records_carry_current_step() {
        let mut c = Collector::new();
        c.begin_step(5);
        c.record_rank(2, Phase::Synchronization, 123);
        c.begin_step(6);
        c.record_block(2, 9, Phase::Compute, 456);
        let t = c.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0).step, 5);
        assert_eq!(t.row(1).step, 6);
        assert_eq!(t.row(1).block, 9);
    }

    #[test]
    fn sampling_drops_off_steps() {
        let mut c = Collector::with_sampling(10);
        for step in 0..25 {
            c.begin_step(step);
            c.record_rank(0, Phase::Compute, 1);
        }
        // Steps 0, 10, 20 recorded.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut c = Collector::disabled();
        c.record_rank(0, Phase::Compute, 1);
        c.record_comm(0, 0, Phase::BoundaryComm, 1, 1, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn comm_records_include_volume() {
        let mut c = Collector::new();
        c.record_comm_rank(3, Phase::BoundaryComm, 100, 26, 4096);
        let t = c.finish();
        let g = Query::new(&t).phase(Phase::BoundaryComm).by_rank();
        assert_eq!(g[&3].total_msg_count, 26);
        assert_eq!(g[&3].total_msg_bytes, 4096);
    }

    #[test]
    fn step_tracking_survives_sampling_gaps() {
        let mut c = Collector::with_sampling(10);
        c.track_step_compute(2);
        c.begin_step(3); // not a sampled step
        c.record_rank(0, Phase::Compute, 100);
        c.record_block(1, 7, Phase::Compute, 250);
        c.record_rank(1, Phase::Synchronization, 999); // not compute
        assert_eq!(c.step_compute(), &[100.0, 250.0]);
        assert_eq!(c.len(), 0); // event table dropped the off-step rows
        c.begin_step(4);
        assert_eq!(c.step_compute(), &[0.0, 0.0]); // reset per step
    }

    #[test]
    fn step_tracking_off_by_default() {
        let mut c = Collector::new();
        c.record_rank(0, Phase::Compute, 5);
        assert!(c.step_compute().is_empty());
    }

    #[test]
    fn finish_sorts_canonically() {
        let mut c = Collector::new();
        c.begin_step(2);
        c.record_rank(1, Phase::Compute, 1);
        c.begin_step(1);
        c.record_rank(0, Phase::Compute, 1);
        let t = c.finish();
        assert!(t.row(0).step <= t.row(1).step);
    }
}
