//! # amr-sim — a discrete-event cluster simulator for AMR placement studies
//!
//! The paper ran on a 600-node research cluster (16-core Xeons, 40 Gbps
//! QLogic fabric, MVAPICH2 + PSM). This crate replaces that physical
//! substrate with a simulator that reproduces the *mechanisms* the paper's
//! experiments exercise:
//!
//! * [`topology`] — nodes × ranks-per-node layout (16 ranks/node in the
//!   paper); placement locality is judged against it.
//! * [`network`] — a two-path communication cost model: intra-node shared
//!   memory vs inter-node fabric, each with latency + bandwidth, plus the
//!   two §IV-B misbehaviors: an undersized shared-memory queue (contention
//!   penalties) and the PSM missing-ACK recovery path that blocks senders
//!   (with the paper's drain-queue mitigation as a switch).
//! * [`collectives`] — binomial-tree barrier/allreduce cost, exposing the
//!   straggler-amplification that makes synchronization 35–50% of runtime.
//! * [`faults`] — node-level fail-slow injection (thermal throttling in
//!   clusters of one node's ranks, §IV-A) and OS jitter.
//! * [`microsim`] — message-level simulation of one boundary-exchange round
//!   (used by `commbench`/Figs. 1, 3, 7a).
//! * [`macrosim`] — step-level simulation of a full AMR run: compute →
//!   boundary exchange → synchronization → (on refinement) redistribution,
//!   with telemetry collection and placement-policy plug-in (Fig. 6/Table I).
//! * [`health`] — pre/post-run node health checks with overprovisioning and
//!   pruning, the paper's measurement-integrity workflow.
//!
//! Virtual time is nanoseconds (`u64`). All stochastic behavior is seeded;
//! identical configs reproduce identical runs.

pub mod collectives;
pub mod events;
pub mod faults;
pub mod health;
pub mod ledger;
pub mod macrosim;
pub mod microsim;
pub mod mpi;
pub mod network;
mod par;
pub mod report;
pub mod topology;

pub use collectives::{cheapest_algo, CollectiveAlgo, CollectiveSelect};
pub use faults::{FaultConfig, FaultEpisode, FaultResponse, FaultTimeline};
pub use health::{blacklist_and_rehost, run_health_check, run_health_check_at, HealthCheck};
pub use ledger::ExchangeByteLedger;
pub use macrosim::{MacroSim, RunReport, SimConfig, Workload, WorkloadStep};
pub use microsim::{Message, MicroSim, RoundResult, RoundSpec, TaskOrder};
pub use mpi::{MpiWorld, Op};
pub use network::NetworkConfig;
pub use report::PhaseBreakdown;
pub use topology::{NodeMap, Topology};
