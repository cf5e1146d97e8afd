//! # experiments — the paper's evaluation, reproduced
//!
//! Section 4 of *Wu & Jiang (IPDPS 2004)* evaluates the minimum faulty
//! polygon model on a 100×100 mesh with up to 800 sequentially injected
//! faults, under a random and a clustered fault distribution, reporting three
//! figures:
//!
//! * **Figure 9** — average number of non-faulty but disabled nodes in the
//!   whole network under FB, FP and MFP (log₁₀ scale);
//! * **Figure 10** — average size of a faulty block / polygon (number of
//!   faulty + non-faulty nodes it contains);
//! * **Figure 11** — average number of rounds of status determination under
//!   FB, FP, CMFP and DMFP.
//!
//! This crate contains **one** sweep runner for every dimension: the
//! scenario-driven [`scenario`] module executes any declarative
//! [`Scenario`] — mesh side, fault distribution and counts, model names,
//! trial count — against any `mocp_topology::ModelRegistry<T>`, so the
//! paper's 2-D figures and the 3-D Figure 9/10 analogues
//! (`paper_figures --dim 3`, FB-3D vs MFP-3D on a 32³ mesh) are the same
//! code path with different registries. Around it sit the [`streaming`]
//! execution mode that produces the Figure 9/10 MFP curves from *one*
//! pass over each injection sequence via the incremental maintenance
//! engine, the per-figure series extractors ([`fig9`], [`fig10`],
//! [`fig11`]) over [`ScenarioResult`], sweep sizing ([`sweep`]),
//! plain-text/CSV rendering ([`table`]), and the `paper_figures` binary
//! that prints any figure from the command line. Beyond the paper's
//! single-mesh evaluation, the [`serve_workload`] module generates the
//! deterministic N-tenants × M-events × K-queries load (seeded
//! inject/repair churn) that drives the multi-tenant monitoring
//! service ([`mocp_serve`]) — from the `serve_workload` binary and the
//! sequential-equivalence tests. The [`chaos_workload`] module runs the
//! same streams against a service armed with a seeded fault plan — batch
//! panics, in-place rebuilds, lossy live-reroute subscribers — and
//! verifies convergence back to the sequential oracle (the `serve_chaos`
//! binary and the chaos property test).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos_workload;
pub mod fig10;
pub mod fig11;
pub mod fig9;
pub mod scenario;
pub mod serve_workload;
pub mod streaming;
pub mod sweep;
pub mod table;
pub mod traffic;

pub use chaos_workload::{run_chaos_workload, ChaosOutcome, ChaosWorkloadConfig};
pub use scenario::{
    paper_model_names, paper_model_names_3d, run_scenario, Metric, Scenario, ScenarioPoint,
    ScenarioResult,
};
pub use serve_workload::{
    replay_tenant, run_serve_workload, tenant_events, tenant_queries, ServeWorkloadConfig,
    WorkloadOutcome,
};
pub use streaming::{run_scenario_streaming, StreamingPoint, StreamingResult};
pub use sweep::{ModelPoint, SweepConfig};
pub use table::{render_csv, render_table, Series};
pub use traffic::{render_traffic_csv, run_traffic, TrafficCell, TrafficResult, TrafficScenario};
