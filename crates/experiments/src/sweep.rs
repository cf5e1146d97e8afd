//! Sweep sizing and the per-model metric point.
//!
//! The legacy `run_sweep` adapter (fixed FB/FP/CMFP/DMFP columns) is
//! gone: every figure, test and example now calls
//! [`run_scenario`](crate::scenario::run_scenario) directly. What remains
//! here is the *sizing* vocabulary shared by every sweep — [`SweepConfig`]
//! (mesh side, fault counts, trials, base seed) and [`ModelPoint`] (the
//! three Figure 9/10/11 metrics extracted from one construction outcome,
//! in any dimension).

use fblock::Outcome;
use mocp_topology::MeshTopology;
use serde::{Deserialize, Serialize};

/// Configuration of one sweep (one curve family of Figures 9–11).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Mesh side length (the paper uses 100).
    pub mesh_size: u32,
    /// Fault counts to evaluate (the paper sweeps 0..800).
    pub fault_counts: Vec<usize>,
    /// Number of independent trials averaged per point.
    pub trials: u32,
    /// Base RNG seed; trial `t` uses `base_seed + t`.
    pub base_seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            mesh_size: 100,
            fault_counts: (1..=8).map(|i| i * 100).collect(),
            trials: 5,
            base_seed: 2004,
        }
    }
}

impl SweepConfig {
    /// The paper's configuration: 100×100 mesh, 100..800 faults, averaged
    /// over `trials` seeds.
    pub fn paper(trials: u32) -> Self {
        SweepConfig {
            trials,
            ..SweepConfig::default()
        }
    }

    /// A small configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        SweepConfig {
            mesh_size: 30,
            fault_counts: vec![20, 40, 60],
            trials: 2,
            base_seed: 7,
        }
    }
}

/// The per-model metrics extracted from one construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelPoint {
    /// Non-faulty nodes the model disabled (Figure 9).
    pub disabled_nonfaulty: f64,
    /// Average region size in nodes, faults included (Figure 10).
    pub avg_region_size: f64,
    /// Rounds of status determination (Figure 11).
    pub rounds: f64,
}

impl ModelPoint {
    /// Extracts the three figure metrics from one construction outcome —
    /// for any mesh topology, through the generic [`Outcome`].
    pub fn from_outcome<T: MeshTopology>(outcome: &Outcome<T>) -> Self {
        ModelPoint {
            disabled_nonfaulty: outcome.disabled_nonfaulty() as f64,
            avg_region_size: outcome.average_region_size(),
            rounds: outcome.rounds.rounds as f64,
        }
    }

    pub(crate) fn accumulate(&mut self, other: ModelPoint) {
        self.disabled_nonfaulty += other.disabled_nonfaulty;
        self.avg_region_size += other.avg_region_size;
        self.rounds += other.rounds;
    }

    pub(crate) fn scale(&mut self, factor: f64) {
        self.disabled_nonfaulty *= factor;
        self.avg_region_size *= factor;
        self.rounds *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, Scenario};
    use faultgen::FaultDistribution;

    #[test]
    fn quick_sweep_produces_one_point_per_count() {
        let config = SweepConfig::quick();
        let registry = mocp_core::standard_registry();
        let scenario = Scenario::paper_figures(&config, FaultDistribution::Random);
        let result = run_scenario(&registry, &scenario).unwrap();
        assert_eq!(result.points.len(), config.fault_counts.len());
        for (p, &count) in result.points.iter().zip(&config.fault_counts) {
            assert_eq!(p.fault_count, count);
        }
    }

    #[test]
    fn model_ordering_matches_the_paper() {
        // MFP disables no more healthy nodes than FP, which disables no more
        // than FB; the centralized and distributed MFP agree.
        let config = SweepConfig::quick();
        let registry = mocp_core::standard_registry();
        for dist in FaultDistribution::ALL {
            let result = run_scenario(&registry, &Scenario::paper_figures(&config, dist)).unwrap();
            for p in &result.points {
                let [fb, fp, cmfp, dmfp] =
                    [&p.metrics[0], &p.metrics[1], &p.metrics[2], &p.metrics[3]];
                assert!(
                    cmfp.disabled_nonfaulty <= fp.disabled_nonfaulty + 1e-9,
                    "{dist:?}"
                );
                assert!(
                    fp.disabled_nonfaulty <= fb.disabled_nonfaulty + 1e-9,
                    "{dist:?}"
                );
                assert!((cmfp.disabled_nonfaulty - dmfp.disabled_nonfaulty).abs() < 1e-9);
                assert!(fp.rounds >= fb.rounds, "FP adds scheme-2 rounds");
            }
        }
    }

    #[test]
    fn disabled_nodes_grow_with_fault_count() {
        let registry = mocp_core::standard_registry();
        let scenario = Scenario::paper_figures(&SweepConfig::quick(), FaultDistribution::Clustered);
        let result = run_scenario(&registry, &scenario).unwrap();
        let first = result.points.first().unwrap();
        let last = result.points.last().unwrap();
        assert!(last.metrics[0].disabled_nonfaulty >= first.metrics[0].disabled_nonfaulty);
    }
}
