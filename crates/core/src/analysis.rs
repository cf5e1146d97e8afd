//! High-level entry points: the CMFP fault model and the cross-model
//! analysis helper.

use crate::component::{merge_components, FaultyComponent};
use crate::superseding::pile_polygons;
use distsim::RoundStats;
use fblock::{FaultModel, FaultyBlockModel, ModelOutcome, SubMinimumPolygonModel};
use mesh2d::{BitGrid, BitScratch, Connectivity, FaultSet, Mesh2D, NodeStatus, Region, StatusMap};
use serde::{Deserialize, Serialize};

/// Size cap under which the fused construction re-verifies against the
/// staged merge/solve/pile pipeline in debug builds.
const ORACLE_NODE_CAP: usize = 1024;

/// Fault count from which the concave-section CMFP construction prefers
/// the staged pipeline (whose per-component solves fan out over the
/// thread pool) over the fused single-pass construction. Below this the
/// fused path's zero-materialization wins even against several cores.
const PARALLEL_FAULT_THRESHOLD: usize = 128;

/// Which centralized formulation computes the per-component polygons.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum CentralizedSolution {
    /// Solution 1: emulate labelling schemes 1 and 2 on each component's
    /// virtual faulty block. Round counts are the per-component labelling
    /// rounds (the CMFP series of Figure 11).
    #[default]
    VirtualBlock,
    /// Solution 2: disable every node on a concave row/column section.
    /// Reported "rounds" are scan iterations (an algorithmic metric for
    /// comparing the two solutions, not neighbor exchanges).
    ConcaveSections,
}

/// The centralized minimum faulty polygon construction (model name `CMFP`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CentralizedMfpModel {
    /// Formulation used to compute each component's polygon.
    pub solution: CentralizedSolution,
}

impl CentralizedMfpModel {
    /// A model using centralized solution 1 (virtual faulty blocks).
    pub fn virtual_block() -> Self {
        CentralizedMfpModel {
            solution: CentralizedSolution::VirtualBlock,
        }
    }

    /// A model using centralized solution 2 (concave row/column sections).
    pub fn concave_sections() -> Self {
        CentralizedMfpModel {
            solution: CentralizedSolution::ConcaveSections,
        }
    }

    /// Solves every component and returns the per-component polygons together
    /// with the network-wide round statistics (components are constructed in
    /// disjoint areas of the mesh, so their rounds compose in parallel).
    ///
    /// Each component is solved through the shared per-component entry point
    /// ([`construct_component`](crate::construction::construct_component)),
    /// the same path the incremental maintenance
    /// engine uses for its dirty components.
    pub fn solve_components(
        &self,
        mesh: &Mesh2D,
        components: &[FaultyComponent],
    ) -> (Vec<Region>, RoundStats) {
        use rayon::prelude::*;
        // With a pool, independent components fan out across the workers,
        // each chunk with its own scratch (no shared mutable scratch
        // across tasks); sequentially one scratch serves every component:
        // the hull fixpoint re-frames the same buffers instead of
        // allocating per component. The ordered collect keeps component
        // order, and the round composition (max rounds, summed events) is
        // fold-order-independent, so both paths report identical stats.
        let solutions: Vec<crate::construction::ComponentPolygon> =
            if components.len() > 1 && rayon::current_num_threads() > 1 {
                components
                    .par_iter()
                    .map_init(
                        crate::construction::ConstructionScratch::new,
                        |scratch, c| {
                            crate::construction::construct_component_with(
                                mesh,
                                c,
                                self.solution,
                                scratch,
                            )
                        },
                    )
                    .collect()
            } else {
                let mut scratch = crate::construction::ConstructionScratch::new();
                components
                    .iter()
                    .map(|c| {
                        crate::construction::construct_component_with(
                            mesh,
                            c,
                            self.solution,
                            &mut scratch,
                        )
                    })
                    .collect()
            };
        let mut polygons = Vec::with_capacity(components.len());
        let mut rounds = RoundStats::quiescent();
        for sol in solutions {
            rounds = rounds.in_parallel_with(sol.rounds);
            polygons.push(sol.polygon);
        }
        (polygons, rounds)
    }
}

impl FaultModel for CentralizedMfpModel {
    fn name(&self) -> &'static str {
        "CMFP"
    }

    fn construct(&self, mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
        match self.solution {
            // The concave-section construction runs fully fused on the
            // packed fault bitmap: word-flood labelling straight into the
            // per-component hull fixpoint, materializing only the output
            // polygons — no intermediate component regions at all.
            CentralizedSolution::ConcaveSections => {
                // With an active pool and enough faults, the staged
                // pipeline wins: its per-component solves run on the
                // workers, while the fused pass is inherently serial.
                // Both produce identical outcomes (the debug oracles
                // below and in the fused branch pin the equivalence from
                // both directions).
                if rayon::current_num_threads() > 1 && faults.len() >= PARALLEL_FAULT_THRESHOLD {
                    let components = merge_components(faults);
                    let (polygons, rounds) = self.solve_components(mesh, &components);
                    let status = pile_polygons(mesh, faults, &polygons);
                    let outcome = ModelOutcome {
                        model: "CMFP".to_string(),
                        status,
                        regions: polygons,
                        rounds,
                    };
                    debug_assert!(
                        faults.len() > ORACLE_NODE_CAP || {
                            let fused = construct_concave_fused(mesh, faults);
                            fused.regions == outcome.regions
                                && fused.rounds == outcome.rounds
                                && fused.status == outcome.status
                        },
                        "staged parallel construction diverged from the fused pass"
                    );
                    return outcome;
                }
                let outcome = construct_concave_fused(mesh, faults);
                debug_assert!(
                    faults.len() > ORACLE_NODE_CAP || {
                        let components = merge_components(faults);
                        let (polygons, rounds) = self.solve_components(mesh, &components);
                        polygons == outcome.regions
                            && rounds == outcome.rounds
                            && pile_polygons(mesh, faults, &polygons) == outcome.status
                    },
                    "fused concave construction diverged from the staged pipeline"
                );
                outcome
            }
            CentralizedSolution::VirtualBlock => {
                let components = merge_components(faults);
                let (polygons, rounds) = self.solve_components(mesh, &components);
                let status = pile_polygons(mesh, faults, &polygons);
                ModelOutcome {
                    model: "CMFP".to_string(),
                    status,
                    regions: polygons,
                    rounds,
                }
            }
        }
    }
}

/// The fused concave-section CMFP construction: one packed fault bitmap,
/// word-flood component labelling, the bit-parallel hull fixpoint in each
/// component's own grid, and the superseding pile applied straight from
/// the packed polygons.
fn construct_concave_fused(mesh: &Mesh2D, faults: &FaultSet) -> ModelOutcome {
    let mut scratch = BitScratch::new();
    let mut rounds = RoundStats::quiescent();
    let mut status = StatusMap::all_enabled(mesh);
    // One pass marks the faults and finds their bounding box; a second
    // packs them — no intermediate coordinate vector.
    let mut bounds: Option<(mesh2d::Coord, mesh2d::Coord)> = None;
    for &c in faults.in_insertion_order() {
        status.set(c, NodeStatus::Faulty);
        bounds = Some(match bounds {
            None => (c, c),
            Some((lo, hi)) => (
                mesh2d::Coord::new(lo.x.min(c.x), lo.y.min(c.y)),
                mesh2d::Coord::new(hi.x.max(c.x), hi.y.max(c.y)),
            ),
        });
    }
    let bits = match bounds {
        None => BitGrid::empty(),
        Some((lo, hi)) => {
            let mut bits = BitGrid::with_bounds(lo, hi);
            for &c in faults.in_insertion_order() {
                bits.set(c);
            }
            bits
        }
    };
    // Hull-fill each component in place inside the shared flood buffer —
    // no per-component grid is ever allocated — then sort the extracted
    // polygons into the merge process's x-major component order (the
    // round composition is order-independent: max rounds, summed events).
    let mut polygons: Vec<(mesh2d::Coord, Region)> = Vec::new();
    bits.for_each_component_with(Connectivity::Eight, &mut scratch, |view| {
        let key = view.min_coord_x_major();
        let (iterations, added) = view.hull_fixpoint();
        mocp_obs::counter!("construct.components").inc();
        mocp_obs::counter!("construct.fixpoint_rounds").add(iterations as u64);
        mocp_obs::counter!("construct.nodes_added").add(added);
        mocp_obs::histogram!("construct.rounds_per_component").record(iterations as u64);
        rounds = rounds.in_parallel_with(RoundStats {
            rounds: iterations,
            events: added,
            converged: true,
        });
        for c in view.iter() {
            status.supersede(c, NodeStatus::Disabled);
        }
        polygons.push((key, view.to_region()));
    });
    polygons.sort_by_key(|&(key, _)| key);
    ModelOutcome {
        model: "CMFP".to_string(),
        status,
        regions: polygons.into_iter().map(|(_, region)| region).collect(),
        rounds,
    }
}

/// Runs all four fault models (FB, FP, CMFP, DMFP) on the same fault pattern
/// and keeps their outcomes side by side — the comparison the paper's
/// Figures 9–11 are built from.
#[derive(Clone, Debug)]
pub struct MfpAnalysis {
    /// Rectangular faulty block outcome.
    pub fb: ModelOutcome,
    /// Sub-minimum faulty polygon outcome (Wu, IPDPS 2001).
    pub fp: ModelOutcome,
    /// Centralized minimum faulty polygon outcome.
    pub cmfp: ModelOutcome,
    /// Distributed minimum faulty polygon outcome.
    pub dmfp: ModelOutcome,
}

impl MfpAnalysis {
    /// Runs the four constructions on the same mesh and fault set.
    pub fn run(mesh: &Mesh2D, faults: &FaultSet) -> Self {
        MfpAnalysis {
            fb: FaultyBlockModel.construct(mesh, faults),
            fp: SubMinimumPolygonModel.construct(mesh, faults),
            cmfp: CentralizedMfpModel::virtual_block().construct(mesh, faults),
            dmfp: crate::distributed::protocol::DistributedMfpModel.construct(mesh, faults),
        }
    }

    /// The outcomes in presentation order (FB, FP, CMFP, DMFP).
    pub fn all(&self) -> [&ModelOutcome; 4] {
        [&self.fb, &self.fp, &self.cmfp, &self.dmfp]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Coord;

    fn faults(mesh: Mesh2D, list: &[(i32, i32)]) -> FaultSet {
        FaultSet::from_coords(mesh, list.iter().map(|&(x, y)| Coord::new(x, y)))
    }

    #[test]
    fn both_centralized_solutions_agree() {
        let mesh = Mesh2D::square(16);
        let fs = faults(
            mesh,
            &[
                (2, 2),
                (3, 2),
                (4, 2),
                (2, 3),
                (4, 3),
                (2, 4),
                (4, 4),
                (9, 9),
                (10, 10),
                (11, 9),
                (10, 8),
                (0, 15),
                (1, 14),
            ],
        );
        let a = CentralizedMfpModel::virtual_block().construct(&mesh, &fs);
        let b = CentralizedMfpModel::concave_sections().construct(&mesh, &fs);
        assert_eq!(a.status, b.status);
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn cmfp_never_disables_more_than_fp() {
        // The paper's Theorem: the per-component polygons contain no more
        // non-faulty nodes than any covering set of convex polygons — in
        // particular no more than the sub-minimum polygons.
        let mesh = Mesh2D::square(20);
        let fs = faults(
            mesh,
            &[
                (2, 6),
                (3, 7),
                (3, 5),
                (2, 4),
                (7, 6),
                (7, 5),
                (8, 5),
                (8, 4),
                (9, 4),
                (7, 7),
                (14, 14),
                (15, 15),
                (16, 14),
            ],
        );
        let fp = SubMinimumPolygonModel.construct(&mesh, &fs);
        let cmfp = CentralizedMfpModel::virtual_block().construct(&mesh, &fs);
        assert!(cmfp.disabled_nonfaulty() <= fp.disabled_nonfaulty());
        assert!(cmfp.covers_all_faults());
        assert!(cmfp.all_regions_convex());
    }

    #[test]
    fn cmfp_outcome_metadata() {
        let mesh = Mesh2D::square(10);
        let fs = faults(mesh, &[(2, 2), (3, 3), (7, 7)]);
        let outcome = CentralizedMfpModel::default().construct(&mesh, &fs);
        assert_eq!(outcome.model, "CMFP");
        assert_eq!(outcome.regions.len(), 2);
        assert!(outcome.rounds.converged);
        assert_eq!(CentralizedMfpModel::default().name(), "CMFP");
    }

    #[test]
    fn analysis_runs_all_models_consistently() {
        let mesh = Mesh2D::square(14);
        let fs = faults(mesh, &[(3, 3), (4, 4), (5, 3), (4, 2), (9, 9), (10, 10)]);
        let analysis = MfpAnalysis::run(&mesh, &fs);
        for outcome in analysis.all() {
            assert!(outcome.covers_all_faults(), "{}", outcome.model);
            assert_eq!(outcome.faulty_count(), fs.len(), "{}", outcome.model);
        }
        // The ordering the paper reports: MFP disables no more than FP, which
        // disables no more than FB.
        assert!(analysis.cmfp.disabled_nonfaulty() <= analysis.fp.disabled_nonfaulty());
        assert!(analysis.fp.disabled_nonfaulty() <= analysis.fb.disabled_nonfaulty());
        assert_eq!(
            analysis.cmfp.disabled_nonfaulty(),
            analysis.dmfp.disabled_nonfaulty()
        );
    }

    #[test]
    fn empty_fault_set_produces_empty_outcome() {
        let mesh = Mesh2D::square(8);
        let outcome = CentralizedMfpModel::default().construct(&mesh, &FaultSet::new(mesh));
        assert!(outcome.regions.is_empty());
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        assert_eq!(outcome.rounds.rounds, 0);
    }
}
