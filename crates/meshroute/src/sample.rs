//! Shared source/destination pair sampling.
//!
//! The routing experiment, the traffic simulator's reachable-pair probe and
//! the benchmark's routing workload all need "a deterministic sample of
//! node pairs". Keeping one sampler here means they measure the *same*
//! pair population, so a delivery-rate number from one layer is directly
//! comparable to the reachable-pair fraction from another.

use mesh2d::{Coord, Mesh2D};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A deterministic sample of `(source, destination)` pairs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairSample {
    pairs: Vec<(Coord, Coord)>,
}

impl PairSample {
    /// Wraps an explicit pair list.
    pub fn from_pairs(pairs: Vec<(Coord, Coord)>) -> Self {
        PairSample { pairs }
    }

    /// All ordered pairs of every `stride`-th node (row-major), source not
    /// equal to destination. Stride 1 is all-pairs — quadratic, use only on
    /// small meshes.
    pub fn strided(mesh: &Mesh2D, stride: usize) -> Self {
        let samples: Vec<Coord> = mesh.nodes().step_by(stride.max(1)).collect();
        let mut pairs = Vec::with_capacity(samples.len() * samples.len().saturating_sub(1));
        for &src in &samples {
            for &dst in &samples {
                if src != dst {
                    pairs.push((src, dst));
                }
            }
        }
        PairSample { pairs }
    }

    /// `count` uniformly random pairs (source not equal to destination),
    /// fully determined by `seed`.
    pub fn random(mesh: &Mesh2D, count: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (mesh.width(), mesh.height());
        let mut pairs = Vec::with_capacity(count);
        while pairs.len() < count {
            let src = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            let dst = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
            if src != dst {
                pairs.push((src, dst));
            }
        }
        PairSample { pairs }
    }

    /// The sampled pairs.
    pub fn pairs(&self) -> &[(Coord, Coord)] {
        &self.pairs
    }

    /// Number of pairs in the sample.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.pairs.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_matches_the_historic_all_pairs_loop() {
        let mesh = Mesh2D::square(6);
        let sample = PairSample::strided(&mesh, 3);
        let nodes: Vec<Coord> = mesh.nodes().step_by(3).collect();
        assert_eq!(sample.len(), nodes.len() * (nodes.len() - 1));
        assert!(sample.iter().all(|(s, d)| s != d));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mesh = Mesh2D::square(20);
        let a = PairSample::random(&mesh, 50, 7);
        let b = PairSample::random(&mesh, 50, 7);
        let c = PairSample::random(&mesh, 50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
        assert!(a
            .iter()
            .all(|(s, d)| mesh.contains(s) && mesh.contains(d) && s != d));
    }
}
