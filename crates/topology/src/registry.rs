//! Name-keyed registry of fault-model constructors.
//!
//! The experiment harness, the benchmark and the examples all need to turn
//! a model *name* ("FB", "CMFP", "MFP3D", …) into a ready-to-run
//! [`FaultModel`]. A scenario lists model names and resolves them through
//! one registry, so adding a model to every sweep is a single
//! [`NamedRegistry::register`] call.
//!
//! The registry machinery itself — name → boxed-constructor entries with
//! case-insensitive lookup and registration order — is independent of
//! *which* model trait is being constructed, so it is provided as the
//! generic [`NamedRegistry`]. [`ModelRegistry`] instantiates it for the
//! generic [`FaultModel`] of a topology: the 2-D registry
//! (`fblock::ModelRegistry`) is `ModelRegistry<Mesh2D>` and the 3-D
//! registry (`mocp_3d::ModelRegistry3`) is `ModelRegistry<Mesh3D>` — one
//! type, two instantiations, one scenario runner over both.

use crate::mesh::MeshTopology;
use crate::model::{FaultModel, Outcome};
use std::fmt;

/// A boxed, thread-shareable fault model for topology `T`, as produced by
/// the registry.
pub type BoxedModel<T> = Box<dyn FaultModel<T> + Send + Sync>;

/// Registry mapping model names to constructors for topology `T`.
pub type ModelRegistry<T> = NamedRegistry<dyn FaultModel<T> + Send + Sync>;

/// One registered model: its name, a one-line description, and the
/// factory producing fresh instances.
struct ModelEntry<M: ?Sized> {
    name: &'static str,
    description: &'static str,
    factory: Box<dyn Fn() -> Box<M> + Send + Sync>,
}

/// Registry mapping names to boxed constructors of some model trait `M`
/// (a `dyn Trait + Send + Sync` type in practice).
///
/// Lookup is case-insensitive (ASCII) so CLI flags like `--models fb,fp`
/// resolve; registered names keep their canonical spelling and
/// registration order, which is the order sweeps report them in.
pub struct NamedRegistry<M: ?Sized> {
    entries: Vec<ModelEntry<M>>,
}

impl<M: ?Sized> Default for NamedRegistry<M> {
    fn default() -> Self {
        NamedRegistry {
            entries: Vec::new(),
        }
    }
}

impl<M: ?Sized> NamedRegistry<M> {
    /// An empty registry.
    pub fn empty() -> Self {
        NamedRegistry::default()
    }

    /// Registers a model under `name`. Panics if the name (ignoring ASCII
    /// case) is already taken — duplicate registrations are programming
    /// errors, not runtime conditions.
    pub fn register(
        &mut self,
        name: &'static str,
        description: &'static str,
        factory: impl Fn() -> Box<M> + Send + Sync + 'static,
    ) {
        assert!(!self.contains(name), "model {name:?} is already registered");
        self.entries.push(ModelEntry {
            name,
            description,
            factory: Box::new(factory),
        });
    }

    fn entry(&self, name: &str) -> Option<&ModelEntry<M>> {
        self.entries
            .iter()
            .find(|e| e.name.eq_ignore_ascii_case(name))
    }

    /// True when `name` resolves to a registered model.
    pub fn contains(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// Builds a fresh instance of the named model.
    pub fn build(&self, name: &str) -> Result<Box<M>, UnknownModel> {
        match self.entry(name) {
            Some(entry) => Ok((entry.factory)()),
            None => Err(UnknownModel {
                requested: name.to_string(),
                known: self.names().collect(),
            }),
        }
    }

    /// Canonical model names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.name)
    }

    /// `(name, description)` pairs, in registration order.
    pub fn descriptions(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.entries.iter().map(|e| (e.name, e.description))
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<T: MeshTopology> ModelRegistry<T> {
    /// Resolves `name` and runs its construction in one call — the same
    /// entry point for every dimension.
    pub fn construct(
        &self,
        name: &str,
        mesh: &T,
        faults: &T::FaultSet,
    ) -> Result<Outcome<T>, UnknownModel> {
        Ok(self.build(name)?.construct(mesh, faults))
    }
}

impl<M: ?Sized> fmt::Debug for NamedRegistry<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamedRegistry")
            .field("models", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

/// Error returned when a model name does not resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownModel {
    /// The name that failed to resolve.
    pub requested: String,
    /// The names that would have resolved, in registration order.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fault model {:?} (known models: {})",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownModel {}

#[cfg(test)]
mod tests {
    use super::*;
    use distsim::RoundStats;
    use mesh2d::{Coord, Mesh2D, StatusMap};

    /// A registry is usable with nothing but this crate: a trivial model
    /// that disables nothing.
    struct NullModel;

    impl FaultModel for NullModel {
        fn name(&self) -> &'static str {
            "NULL"
        }
        fn construct(&self, mesh: &Mesh2D, faults: &mesh2d::FaultSet) -> Outcome<Mesh2D> {
            Outcome {
                model: self.name().to_string(),
                status: StatusMap::from_faults(mesh, &faults.region()),
                regions: faults
                    .region()
                    .components(mesh2d::Connectivity::Eight)
                    .into_iter()
                    .collect(),
                rounds: RoundStats::quiescent(),
            }
        }
    }

    fn null_registry() -> ModelRegistry<Mesh2D> {
        let mut registry = ModelRegistry::<Mesh2D>::empty();
        registry.register("NULL", "covers faults with their own components", || {
            Box::new(NullModel)
        });
        registry
    }

    #[test]
    fn lookup_is_case_insensitive_but_names_stay_canonical() {
        let registry = null_registry();
        assert!(registry.contains("null"));
        assert_eq!(registry.build("NuLl").unwrap().name(), "NULL");
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
    }

    #[test]
    fn unknown_name_reports_the_known_models() {
        let registry = null_registry();
        let err = match registry.build("MFP?") {
            Ok(model) => panic!("{:?} should not resolve", model.name()),
            Err(err) => err,
        };
        assert_eq!(err.requested, "MFP?");
        assert_eq!(err.known, vec!["NULL"]);
        let msg = err.to_string();
        assert!(msg.contains("MFP?") && msg.contains("NULL"), "{msg}");
    }

    #[test]
    fn construct_runs_the_resolved_model() {
        let registry = null_registry();
        let mesh = Mesh2D::square(6);
        let faults = mesh2d::FaultSet::from_coords(mesh, [Coord::new(1, 1), Coord::new(2, 2)]);
        let outcome = registry.construct("NULL", &mesh, &faults).unwrap();
        assert_eq!(outcome.model, "NULL");
        assert!(outcome.covers_all_faults());
        assert_eq!(outcome.disabled_nonfaulty(), 0);
        let err = registry.construct("nope", &mesh, &faults).unwrap_err();
        assert_eq!(err.requested, "nope");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut registry = null_registry();
        registry.register("null", "case-insensitive duplicate", || Box::new(NullModel));
    }
}
