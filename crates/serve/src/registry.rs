//! Immutable multi-model registry.
//!
//! Models are compiled once ([`CompiledSim`]) and shared immutably —
//! every session of every scheduler holds the same `Arc`, so serving a
//! model to a million sessions costs one compilation and zero copies.
//! Immutability is also a robustness property: no fault anywhere in the
//! serving tier can corrupt a registered model, so recovery never needs
//! to re-validate them.

use std::sync::Arc;

use rvf_core::CompiledSim;

use crate::error::ServeError;
use crate::wire::SnapshotModel;

/// Stable handle to a model in a [`ModelRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub(crate) usize);

impl ModelId {
    /// The raw registry index.
    pub(crate) fn index(&self) -> usize {
        self.0
    }
}

/// An immutable set of named, compiled, `Arc`-shared models.
///
/// Built once with [`ModelRegistry::build`]; afterwards the registry
/// only hands out shared references. There is deliberately no way to
/// mutate or remove a registered model — swap in a new registry to
/// deploy new models.
///
/// # Examples
///
/// ```
/// use rvf_core::SimBuilder;
/// use rvf_serve::ModelRegistry;
///
/// let mut b = SimBuilder::new();
/// let s = b.drive_poly(&[0.0, 1.0]);
/// b.set_static_drive(s);
/// b.block_real(-1.0e9, s);
/// let registry = ModelRegistry::build([("lowpass".to_string(), b.try_build().unwrap())]);
/// let id = registry.id("lowpass").unwrap();
/// assert!(registry.get(id).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    names: Vec<String>,
    models: Vec<Arc<CompiledSim>>,
}

impl ModelRegistry {
    /// Builds a registry from `(name, compiled model)` pairs. Later
    /// duplicates of a name shadow earlier ones in
    /// [`id`](ModelRegistry::id) lookups but keep their own slot.
    pub fn build(entries: impl IntoIterator<Item = (String, CompiledSim)>) -> Self {
        let mut names = Vec::new();
        let mut models = Vec::new();
        for (name, sim) in entries {
            names.push(name);
            models.push(Arc::new(sim));
        }
        Self { names, models }
    }

    /// Looks a model up by name (last registration wins).
    pub fn id(&self, name: &str) -> Option<ModelId> {
        self.names.iter().rposition(|n| n == name).map(ModelId)
    }

    /// The shared compiled model behind `id`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an id that is not in this
    /// registry.
    pub fn get(&self, id: ModelId) -> Result<&Arc<CompiledSim>, ServeError> {
        self.models.get(id.0).ok_or(ServeError::UnknownModel { id: id.0 })
    }

    /// The name a model was registered under.
    pub(crate) fn name(&self, id: ModelId) -> Option<&str> {
        self.names.get(id.0).map(String::as_str)
    }

    /// Every entry's name and table fingerprint, in index order — the
    /// model list a scheduler snapshot records.
    pub(crate) fn snapshot_models(&self) -> Vec<SnapshotModel> {
        let entries = self.names.iter().zip(&self.models);
        entries
            .map(|(name, sim)| SnapshotModel { name: name.clone(), fingerprint: sim.fingerprint() })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvf_core::SimBuilder;

    fn tiny_model(a: f64) -> CompiledSim {
        let mut b = SimBuilder::new();
        let s = b.drive_poly(&[0.0, 1.0]);
        b.set_static_drive(s);
        b.block_real(a, s);
        b.try_build().unwrap()
    }

    #[test]
    fn lookup_get_and_shadowing() {
        let reg = ModelRegistry::build([
            ("a".to_string(), tiny_model(-1.0e9)),
            ("b".to_string(), tiny_model(-2.0e9)),
            ("a".to_string(), tiny_model(-3.0e9)),
        ]);
        assert_eq!(reg.id("a"), Some(ModelId(2)), "last registration wins");
        assert_eq!(reg.id("b"), Some(ModelId(1)));
        assert_eq!(reg.id("missing"), None);
        assert!(reg.get(ModelId(1)).is_ok());
        assert_eq!(reg.get(ModelId(9)).unwrap_err(), ServeError::UnknownModel { id: 9 });
        assert_eq!(reg.name(ModelId(0)), Some("a"));
        // Shared, not copied: two lookups alias the same compiled model.
        let x = Arc::clone(reg.get(ModelId(0)).unwrap());
        assert!(Arc::ptr_eq(&x, reg.get(ModelId(0)).unwrap()));
    }

    #[test]
    fn empty_registry() {
        let reg = ModelRegistry::build([]);
        assert_eq!(reg.id("x"), None);
        assert!(matches!(reg.get(ModelId(0)), Err(ServeError::UnknownModel { id: 0 })));
    }
}
