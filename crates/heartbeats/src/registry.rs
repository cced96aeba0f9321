//! A process-wide registry of heartbeat-enabled applications.
//!
//! The paper's external observers (the scheduler of Section 5.3, system
//! administrative tools, an organic OS) need to *discover* heartbeat-enabled
//! applications and attach to their heartbeat data. Across processes that is
//! the role of the file / shared-memory backends; inside a single process (or
//! a simulation hosting many "applications") the [`Registry`] provides the
//! same discovery: producers register by name, observers look them up and get
//! a [`HeartbeatReader`].

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::heartbeat::Shared;
use crate::reader::HeartbeatReader;
use crate::{HeartbeatError, Result};

/// A name-indexed collection of heartbeat-enabled applications.
#[derive(Debug, Default)]
pub struct Registry {
    apps: RwLock<HashMap<String, Arc<Shared>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry used by
    /// [`HeartbeatBuilder::register`](crate::HeartbeatBuilder::register) and
    /// the C FFI layer.
    pub fn global() -> &'static Registry {
        static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    pub(crate) fn insert(&self, shared: Arc<Shared>) -> Result<()> {
        let mut apps = self.apps.write().unwrap_or_else(|e| e.into_inner());
        if apps.contains_key(&shared.name) {
            return Err(HeartbeatError::AlreadyRegistered(shared.name.clone()));
        }
        apps.insert(shared.name.clone(), shared);
        Ok(())
    }

    /// Removes an application from the registry. Returns `true` if it was
    /// present.
    pub fn unregister(&self, name: &str) -> bool {
        self.apps
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some()
    }

    /// Looks up an application and returns an observer handle.
    pub fn attach(&self, name: &str) -> Result<HeartbeatReader> {
        self.apps
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|shared| HeartbeatReader::from_shared(Arc::clone(shared)))
            .ok_or_else(|| HeartbeatError::NotRegistered(name.to_string()))
    }

    /// Names of all registered applications, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .apps
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Observer handles for every registered application.
    pub fn attach_all(&self) -> Vec<HeartbeatReader> {
        self.apps
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|shared| HeartbeatReader::from_shared(Arc::clone(shared)))
            .collect()
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.apps.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.apps
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Removes every registered application.
    pub fn clear(&self) {
        self.apps.write().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HeartbeatBuilder;
    use crate::clock::ManualClock;

    fn build_in(registry: &Registry, name: &str) -> (crate::Heartbeat, ManualClock) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new(name)
            .clock(Arc::new(clock.clone()))
            .register_in(registry)
            .build()
            .unwrap();
        (hb, clock)
    }

    #[test]
    fn register_and_attach() {
        let registry = Registry::new();
        assert!(registry.is_empty());
        let (hb, clock) = build_in(&registry, "dedup");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.list(), vec!["dedup".to_string()]);

        let reader = registry.attach("dedup").unwrap();
        clock.advance_ns(10);
        hb.heartbeat();
        assert_eq!(reader.total_beats(), 1);
    }

    #[test]
    fn attach_unknown_app_fails() {
        let registry = Registry::new();
        assert!(matches!(
            registry.attach("missing"),
            Err(HeartbeatError::NotRegistered(_))
        ));
    }

    #[test]
    fn duplicate_registration_fails() {
        let registry = Registry::new();
        let _first = build_in(&registry, "ferret");
        let clock = ManualClock::new();
        let second = HeartbeatBuilder::new("ferret")
            .clock(Arc::new(clock))
            .register_in(&registry)
            .build();
        assert!(matches!(
            second,
            Err(HeartbeatError::AlreadyRegistered(name)) if name == "ferret"
        ));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn unregister_and_clear() {
        let registry = Registry::new();
        let _a = build_in(&registry, "a");
        let _b = build_in(&registry, "b");
        assert_eq!(registry.len(), 2);
        assert!(registry.unregister("a"));
        assert!(!registry.unregister("a"));
        assert_eq!(registry.len(), 1);
        registry.clear();
        assert!(registry.is_empty());
    }

    #[test]
    fn list_is_sorted_and_attach_all_covers_everything() {
        let registry = Registry::new();
        let _c = build_in(&registry, "canneal");
        let _a = build_in(&registry, "blackscholes");
        let _b = build_in(&registry, "bodytrack");
        assert_eq!(
            registry.list(),
            vec![
                "blackscholes".to_string(),
                "bodytrack".to_string(),
                "canneal".to_string()
            ]
        );
        assert_eq!(registry.attach_all().len(), 3);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global() as *const Registry;
        let b = Registry::global() as *const Registry;
        assert_eq!(a, b);
    }
}
