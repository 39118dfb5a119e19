//! Packages, the iGOC Pacman cache, and dependency resolution.
//!
//! §5.4: the iGOC hosted "the Pacman cache" from which every site pulled
//! the Grid3 installation. A package names its dependencies; installing a
//! package means installing its transitive closure in dependency order.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A Pacman package: a named, versioned unit with dependencies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Package {
    /// Package name, e.g. `"vdt-globus"`.
    pub name: String,
    /// Version string, e.g. `"1.1.8"`.
    pub version: String,
    /// Names of packages that must be installed first.
    pub depends: Vec<String>,
    /// Relative install effort (drives simulated install duration).
    pub install_cost: u32,
}

impl Package {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        version: impl Into<String>,
        depends: &[&str],
        install_cost: u32,
    ) -> Self {
        Package {
            name: name.into(),
            version: version.into(),
            depends: depends.iter().map(|d| d.to_string()).collect(),
            install_cost,
        }
    }
}

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolveError {
    /// A named package is not in the cache.
    Missing(
        /// The missing package name.
        String,
    ),
    /// The dependency graph contains a cycle through this package.
    Cycle(
        /// A package on the cycle.
        String,
    ),
}

/// The package cache served by the iGOC.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PackageCache {
    packages: BTreeMap<String, Package>,
}

impl PackageCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a package.
    pub fn add(&mut self, package: Package) {
        self.packages.insert(package.name.clone(), package);
    }

    /// Look up a package by name.
    #[cfg(test)]
    pub(crate) fn get(&self, name: &str) -> Option<&Package> {
        self.packages.get(name)
    }

    /// Number of packages in the cache.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.packages.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Resolve the transitive closure of `root` into install order
    /// (dependencies before dependents). Deterministic: dependencies are
    /// visited in declaration order.
    pub fn resolve(&self, root: &str) -> Result<Vec<&Package>, ResolveError> {
        let mut order: Vec<&Package> = Vec::new();
        let mut done: BTreeSet<&str> = BTreeSet::new();
        let mut in_progress: BTreeSet<&str> = BTreeSet::new();
        self.visit(root, &mut order, &mut done, &mut in_progress)?;
        Ok(order)
    }

    fn visit<'a>(
        &'a self,
        name: &str,
        order: &mut Vec<&'a Package>,
        done: &mut BTreeSet<&'a str>,
        in_progress: &mut BTreeSet<&'a str>,
    ) -> Result<(), ResolveError> {
        if done.contains(name) {
            return Ok(());
        }
        let pkg = self
            .packages
            .get(name)
            .ok_or_else(|| ResolveError::Missing(name.to_string()))?;
        if !in_progress.insert(&pkg.name) {
            return Err(ResolveError::Cycle(name.to_string()));
        }
        for dep in &pkg.depends {
            self.visit(dep, order, done, in_progress)?;
        }
        in_progress.remove(pkg.name.as_str());
        done.insert(&pkg.name);
        order.push(pkg);
        Ok(())
    }
}

/// The standard Grid3 cache: the VDT-based installation §5.1 enumerates —
/// GSI, GRAM and GridFTP from the Globus Toolkit, Condor, the MDS
/// information service with Grid3 schema extensions, Ganglia, and the
/// MonALISA client and server, all rooted at the `grid3` meta-package.
pub fn grid3_package_cache() -> PackageCache {
    let mut cache = PackageCache::new();
    cache.add(Package::new("gpt", "3.0", &[], 1));
    cache.add(Package::new("vdt-globus-gsi", "2.4", &["gpt"], 2));
    cache.add(Package::new(
        "vdt-globus-gram",
        "2.4",
        &["vdt-globus-gsi"],
        3,
    ));
    cache.add(Package::new(
        "vdt-globus-gridftp",
        "2.4",
        &["vdt-globus-gsi"],
        2,
    ));
    cache.add(Package::new("vdt-condor", "6.6", &["gpt"], 3));
    cache.add(Package::new("vdt-mds", "2.4", &["vdt-globus-gsi"], 2));
    cache.add(Package::new("grid3-schema-ext", "1.0", &["vdt-mds"], 1));
    cache.add(Package::new("ganglia", "2.5", &[], 1));
    cache.add(Package::new("monalisa-client", "0.9", &[], 1));
    cache.add(Package::new(
        "monalisa-server",
        "0.9",
        &["monalisa-client"],
        1,
    ));
    cache.add(Package::new(
        "grid3-info-providers",
        "1.0",
        &["grid3-schema-ext", "ganglia"],
        1,
    ));
    cache.add(Package::new(
        "grid3",
        "1.0",
        &[
            "vdt-globus-gram",
            "vdt-globus-gridftp",
            "vdt-condor",
            "grid3-info-providers",
            "monalisa-server",
        ],
        2,
    ));
    cache
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid3_cache_resolves_rooted_at_meta_package() {
        let cache = grid3_package_cache();
        let plan = cache.resolve("grid3").unwrap();
        // Everything in the cache participates in the grid3 closure.
        assert_eq!(plan.len(), cache.len());
        // Dependencies strictly precede dependents.
        let pos = |n: &str| plan.iter().position(|p| p.name == n).unwrap();
        for p in &plan {
            for d in &p.depends {
                assert!(pos(d) < pos(&p.name), "{d} must precede {}", p.name);
            }
        }
        // The meta-package is installed last.
        assert_eq!(plan.last().unwrap().name, "grid3");
    }

    #[test]
    fn shared_dependencies_install_once() {
        let cache = grid3_package_cache();
        let plan = cache.resolve("grid3").unwrap();
        let mut names: Vec<&str> = plan.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "no duplicates in install order");
    }

    #[test]
    fn missing_dependency_reported() {
        let mut cache = PackageCache::new();
        cache.add(Package::new("a", "1", &["ghost"], 1));
        assert_eq!(
            cache.resolve("a"),
            Err(ResolveError::Missing("ghost".into()))
        );
        assert_eq!(
            cache.resolve("nope"),
            Err(ResolveError::Missing("nope".into()))
        );
    }

    #[test]
    fn cycle_detected() {
        let mut cache = PackageCache::new();
        cache.add(Package::new("a", "1", &["b"], 1));
        cache.add(Package::new("b", "1", &["c"], 1));
        cache.add(Package::new("c", "1", &["a"], 1));
        assert!(matches!(cache.resolve("a"), Err(ResolveError::Cycle(_))));
        // Self-cycle too.
        cache.add(Package::new("solo", "1", &["solo"], 1));
        assert!(matches!(cache.resolve("solo"), Err(ResolveError::Cycle(_))));
    }

    #[test]
    fn diamond_dependencies_resolve() {
        let mut cache = PackageCache::new();
        cache.add(Package::new("base", "1", &[], 1));
        cache.add(Package::new("left", "1", &["base"], 1));
        cache.add(Package::new("right", "1", &["base"], 1));
        cache.add(Package::new("top", "1", &["left", "right"], 1));
        let plan = cache.resolve("top").unwrap();
        let names: Vec<&str> = plan.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["base", "left", "right", "top"]);
    }

    #[test]
    fn replace_updates_version() {
        let mut cache = grid3_package_cache();
        cache.add(Package::new("ganglia", "3.0", &[], 1));
        assert_eq!(cache.get("ganglia").unwrap().version, "3.0");
    }
}
