//! The pattern-directed software repository (E11) — §1:
//!
//! "The ActorSpace model allows open flexible interfaces for
//! pattern-directed retrieval from software repositories. … Consider each
//! class as a 'factory' actor which may return its instances. The interface
//! specifications of classes may be represented as attributes which are
//! then used to dynamically access classes from the library."
//!
//! The workload builds a class library of `size` factory actors whose
//! attributes encode a package / interface / version taxonomy
//! (`pkg-3/iface-1/v2`), then measures exact and wildcard lookups against
//! the same library served by the global name-server baseline (which can
//! only answer exact queries).

use std::collections::HashMap;
use std::time::Duration;

use actorspace_atoms::{atom, path, Atom, Path};
use actorspace_baselines::NameServer;
use actorspace_core::{policy::ManagerPolicy, ActorId, ShardedRegistry, SpaceId};
use actorspace_pattern::Pattern;

/// A repository built directly on the core coordinator (no scheduling
/// noise — E11 measures *resolution*, not delivery).
pub struct Repository {
    /// The coordinator holding the library space.
    pub registry: ShardedRegistry<u64>,
    /// The library actorSpace.
    pub space: SpaceId,
    /// Factory ids by (package, interface, version).
    pub factories: HashMap<(usize, usize, usize), ActorId>,
    /// Every factory's attribute path.
    pub attrs: Vec<(ActorId, Path)>,
}

/// Shape of the taxonomy: how many interfaces per package, versions per
/// interface.
pub const IFACES_PER_PKG: usize = 8;
/// Versions per interface.
pub const VERSIONS: usize = 4;

/// Builds a library with `size` factories.
pub fn build_repository(size: usize) -> Repository {
    let registry: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let space = registry.create_space(None);
    let mut factories = HashMap::new();
    let mut attrs = Vec::new();
    let mut out = Vec::new();
    for k in 0..size {
        let pkg = k / (IFACES_PER_PKG * VERSIONS);
        let iface = (k / VERSIONS) % IFACES_PER_PKG;
        let ver = k % VERSIONS;
        let id = registry
            .create_actor(space, None)
            .expect("library space exists");
        let attr = path(&format!("pkg-{pkg}/iface-{iface}/v{ver}"));
        registry
            .make_visible(id.into(), vec![attr.clone()], space, None, &mut out)
            .expect("factory registration");
        factories.insert((pkg, iface, ver), id);
        attrs.push((id, attr));
    }
    Repository {
        registry,
        space,
        factories,
        attrs,
    }
}

/// Builds the equivalent name-server library: one exact name per factory.
pub fn build_name_server(repo: &Repository) -> NameServer {
    let ns = NameServer::new();
    for (id, attr) in &repo.attrs {
        ns.register(atom(&attr.to_string()), id.0);
    }
    ns
}

/// The exact query for one factory.
pub fn exact_query(pkg: usize, iface: usize, ver: usize) -> Pattern {
    Pattern::parse(&format!("pkg-{pkg}/iface-{iface}/v{ver}")).expect("valid pattern")
}

/// A wildcard query: every version of one interface.
pub fn versions_query(pkg: usize, iface: usize) -> Pattern {
    Pattern::parse(&format!("pkg-{pkg}/iface-{iface}/*")).expect("valid pattern")
}

/// A broad scan: everything exported by one package.
pub fn package_query(pkg: usize) -> Pattern {
    Pattern::parse(&format!("pkg-{pkg}/**")).expect("valid pattern")
}

/// Resolves a compiled query against the library. Queries are built once
/// and reused, as a client reuses its patterns, so timing this times
/// resolution, not the pattern compiler.
pub fn lookup(repo: &Repository, query: &Pattern) -> Vec<ActorId> {
    repo.registry.resolve(query, repo.space).expect("resolve")
}

/// The name-server key of one factory.
pub fn ns_name(pkg: usize, iface: usize, ver: usize) -> Atom {
    atom(&format!("pkg-{pkg}/iface-{iface}/v{ver}"))
}

/// The name server cannot answer a wildcard query directly; the honest
/// emulation enumerates every possible exact name — which requires knowing
/// the whole taxonomy in advance. This is the cost E11 quantifies.
pub fn ns_lookup_versions_emulated(ns: &NameServer, pkg: usize, iface: usize) -> Vec<u64> {
    (0..VERSIONS)
        .filter_map(|v| ns.lookup(ns_name(pkg, iface, v)))
        .collect()
}

/// Blocks until the repository can serve a late registration — shows the
/// §5.6 suspension working for repository access too (used in tests).
pub fn late_factory_is_found(repo: &Repository) -> bool {
    let pat = Pattern::parse("pkg-new/**").expect("valid");
    let before = repo.registry.resolve(&pat, repo.space).expect("resolve");
    if !before.is_empty() {
        return false;
    }
    let id = repo.registry.create_actor(repo.space, None).expect("space");
    let mut out = Vec::new();
    repo.registry
        .make_visible(
            id.into(),
            vec![path("pkg-new/iface-0/v0")],
            repo.space,
            None,
            &mut out,
        )
        .expect("register");
    let after = repo.registry.resolve(&pat, repo.space).expect("resolve");
    after == vec![id]
}

/// Handy duration for tests.
pub const QUERY_BUDGET: Duration = Duration::from_secs(5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_lookup_finds_exactly_one_factory() {
        let repo = build_repository(256);
        let got = lookup(&repo, &exact_query(1, 2, 3));
        assert_eq!(got, vec![repo.factories[&(1, 2, 3)]]);
    }

    #[test]
    fn version_wildcard_finds_all_versions() {
        let repo = build_repository(256);
        let got = lookup(&repo, &versions_query(2, 5));
        assert_eq!(got.len(), VERSIONS);
        for v in 0..VERSIONS {
            assert!(got.contains(&repo.factories[&(2, 5, v)]));
        }
    }

    #[test]
    fn package_scan_finds_the_whole_package() {
        let repo = build_repository(256);
        let got = lookup(&repo, &package_query(0));
        assert_eq!(got.len(), IFACES_PER_PKG * VERSIONS);
    }

    #[test]
    fn name_server_matches_on_exact_queries_only() {
        let repo = build_repository(128);
        let ns = build_name_server(&repo);
        let pattern_hit = lookup(&repo, &exact_query(0, 1, 2));
        let ns_hit = ns.lookup(ns_name(0, 1, 2)).unwrap();
        assert_eq!(pattern_hit[0].0, ns_hit);
        // The wildcard emulation needs taxonomy knowledge the client may
        // not have; with it, results agree.
        let mut emu = ns_lookup_versions_emulated(&ns, 0, 1);
        emu.sort_unstable();
        let mut pat: Vec<u64> = lookup(&repo, &versions_query(0, 1))
            .iter()
            .map(|a| a.0)
            .collect();
        pat.sort_unstable();
        assert_eq!(emu, pat);
    }

    #[test]
    fn late_registrations_are_immediately_queryable() {
        let repo = build_repository(64);
        assert!(late_factory_is_found(&repo));
    }
}
