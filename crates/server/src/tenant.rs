//! Per-tenant isolation: every tenant name maps to its own
//! [`xpsat_service::Workspace`] behind its own [`ProtocolServer`].
//!
//! Isolation is at the *workspace* level — DTD ids, the query interner and the
//! table of classes served are all per-tenant, so one client can never observe (or
//! collide with) another's registrations.  Two things are deliberately *shared*
//! because they are content-addressed and therefore leak nothing tenant-specific:
//!
//! * the persistent [`ArtifactStore`], keyed by the hash of a DTD's canonical
//!   text — a hit means "some process registered this exact DTD before", and its
//!   programs save every compile after a restart;
//! * the in-memory [`CanonicalCache`], the decision store holding each DTD text's
//!   artifacts and each class's decision and compiled program, keyed by the exact
//!   canonical DTD text and the canonical query.  The first registration of a text
//!   by any tenant builds it (recording the text in the artifact store), and every
//!   other tenant's registration adopts that build; a cross-tenant decision hit means
//!   "someone already decided (or compiled) this exact instance" (up to qualifier
//!   reordering and the other structural rewrites) and saves the solve or the
//!   compile entirely.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use xpsat_service::{ArtifactStore, CanonicalCache, ProtocolServer, Workspace};

use crate::ServerConfig;

/// The tenant used by requests that carry no `"tenant"` field.
pub const DEFAULT_TENANT: &str = "public";

/// One tenant: its protocol server (and thus workspace).  Request handling is
/// `&self` all the way down, with no outer lock: the workspace's DTD registry and
/// query table each have a short lock of their own, held only to probe or append.
/// Requests from many connections of one tenant — decides and registrations
/// included — run *concurrently*: a registration never waits for a decide, nor a
/// decide for a registration.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    proto: ProtocolServer,
}

impl Tenant {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's protocol server; handlers take `&self`, so no outer lock.
    pub fn proto(&self) -> &ProtocolServer {
        &self.proto
    }
}

/// Lazily-created tenants, keyed by validated name.
#[derive(Debug)]
pub struct TenantMap {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    store: Option<ArtifactStore>,
    canonical: Arc<CanonicalCache>,
    config: ServerConfig,
}

impl TenantMap {
    /// A tenant map for the given server configuration; opens (and creates) the
    /// shared artifact store when a cache directory is configured.
    pub fn new(config: ServerConfig) -> std::io::Result<TenantMap> {
        let store = match &config.cache_dir {
            Some(dir) => Some(ArtifactStore::open(dir)?),
            None => None,
        };
        Ok(TenantMap {
            tenants: Mutex::new(HashMap::new()),
            store,
            canonical: Arc::new(CanonicalCache::new()),
            config,
        })
    }

    /// The shared artifact store, if persistence is configured.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The decision store shared by every tenant's workspace.
    pub fn canonical_cache(&self) -> &Arc<CanonicalCache> {
        &self.canonical
    }

    /// Look up (or create) a tenant.  Returns `Err` with a reason for names that
    /// fail validation.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>, String> {
        validate_tenant_name(name)?;
        // Recover from poisoning: the map only ever grows, so a panic while holding
        // the lock cannot leave it inconsistent.
        let mut tenants = self
            .tenants
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(tenant) = tenants.get(name) {
            return Ok(Arc::clone(tenant));
        }
        let mut workspace = Workspace::default().with_canonical_cache(Arc::clone(&self.canonical));
        if let Some(store) = &self.store {
            workspace = workspace.with_store(store.clone());
        }
        let mut proto = ProtocolServer::with_workspace(workspace, self.config.default_threads);
        proto.set_default_deadline_ms(self.config.default_deadline_ms);
        proto.set_default_max_steps(self.config.default_max_steps);
        proto.set_max_line_bytes(self.config.max_line_bytes);
        proto.set_debug_ops(self.config.debug_ops);
        let tenant = Arc::new(Tenant {
            name: name.to_string(),
            proto,
        });
        tenants.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Number of tenants created so far.
    pub fn tenant_count(&self) -> usize {
        self.tenants
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }
}

/// Tenant names are short identifiers: 1–64 chars from `[A-Za-z0-9._-]`, not
/// starting with a dot or dash (no path games, no hidden files, shell-safe).
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("tenant name must be 1-64 characters".to_string());
    }
    if name.starts_with(['.', '-']) {
        return Err("tenant name must not start with '.' or '-'".to_string());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(
            "tenant name may contain only ASCII letters, digits, '.', '_' and '-'".to_string(),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_are_isolated_workspaces() {
        let map = TenantMap::new(ServerConfig::default()).unwrap();
        let a = map.tenant("alice").unwrap();
        let b = map.tenant("bob").unwrap();
        let again = map.tenant("alice").unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(map.tenant_count(), 2);

        // A DTD registered for alice is invisible to bob.
        let reg = a
            .proto()
            .handle_line(r#"{"op":"register_dtd","dtd":"r -> a?; a -> #;"}"#);
        assert!(reg.contains(r#""dtd_id":0"#), "{reg}");
        let check = b
            .proto()
            .handle_line(r#"{"op":"check","dtd_id":0,"query":"a"}"#);
        assert!(check.contains(r#""ok":false"#), "{check}");
        assert!(check.contains("unknown DTD id 0"), "{check}");
    }

    #[test]
    fn structurally_identical_queries_hit_across_tenants() {
        let map = TenantMap::new(ServerConfig::default()).unwrap();
        let a = map.tenant("alice").unwrap();
        let b = map.tenant("bob").unwrap();
        let dtd = r#"{"op":"register_dtd","dtd":"r -> a*; a -> b, c; b -> #; c -> #;"}"#;

        // Alice decides a[b and c]; the verdict is published to the shared cache.
        let reg = a.proto().handle_line(dtd);
        assert!(reg.contains(r#""ok":true"#), "{reg}");
        let first = a
            .proto()
            .handle_line(r#"{"op":"check","dtd_id":0,"query":"a[b and c]"}"#);
        assert!(first.contains(r#""cached":false"#), "{first}");
        assert_eq!(map.canonical_cache().len(), 1);

        // Bob asks the structurally identical question spelled differently: the
        // answer comes straight from the shared cache — no solve, no compile.
        let reg = b.proto().handle_line(dtd);
        assert!(reg.contains(r#""ok":true"#), "{reg}");
        let second = b
            .proto()
            .handle_line(r#"{"op":"check","dtd_id":0,"query":"a[c][b]"}"#);
        assert!(second.contains(r#""cached":true"#), "{second}");
        assert!(second.contains(r#""result":"satisfiable""#), "{second}");
        let stats = b.proto().handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""canonical_hits":1"#), "{stats}");
        assert!(stats.contains(r#""decisions_computed":0"#), "{stats}");
        assert!(stats.contains(r#""programs_compiled":0"#), "{stats}");

        // Compiled programs are shared too: classifying the class in either
        // spelling compiles nothing more.
        for (tenant, query) in [(&a, "a[b and c]"), (&b, "a[c][b]")] {
            let line = format!(r#"{{"op":"classify","dtd_id":0,"query":"{query}"}}"#);
            let classify = tenant.proto().handle_line(&line);
            assert!(classify.contains(r#""compiled":true"#), "{classify}");
        }
        let compiled = |tenant: &Tenant| tenant.proto().workspace().stats().programs_compiled;
        assert_eq!((compiled(&a), compiled(&b)), (1, 0));

        // So are incomplete verdicts that did not exhaust a budget: the bounded
        // enumeration's answer under a starred DTD is one function of the instance.
        let line = r#"{"op":"check","dtd_id":0,"query":"a[not(@x = @y)]","witness":true}"#;
        let first = a.proto().handle_line(line);
        assert!(first.contains(r#""complete":false"#), "{first}");
        assert!(first.contains(r#""cached":false"#), "{first}");
        let second = b.proto().handle_line(line);
        assert_eq!(
            second,
            first.replace(r#""cached":false"#, r#""cached":true"#)
        );
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(validate_tenant_name("team-a.prod_2").is_ok());
        for bad in ["", ".hidden", "-flag", "a/b", "a b", "ü", &"x".repeat(65)] {
            assert!(validate_tenant_name(bad).is_err(), "{bad:?}");
        }
    }
}
