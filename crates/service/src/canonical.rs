//! The decision store: each structural class's verdict and compiled program, held
//! once and keyed by *content*, never by tenant-local ids.
//!
//! `SAT(X, DTD)` depends only on the DTD and the query, so an entry is keyed on
//! `(DTD key, canonical query hash)`:
//!
//! * the DTD key is handed out by the store to each distinct canonical DTD text and
//!   looked up once, when a workspace registers the DTD.  Two DTDs share entries only
//!   when their canonical texts are equal byte for byte; no hash of a DTD is trusted,
//!   so a crafted DTD cannot reach another schema's verdicts;
//! * the query half is the FNV-1a-64 of the plan compiler's canonical form, which is
//!   invariant under qualifier reordering, associativity and the trivial rewrites.
//!   Every entry keeps its canonical text and a probe must match it, so a query-hash
//!   collision degrades to an unshared entry, never a wrong verdict.
//!
//! An entry holds the class's decision (the first writer wins, so served output stays
//! deterministic under races) and its compiled program, or the fact that the class is
//! outside the compiled fragment; each is resolved once.  Every decision that did not
//! exhaust its budget is stored, complete or not: every workspace decides under the
//! same engine limits, so an unexhausted verdict depends only on the instance.  A
//! budget-exhausted `Unknown` reflects one caller's allowance and is never stored.
//!
//! The store also holds each DTD text's artifacts, next to its key: one build per
//! text, made by the first registration of the text from any workspace and handed
//! to every later one (racing registrations of a text wait for that build).  A
//! program is stamped with the artifact build it was compiled against
//! ([`xpsat_dtd::DtdArtifacts::uid`]), and the VM refuses any other build; since
//! every workspace deciding through the store holds the store's build of a text, a
//! stored program always matches it.
//!
//! Every [`crate::Workspace`] owns a private store unless it is handed a shared one
//! ([`crate::Workspace::with_canonical_cache`]); the server's tenants share one.  Like
//! the artifact store, sharing leaks nothing beyond "someone already registered this
//! DTD or decided this exact instance": a record or an entry is a pure function of
//! the (DTD, query) content.

use crate::workspace::{lock_recovering, DtdArtifacts};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use xpsat_core::Decision;
use xpsat_plan::DecisionProgram;

/// Number of lock stripes (a power of two); callers contend only when their keys
/// hash to the same stripe.
const STRIPES: usize = 16;

/// Store-wide handle of one distinct canonical DTD text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DtdKey(usize);

/// One distinct canonical DTD text: its key, and its artifacts once the first
/// registration of the text has materialised them.  Every workspace deciding
/// through the store shares the record, so the text is built once per store.
#[derive(Debug)]
pub(crate) struct DtdRecord {
    pub(crate) key: DtdKey,
    pub(crate) artifacts: OnceLock<Arc<DtdArtifacts>>,
}

/// Everything known about one structural class against one DTD.
#[derive(Debug)]
pub(crate) struct StoreEntry {
    /// The class's canonical query text; a probe must match it.
    canon_text: String,
    /// The decision, once one that did not exhaust its budget has been computed.
    pub(crate) decision: OnceLock<Arc<Decision>>,
    /// The compiled program once resolved; `None` records that the class is outside
    /// the compiled fragment, so the bail is also paid once per class.
    pub(crate) program: OnceLock<Option<Arc<DecisionProgram>>>,
}

impl StoreEntry {
    fn new(canon_text: &str) -> StoreEntry {
        StoreEntry {
            canon_text: canon_text.to_string(),
            decision: OnceLock::new(),
            program: OnceLock::new(),
        }
    }
}

/// One stripe: entries by `(DTD key, canonical query hash)`.
type Stripe = Mutex<HashMap<(DtdKey, u64), Arc<StoreEntry>>>;

/// The content-keyed decision store; see the [module docs](self).
#[derive(Debug)]
pub struct CanonicalCache {
    dtds: Mutex<HashMap<String, Arc<DtdRecord>>>,
    stripes: Vec<Stripe>,
}

impl Default for CanonicalCache {
    fn default() -> CanonicalCache {
        CanonicalCache::new()
    }
}

impl CanonicalCache {
    /// An empty store.  Wrap it in an [`Arc`] and hand a clone to every workspace
    /// that should share it ([`crate::Workspace::with_canonical_cache`]).
    pub fn new() -> CanonicalCache {
        CanonicalCache {
            dtds: Mutex::default(),
            stripes: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// The record of a canonical DTD text, created (without artifacts) on first
    /// sight.  The map lock is held only for the probe: artifacts are materialised
    /// in the record's own `OnceLock`.
    pub(crate) fn dtd_record(&self, canonical: &str) -> Arc<DtdRecord> {
        let mut records = lock_recovering(&self.dtds);
        if let Some(record) = records.get(canonical) {
            return Arc::clone(record);
        }
        let record = Arc::new(DtdRecord {
            key: DtdKey(records.len()),
            artifacts: OnceLock::new(),
        });
        records.insert(canonical.to_string(), Arc::clone(&record));
        record
    }

    /// The entry of a class, created empty on first touch.  When another canonical
    /// text already holds the slot (a query-hash collision), the caller gets a fresh
    /// entry that only it holds.
    pub(crate) fn entry(&self, dtd: DtdKey, hash: u64, canon_text: &str) -> Arc<StoreEntry> {
        let mut stripe = lock_recovering(self.stripe(dtd, hash));
        let entry = stripe
            .entry((dtd, hash))
            .or_insert_with(|| Arc::new(StoreEntry::new(canon_text)));
        if entry.canon_text == canon_text {
            Arc::clone(entry)
        } else {
            Arc::new(StoreEntry::new(canon_text))
        }
    }

    /// The entry of a class if one exists, inserting nothing (a probe must not grow
    /// the store).
    pub(crate) fn get(&self, dtd: DtdKey, hash: u64, canon_text: &str) -> Option<Arc<StoreEntry>> {
        lock_recovering(self.stripe(dtd, hash))
            .get(&(dtd, hash))
            .filter(|entry| entry.canon_text == canon_text)
            .cloned()
    }

    fn stripe(&self, dtd: DtdKey, hash: u64) -> &Stripe {
        let mixed = hash ^ (dtd.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[((mixed >> 32) as usize) & (STRIPES - 1)]
    }

    /// Number of classes in the store (sums the stripes; approximate under
    /// concurrency).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| lock_recovering(s).len()).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpsat_core::{EngineKind, Satisfiability};

    fn unsat() -> Arc<Decision> {
        Arc::new(Decision {
            result: Satisfiability::Unsatisfiable,
            engine: EngineKind::CompiledVm,
            complete: true,
            exhausted: None,
        })
    }

    #[test]
    fn first_publish_wins_and_keys_are_exact() {
        let cache = CanonicalCache::new();
        let dtd = cache.dtd_record("r -> a; a -> #;").key;
        let first = unsat();
        cache
            .entry(dtd, 7, "a[b and c]")
            .decision
            .get_or_init(|| Arc::clone(&first));
        cache
            .entry(dtd, 7, "a[b and c]")
            .decision
            .get_or_init(unsat);
        let stored = cache.entry(dtd, 7, "a[b and c]");
        assert!(Arc::ptr_eq(stored.decision.get().unwrap(), &first));
        // A query-hash collision: the slot keeps its entry and the other text gets
        // a private one.
        assert!(cache.entry(dtd, 7, "a[c and b]").decision.get().is_none());
        assert!(cache.entry(dtd, 7, "a[b and c]").decision.get().is_some());
        assert_eq!(cache.len(), 1);
        // A probe finds only the exact text and inserts nothing.
        assert!(Arc::ptr_eq(
            &cache.get(dtd, 7, "a[b and c]").unwrap(),
            &stored
        ));
        assert!(cache.get(dtd, 7, "a[c and b]").is_none());
        assert!(cache.get(dtd, 8, "a[b and c]").is_none());
        assert_eq!(cache.len(), 1);
    }
}
