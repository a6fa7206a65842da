//! The [`Workspace`]: registered DTDs with precomputed artifacts, interned queries and
//! the classes served so far.
//!
//! The paper's complexity landscape makes per-DTD work (classification, normalisation,
//! content-model automata) the expensive, *reusable* part of `SAT(X, DTD)`, while
//! per-query dispatch is often PTIME.  The workspace exploits that shape the way a
//! production static analyzer would: a DTD is registered once, its artifacts are
//! computed once and cached, and every subsequent decision against it reuses them.
//! Queries are interned by canonical text so repeated paths share one [`QueryId`],
//! grouped further into *structural equivalence classes* by the plan compiler's
//! canonical form (`a[b and c]` ≡ `a[c][b]`), and decided at most once per class.
//! One query table holds both: a single map from text to the spelling and/or the
//! class it names, each class ([`QueryClass`]) stored once and shared by its
//! spellings.  The table sits behind its own lock, so interning takes `&self`.
//!
//! Decisions and compiled programs live in one place, the content-keyed decision
//! store ([`CanonicalCache`]), which matches DTDs by their exact canonical text.  A
//! workspace owns a private store; [`Workspace::with_canonical_cache`] swaps in one
//! shared with other workspaces (the server's tenants), so a class one of them has
//! decided or compiled is served to all of them — incomplete but unexhausted verdicts
//! included.  Classes inside the compiled fragment are lowered once to a flat
//! [`DecisionProgram`] and replayed in the allocation-free plan VM; the AST [`Solver`]
//! remains the oracle for everything else.
//!
//! A DTD's artifacts depend only on its canonical text, so they live in the decision
//! store too, next to the text's key: the first registration of a text, from any
//! workspace sharing the store, builds them with [`DtdArtifacts::build`] (and records
//! the text in the optional persistent [`ArtifactStore`], [`Workspace::with_store`],
//! unless it is there already) and every later one adopts that build as an
//! [`Arc<DtdArtifacts>`].  What stays per workspace is its own: DTD ids, the query
//! table and the served classes.
//!
//! [`Workspace::decide`] and [`Workspace::decide_batch`] run one per-class pipeline:
//! look the class up among those this workspace has already been served (a
//! `decision_cache_hits` hit), then in the store (a `canonical_hits` hit); on a miss,
//! compute it and publish the result.  `decide` is a one-query batch.
//! [`Workspace::serve_decided`] runs the same pipeline lookup-only: it answers only
//! when every query is an interned spelling of a decided class, and otherwise
//! declines having counted and inserted nothing.  Every operation takes `&self`, so
//! one workspace is shared across batch workers and concurrent requests.  The DTD
//! registry is append-only, like the query table: a registration parses and
//! materialises its text's artifacts in the store's record for the text (so racing
//! registrations of one text, from any workspace, build it once) and only then
//! appends under the registry's own short lock, so it never waits for, or holds
//! back, a decide.  Decisions are stored and served as
//! [`Arc<Decision>`]: a cache hit is a pointer bump, never a witness-document clone.

use crate::canonical::{CanonicalCache, DtdKey, StoreEntry};
use crate::stats::{CacheStats, StatsSnapshot};
use crate::store::{ArtifactStore, StoreMiss};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;
use xpsat_core::{Budget, Decision, EngineKind, Exhausted, Solver};
use xpsat_dtd::{normalize, parse_dtd, Dtd, Normalization};
use xpsat_plan::{CanonicalQuery, CompileLimits, DecisionProgram};
use xpsat_xpath::{parse_path, Path};

thread_local! {
    /// Per-thread VM register file, reused across decisions so replaying a compiled
    /// program allocates nothing in steady state (batch workers each get their own).
    static VM_SCRATCH: RefCell<xpsat_plan::Scratch> = RefCell::new(xpsat_plan::Scratch::new());
}

/// Lock a mutex, recovering from poison.  Everything guarded this way (the served
/// table, the decision store's stripes and DTD records, the query table and the
/// DTD registry) holds plain data whose every intermediate state is valid,
/// so a panic while the lock was held — e.g. a panicking engine isolated by the
/// server's `catch_unwind` — must not wedge the structure for every later request.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock_recovering`] for the read side of a reader-writer lock.
fn read_recovering<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock_recovering`] for the write side of a reader-writer lock.
fn write_recovering<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A structural class against one DTD: the DTD and the class representative.
type ClassKey = (DtdId, QueryId);

/// Handle of a registered DTD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DtdId(pub(crate) usize);

impl DtdId {
    /// The numeric value used by the JSON-lines protocol.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle of an interned query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub(crate) usize);

impl QueryId {
    /// The numeric value used by the JSON-lines protocol.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Everything the service precomputes for a registered DTD, exactly once.
#[derive(Debug)]
pub struct DtdArtifacts {
    /// Canonical textual form (the dedup key; round-trips through the parser).
    pub canonical: String,
    /// Content address of this DTD: FNV-1a-64 of the canonical text, the key the
    /// on-disk store files artifact and program entries under.
    pub fingerprint: u64,
    /// The normalisation `N(D)` of Proposition 3.3.
    pub normalization: Normalization,
    /// The compiled solver artifacts: the DTD itself and its structural
    /// classification (Section 6 regimes, which drive engine dispatch), interned
    /// symbols, pruned DTD, dense DTD graph with reachability closure, and the
    /// Glushkov automaton of every content model.  Handed to
    /// [`xpsat_core::Solver::decide_budgeted`] on every decision so the engines never
    /// recompute per-DTD structure.
    pub compiled: xpsat_dtd::DtdArtifacts,
}

impl DtdArtifacts {
    /// Build every artifact of `dtd`: its canonical text and fingerprint, `N(D)` and
    /// the solver artifacts, warmed.  The service's one way to build a DTD's
    /// artifacts: registration calls it on a miss, and [`ArtifactStore::load`] on a
    /// hit.
    pub fn build(dtd: &Dtd) -> DtdArtifacts {
        let canonical = dtd.to_string();
        let compiled = xpsat_dtd::DtdArtifacts::build(dtd);
        // The workspace serves many queries per DTD: force the lazy artifact fields
        // (automata, useful-state masks, generator) now so no decision — and no batch
        // worker — ever pays first-touch latency or contends on a OnceLock.
        compiled.warm();
        DtdArtifacts {
            fingerprint: crate::store::canonical_key(&canonical),
            canonical,
            normalization: normalize(dtd),
            compiled,
        }
    }
}

/// A structural equivalence class of queries under the plan compiler's rewrites,
/// stored once and shared by every spelling interned into it.
#[derive(Debug)]
pub struct QueryClass {
    /// Id of the class representative — the first interned member.  The served-class
    /// table keys on it, so every spelling of an instance is decided at most once.
    pub rep: QueryId,
    /// Structurally canonical path: qualifier conjuncts sorted, unions flattened and
    /// deduplicated, trivial filters dropped ([`xpsat_plan::canonicalize`]).
    /// Equivalent spellings — `a[b and c]` vs `a[c][b]` — share this form.
    pub path: Path,
    /// `Display` text of [`QueryClass::path`]; the cross-spelling (and cross-tenant)
    /// cache key.
    pub text: String,
    /// FNV-1a-64 of [`QueryClass::text`].
    pub canonical_hash: u64,
    /// Label-erased structural-shape hash (spellings that differ only in element
    /// names collide here by design; used for workload fleet analytics).
    pub structural_hash: u64,
}

/// An interned query: its canonical rendering and its structural class.
#[derive(Debug, Clone)]
pub struct InternedQuery {
    /// Canonical textual form (the dedup key; `Display` round-trips through the
    /// parser, so two queries intern to the same id iff they print identically).
    pub canonical: String,
    /// The query's structural equivalence class.
    pub class: Arc<QueryClass>,
}

/// What the query table holds under one text: a caller's spelling, a class's
/// canonical text, or both (when a spelling is already canonical).
#[derive(Debug, Default)]
struct TextEntry {
    /// The id of the query that prints as this text.
    spelling: Option<QueryId>,
    /// The class whose canonical text this is.
    class: Option<Arc<QueryClass>>,
}

/// The query interner: every interned query by id, and one map from text to what
/// the text names.
#[derive(Debug, Default)]
struct QueryTable {
    queries: Vec<InternedQuery>,
    by_text: HashMap<String, TextEntry>,
}

impl QueryTable {
    /// The interned query of a spelling, if any.
    fn spelling(&self, canonical: &str) -> Option<QueryId> {
        self.by_text.get(canonical).and_then(|entry| entry.spelling)
    }

    /// The class of an interned query.
    fn class(&self, id: QueryId) -> Result<&Arc<QueryClass>, ServiceError> {
        self.queries
            .get(id.0)
            .map(|query| &query.class)
            .ok_or(ServiceError::UnknownQuery(id.0))
    }
}

/// A decision together with its cache provenance.
#[derive(Debug, Clone)]
pub struct ServedDecision {
    /// The solver's verdict, engine and completeness flag.  Shared with the cache:
    /// serving a decision (even a large satisfiable witness) never clones a document.
    pub decision: Arc<Decision>,
    /// `true` when the decision came out of the memoised cache rather than a solver
    /// engine run.
    pub cached: bool,
}

/// A batch class that missed [`Workspace::lookup`]: the class, its store entry and
/// the batch slot its decision goes to.
type BatchMiss<'a> = (&'a QueryClass, Arc<StoreEntry>, &'a OnceLock<Arc<Decision>>);

/// A batch's structural classes, each once, sorted by representative: every
/// spelling of a class is one unit of work.
fn unique_classes(classes: &[Arc<QueryClass>]) -> Vec<&QueryClass> {
    let mut unique: Vec<&QueryClass> = classes.iter().map(|class| &**class).collect();
    unique.sort_unstable_by_key(|class| class.rep);
    unique.dedup_by_key(|class| class.rep);
    unique
}

/// What [`Workspace::lookup`] found for a class.
enum Lookup {
    /// Served from the served-class table or the decision store.
    Hit(Arc<Decision>),
    /// Not decided yet; carries the class's store entry for
    /// [`Workspace::compute_and_publish`].
    Miss(Arc<StoreEntry>),
}

/// Where [`Workspace::lookup`] or [`Workspace::probe`] found a decided class.
enum Found {
    /// Among the classes this workspace was served.
    Served(Arc<Decision>),
    /// In the decision store, decided by another workspace or before a swap.
    Stored(Arc<StoreEntry>),
}

/// What a registration did, beyond handing back the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The id under which the DTD is (now) registered.
    pub id: DtdId,
    /// `true` when an identical DTD was already registered in this workspace.
    pub reused: bool,
    /// `true` when the text was already known: the registration adopted an earlier
    /// build of the text by a workspace sharing the decision store, or the persistent
    /// store held the text (the artifacts are then rebuilt from it).  Always `false`
    /// when `reused` is `true`.
    pub cached: bool,
}

/// Byte range of an input error, as reported by the parsers (`(offset, len)` into the
/// original request text).  Mirrors the parser crates' `Span` types without coupling
/// the service API to either.
pub type ErrorSpan = (usize, usize);

/// Errors returned by workspace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The DTD text did not parse; `span` locates the offending bytes.
    DtdParse {
        /// The parser's message (no position prefix).
        message: String,
        /// `(offset, len)` into the submitted DTD text.
        span: ErrorSpan,
    },
    /// The query text did not parse; `span` locates the offending bytes.
    QueryParse {
        /// The parser's message (no position prefix).
        message: String,
        /// `(offset, len)` into the submitted query text.
        span: ErrorSpan,
    },
    /// An id referred to no registered DTD.
    UnknownDtd(usize),
    /// An id referred to no interned query.
    UnknownQuery(usize),
    /// A session operation needed a current DTD but none was loaded.
    NoCurrentDtd,
    /// The request's deadline expired before the batch completed.  Decisions already
    /// computed were still published to the cache, so a retry resumes, not restarts.
    DeadlineExceeded,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DtdParse { message, span } => {
                write!(f, "DTD parse error at byte {}: {message}", span.0)
            }
            ServiceError::QueryParse { message, span } => {
                write!(f, "XPath parse error at byte {}: {message}", span.0)
            }
            ServiceError::UnknownDtd(id) => write!(f, "unknown DTD id {id}"),
            ServiceError::UnknownQuery(id) => write!(f, "unknown query id {id}"),
            ServiceError::NoCurrentDtd => {
                write!(f, "no DTD loaded (call load_dtd or use_dtd first)")
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request completed")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One registered DTD: its key in the decision store and the store's build of its
/// text.  The id is the slot index.
#[derive(Debug)]
struct DtdSlot {
    key: DtdKey,
    artifacts: Arc<DtdArtifacts>,
}

/// The DTD registry: every registered DTD by id, and its id by decision-store key.
/// It only grows.
#[derive(Debug, Default)]
struct DtdTable {
    slots: Vec<DtdSlot>,
    by_key: HashMap<DtdKey, DtdId>,
}

/// The satisfiability service: DTD registry, query interner, served-class table over
/// the decision store.
#[derive(Debug, Default)]
pub struct Workspace {
    solver: Solver,
    /// The DTD registry, behind its own lock.  It is held only to probe, push or
    /// read a slot: never across a parse, a build, store I/O or a decide.
    dtds: RwLock<DtdTable>,
    /// The query interner, behind its own lock so interning takes `&self`.  It is
    /// never held while canonicalising or deciding, and an intern leaves it valid at
    /// every step (a query is pushed before its spelling names it).
    queries: RwLock<QueryTable>,
    /// The decision store: every DTD text's artifacts and every class's decision and
    /// program (private unless shared through [`Workspace::with_canonical_cache`]).
    canonical: Arc<CanonicalCache>,
    /// The store entries of the classes this workspace has been served.
    served: Mutex<HashMap<ClassKey, Arc<StoreEntry>>>,
    stats: CacheStats,
    store: Option<ArtifactStore>,
}

impl Workspace {
    /// Attach a persistent artifact store: the first registration of a text consults
    /// it, and records the text there when it was missing.
    pub fn with_store(mut self, store: ArtifactStore) -> Workspace {
        self.store = Some(store);
        self
    }

    /// Replace the private decision store with `cache`, shared with other workspaces
    /// (the server's tenants): each then shares the others' DTD builds and serves
    /// structurally identical instances of the same DTD text from their decisions and
    /// compiled programs.  DTDs registered before the swap are re-keyed in the new
    /// store, adopting its build of the text (or offering it this workspace's own),
    /// so the programs it holds replay here; the classes served to this workspace
    /// before the swap stay behind in the old store.
    pub fn with_canonical_cache(mut self, cache: Arc<CanonicalCache>) -> Workspace {
        let table = self.dtds.get_mut().unwrap_or_else(PoisonError::into_inner);
        for slot in &mut table.slots {
            let record = cache.dtd_record(&slot.artifacts.canonical);
            slot.artifacts =
                Arc::clone(record.artifacts.get_or_init(|| Arc::clone(&slot.artifacts)));
            slot.key = record.key;
        }
        table.by_key = (table.slots.iter().enumerate())
            .map(|(id, slot)| (slot.key, DtdId(id)))
            .collect();
        self.served = Mutex::default();
        self.canonical = cache;
        self
    }

    /// The decision store this workspace decides through.
    pub fn canonical_cache(&self) -> &Arc<CanonicalCache> {
        &self.canonical
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    // ---- DTD registry ----------------------------------------------------------

    /// Register a DTD from its textual form, computing all artifacts, or return the
    /// existing id when an identical DTD (same canonical form) is already registered.
    pub fn register_dtd(&self, text: &str) -> Result<DtdId, ServiceError> {
        self.register_dtd_report(text).map(|outcome| outcome.id)
    }

    /// [`Workspace::register_dtd`], reporting whether the DTD was deduplicated and
    /// whether this registration built its artifacts.
    ///
    /// The DTD is parsed, canonicalised and materialised with no registry lock held;
    /// only the append takes the registry's write lock.  Materialising runs once per
    /// text in the decision store's record for it: the first registration of the
    /// text, from any workspace sharing the store, builds it (saving the text to the
    /// persistent store when that lacked it), and racing registrations wait for that
    /// build and adopt it.  Racing registrations of one text in one workspace all
    /// get the first appended id, and all but that one count as reuses.
    /// Registrations of different texts never wait for each other.
    pub fn register_dtd_report(&self, text: &str) -> Result<RegisterOutcome, ServiceError> {
        let dtd = parse_dtd(text).map_err(|e| ServiceError::DtdParse {
            message: e.message.clone(),
            span: (e.span.offset, e.span.len),
        })?;
        let canonical = dtd.to_string();
        let record = self.canonical.dtd_record(&canonical);
        // The registration that materialises the text appends it before any racer
        // in this workspace can, so those racers count as reuses.
        let mut materialized = None;
        let artifacts = record.artifacts.get_or_init(|| {
            let (artifacts, from_store) = self.materialize(&dtd, &canonical);
            materialized = Some(RegisterOutcome {
                cached: from_store,
                ..self.append(record.key, &artifacts)
            });
            artifacts
        });
        let outcome = materialized.unwrap_or_else(|| self.append(record.key, artifacts));
        CacheStats::bump(if outcome.reused {
            &self.stats.dtds_reused
        } else {
            &self.stats.dtds_registered
        });
        Ok(outcome)
    }

    /// Append a DTD to the registry unless its key is registered already.  An
    /// append that did not materialise the artifacts adopted a known text's build:
    /// it is `cached`.
    fn append(&self, key: DtdKey, artifacts: &Arc<DtdArtifacts>) -> RegisterOutcome {
        let mut table = write_recovering(&self.dtds);
        if let Some(&id) = table.by_key.get(&key) {
            return RegisterOutcome {
                id,
                reused: true,
                cached: false,
            };
        }
        let id = DtdId(table.slots.len());
        table.slots.push(DtdSlot {
            key,
            artifacts: Arc::clone(artifacts),
        });
        table.by_key.insert(key, id);
        RegisterOutcome {
            id,
            reused: false,
            cached: true,
        }
    }

    /// Build the artifacts of a DTD, `true` when the persistent store already knew
    /// its text.  A store hit builds from the stored text, a miss from `dtd` (and
    /// writes the text to the store): both through [`DtdArtifacts::build`].
    fn materialize(&self, dtd: &Dtd, canonical: &str) -> (Arc<DtdArtifacts>, bool) {
        let loaded = self
            .store
            .as_ref()
            .and_then(|store| match store.load(canonical) {
                Ok(artifacts) => {
                    CacheStats::bump(&self.stats.artifact_store_hits);
                    Some(artifacts)
                }
                Err(miss) => {
                    if miss == StoreMiss::Invalid {
                        // Corruption is a distinct signal from a cold cache: operators
                        // alert on it (disk trouble, torn writes, tampering).
                        CacheStats::bump(&self.stats.artifact_store_corrupt);
                    }
                    CacheStats::bump(&self.stats.artifact_store_misses);
                    None
                }
            });
        let from_store = loaded.is_some();
        let artifacts = loaded.unwrap_or_else(|| DtdArtifacts::build(dtd));
        CacheStats::bump(&self.stats.classifications);
        CacheStats::bump(&self.stats.normalizations);
        CacheStats::add(
            &self.stats.automata_built,
            artifacts.compiled.automata_count() as u64,
        );
        if let Some(store) = self.store.as_ref().filter(|_| !from_store) {
            if store.save(&artifacts).is_ok() {
                CacheStats::bump(&self.stats.artifact_store_writes);
            }
        }
        (Arc::new(artifacts), from_store)
    }

    /// The decision-store key of a registered DTD.
    fn dtd_key(&self, id: DtdId) -> Result<DtdKey, ServiceError> {
        read_recovering(&self.dtds)
            .slots
            .get(id.0)
            .map(|slot| slot.key)
            .ok_or(ServiceError::UnknownDtd(id.0))
    }

    /// The artifacts of a registered DTD: the decision store's build of its text.
    pub fn artifacts(&self, id: DtdId) -> Result<Arc<DtdArtifacts>, ServiceError> {
        read_recovering(&self.dtds)
            .slots
            .get(id.0)
            .map(|slot| Arc::clone(&slot.artifacts))
            .ok_or(ServiceError::UnknownDtd(id.0))
    }

    /// Number of registered (distinct) DTDs.
    pub fn dtd_count(&self) -> usize {
        read_recovering(&self.dtds).slots.len()
    }

    // ---- query interner --------------------------------------------------------

    /// Intern a query from its textual form; equal canonical renderings share an id.
    pub fn intern(&self, text: &str) -> Result<QueryId, ServiceError> {
        let path = parse_path(text).map_err(|e| ServiceError::QueryParse {
            message: e.message.clone(),
            span: (e.span.offset, e.span.len),
        })?;
        Ok(self.intern_path(path))
    }

    /// Intern an already-parsed query.  Queries with the same `Display` rendering
    /// share an id; queries with the same *structural* canonical form additionally
    /// share a class, and through its representative one decision and one compiled
    /// program.
    ///
    /// The table is probed under its read lock and the query canonicalised with no
    /// lock held; only a first-seen spelling takes the write lock, re-probing under
    /// it so a racing intern of the same text is counted as a reuse.
    pub fn intern_path(&self, path: Path) -> QueryId {
        let (canonical, found) = self.find_spelling(&path);
        if let Some(id) = found {
            CacheStats::bump(&self.stats.queries_reused);
            return id;
        }
        let canon = CanonicalQuery::of(&path);
        let mut table = write_recovering(&self.queries);
        if let Some(id) = table.spelling(&canonical) {
            CacheStats::bump(&self.stats.queries_reused);
            return id;
        }
        CacheStats::bump(&self.stats.queries_interned);
        let id = QueryId(table.queries.len());
        // The first member interned into a class is its representative; later
        // spellings get fresh ids but share the class.
        let class = Arc::clone(
            table
                .by_text
                .entry(canon.text.clone())
                .or_default()
                .class
                .get_or_insert_with(|| {
                    Arc::new(QueryClass {
                        rep: id,
                        path: canon.path,
                        text: canon.text,
                        canonical_hash: canon.canonical_hash,
                        structural_hash: canon.structural_hash,
                    })
                }),
        );
        table.queries.push(InternedQuery {
            canonical: canonical.clone(),
            class,
        });
        table.by_text.entry(canonical).or_default().spelling = Some(id);
        id
    }

    /// The interner's key for a parsed query — its `Display` rendering — with the id
    /// interned under it, if any.  Reads the table; counts nothing.
    fn find_spelling(&self, path: &Path) -> (String, Option<QueryId>) {
        let spelling = path.to_string();
        let id = read_recovering(&self.queries).spelling(&spelling);
        (spelling, id)
    }

    /// The interned form of a query id.
    pub fn query(&self, id: QueryId) -> Result<InternedQuery, ServiceError> {
        read_recovering(&self.queries)
            .queries
            .get(id.0)
            .cloned()
            .ok_or(ServiceError::UnknownQuery(id.0))
    }

    // ---- deciding --------------------------------------------------------------
    //
    // Every request shape runs one per-class pipeline: `lookup` serves a structural
    // class from the served-class table or the decision store, and on a miss
    // `compute_and_publish` decides it and publishes the result.  The lookup-only
    // `serve_decided` probes every class first and declines on a miss.

    /// Decide one `(dtd, query)` instance without a budget, serving from the decision
    /// store when the query's structural class has been decided before: a
    /// one-query [`Workspace::decide_batch`].  When both ids are unknown the error is
    /// [`ServiceError::UnknownDtd`].
    pub fn decide(&self, dtd: DtdId, query: QueryId) -> Result<ServedDecision, ServiceError> {
        Ok(self
            .decide_batch(dtd, &[query], 1, None, None)?
            .pop()
            .expect("one decision per query"))
    }

    /// Decide many queries against one registered DTD.  `results[i]` always
    /// corresponds to `queries[i]`, and decisions, `cached` flags and counters are
    /// identical to a sequential [`Workspace::decide`] loop over the same queries
    /// (except that a budget-exhausted class runs once per batch and its repeats
    /// share that run).
    ///
    /// The batch reads the classes of all its queries in one acquisition of the
    /// query table, is deduplicated to structural classes and every class is looked
    /// up inline; only the misses are computed, on up to `threads` workers.  A batch
    /// without misses spawns no thread.
    ///
    /// * `max_steps` — per-*decision* step fuel (unlimited when `None`).  A decision that spends it comes back `Unknown` with
    ///   [`Decision::exhausted`] set; it is returned in its slot but never published,
    ///   and the batch keeps going.
    /// * `deadline` — checked between classes and threaded into the engines, so a
    ///   single monster decision is interrupted mid-fixpoint.  Once it passes, the
    ///   batch stops, keeps what it already published (a retry resumes rather than
    ///   restarts), bumps `deadline_exceeded` and returns
    ///   [`ServiceError::DeadlineExceeded`].
    pub fn decide_batch(
        &self,
        dtd: DtdId,
        queries: &[QueryId],
        threads: usize,
        deadline: Option<Instant>,
        max_steps: Option<u64>,
    ) -> Result<Vec<ServedDecision>, ServiceError> {
        let key = self.dtd_key(dtd)?;
        let classes = {
            let table = read_recovering(&self.queries);
            queries
                .iter()
                .map(|&q| table.class(q).cloned())
                .collect::<Result<Vec<_>, _>>()?
        };
        let unique = unique_classes(&classes);
        let decided: Vec<OnceLock<Arc<Decision>>> =
            unique.iter().map(|_| OnceLock::new()).collect();
        let mut misses = Vec::new();
        for (&class, slot) in unique.iter().zip(&decided) {
            match self.lookup(dtd, key, class) {
                Lookup::Hit(decision) => {
                    let _ = slot.set(decision);
                }
                Lookup::Miss(entry) => misses.push((class, entry, slot)),
            }
        }
        if !misses.is_empty() {
            let budget = Budget {
                max_steps,
                deadline,
            };
            let artifacts = self.artifacts(dtd)?;
            if self.compute_misses(dtd, &misses, &artifacts, &budget, threads) {
                CacheStats::bump(&self.stats.deadline_exceeded);
                return Err(ServiceError::DeadlineExceeded);
            }
        }
        Ok(self.in_query_order(&classes, &unique, &decided, &misses))
    }

    /// Serve queries whose answers are already known, without interning, compiling or
    /// deciding anything: the lookup-only counterpart of interning each text and
    /// calling [`Workspace::decide_batch`], with the same decisions, `cached` flags
    /// and counters.  Returns each query's canonical spelling with its decision, in
    /// order.
    ///
    /// `None` — with nothing counted and nothing inserted — unless `dtd` is
    /// registered and every text parses to an interned spelling whose class is
    /// decided against it, in the classes this workspace was served or in the
    /// decision store.  Published decisions are never withdrawn, so an answer found
    /// here stays the answer.
    pub fn serve_decided(
        &self,
        dtd: DtdId,
        texts: &[&str],
    ) -> Option<Vec<(String, ServedDecision)>> {
        let mut spellings = Vec::with_capacity(texts.len());
        let mut ids = Vec::with_capacity(texts.len());
        for text in texts {
            let (spelling, id) = self.find_spelling(&parse_path(text).ok()?);
            spellings.push(spelling);
            ids.push(id?);
        }
        let key = self.dtd_key(dtd).ok()?;
        let classes = {
            let table = read_recovering(&self.queries);
            ids.iter()
                .map(|&id| table.class(id).cloned())
                .collect::<Result<Vec<_>, _>>()
                .ok()?
        };
        let unique = unique_classes(&classes);
        let found = unique
            .iter()
            .map(|class| self.probe(dtd, key, class))
            .collect::<Option<Vec<_>>>()?;
        // Every class is decided: count what interning each text (a reused
        // spelling) and deciding the batch count.
        CacheStats::add(&self.stats.queries_reused, texts.len() as u64);
        let decided: Vec<OnceLock<Arc<Decision>>> = unique
            .iter()
            .zip(found)
            .map(|(class, found)| OnceLock::from(self.count_hit(dtd, class.rep, found)))
            .collect();
        let served = self.in_query_order(&classes, &unique, &decided, &[]);
        Some(spellings.into_iter().zip(served).collect())
    }

    /// A batch's decisions in query order, from the decisions of its `unique`
    /// classes.  The first query of a class in `misses` is served as computed; the
    /// first query of any other class was counted as a hit when it was looked up,
    /// and every repeat is a local hit — exactly what a sequential decide loop sees.
    fn in_query_order(
        &self,
        classes: &[Arc<QueryClass>],
        unique: &[&QueryClass],
        decided: &[OnceLock<Arc<Decision>>],
        misses: &[BatchMiss<'_>],
    ) -> Vec<ServedDecision> {
        let mut repeat = vec![false; unique.len()];
        classes
            .iter()
            .map(|class| {
                let i = unique
                    .binary_search_by_key(&class.rep, |class| class.rep)
                    .expect("every query's class is in the batch");
                let again = std::mem::replace(&mut repeat[i], true);
                if again {
                    CacheStats::bump(&self.stats.decision_cache_hits);
                }
                let computed = misses
                    .binary_search_by_key(&class.rep, |(class, ..)| class.rep)
                    .is_ok();
                ServedDecision {
                    decision: Arc::clone(decided[i].get().expect("every class was decided")),
                    cached: again || !computed,
                }
            })
            .collect()
    }

    /// The decision-store entry of a class against the DTD keyed `key`.
    fn class_entry(&self, key: DtdKey, class: &QueryClass) -> Arc<StoreEntry> {
        self.canonical.entry(key, class.canonical_hash, &class.text)
    }

    /// Remember that this workspace has been served a decided class.
    fn serve(&self, dtd: DtdId, rep: QueryId, entry: &Arc<StoreEntry>) {
        lock_recovering(&self.served)
            .entry((dtd, rep))
            .or_insert_with(|| Arc::clone(entry));
    }

    /// Look a class of a registered DTD (keyed `key` in the decision store) up
    /// among those decided, counting the hit (see [`Workspace::count_hit`]): first
    /// in the classes this workspace was served, then in the decision store, whose
    /// entry for the class a miss creates for [`Workspace::compute_and_publish`].
    /// Neither probe touches the DTD's artifacts.
    fn lookup(&self, dtd: DtdId, key: DtdKey, class: &QueryClass) -> Lookup {
        let found = match self.served_decision(dtd, class.rep) {
            Some(decision) => Found::Served(decision),
            None => {
                let entry = self.class_entry(key, class);
                if entry.decision.get().is_none() {
                    return Lookup::Miss(entry);
                }
                Found::Stored(entry)
            }
        };
        Lookup::Hit(self.count_hit(dtd, class.rep, found))
    }

    /// [`Workspace::lookup`] that counts nothing and inserts nothing: `None` when the
    /// class is undecided.
    fn probe(&self, dtd: DtdId, key: DtdKey, class: &QueryClass) -> Option<Found> {
        if let Some(decision) = self.served_decision(dtd, class.rep) {
            return Some(Found::Served(decision));
        }
        self.canonical
            .get(key, class.canonical_hash, &class.text)
            .filter(|entry| entry.decision.get().is_some())
            .map(Found::Stored)
    }

    /// The decision of a class this workspace was served, if any.
    fn served_decision(&self, dtd: DtdId, rep: QueryId) -> Option<Arc<Decision>> {
        lock_recovering(&self.served)
            .get(&(dtd, rep))
            .and_then(|entry| entry.decision.get().cloned())
    }

    /// Count a decided class found by [`Workspace::lookup`] or [`Workspace::probe`]
    /// and hand out its decision: a class this workspace was served before is a
    /// `decision_cache_hits` hit, one decided elsewhere a `canonical_hits` hit that
    /// joins the served classes.
    fn count_hit(&self, dtd: DtdId, rep: QueryId, found: Found) -> Arc<Decision> {
        match found {
            Found::Served(decision) => {
                CacheStats::bump(&self.stats.decision_cache_hits);
                decision
            }
            Found::Stored(entry) => {
                CacheStats::bump(&self.stats.canonical_hits);
                self.serve(dtd, rep, &entry);
                Arc::clone(entry.decision.get().expect("a stored hit is decided"))
            }
        }
    }

    /// Decide a class that missed [`Workspace::lookup`]: replay its
    /// compiled program in the VM when the class is inside the compiled fragment,
    /// else run the AST solver on the canonical path (so engine dispatch, like the
    /// store, sees one spelling per class).  The decision is published to the store
    /// entry unless it exhausted its budget: such an `Unknown` reflects the caller's
    /// allowance, not the instance, so it is returned but never published, and a
    /// later caller with a larger budget gets a fresh run.
    fn compute_and_publish(
        &self,
        dtd: DtdId,
        class: &QueryClass,
        entry: &Arc<StoreEntry>,
        artifacts: &DtdArtifacts,
        budget: &Budget,
    ) -> Arc<Decision> {
        let program = self.program_for(entry, class, artifacts);
        let replayed = program.and_then(|program| {
            let replayed = VM_SCRATCH.with(|cell| {
                xpsat_plan::vm::decide(
                    &program,
                    &artifacts.compiled,
                    &mut cell.borrow_mut(),
                    budget,
                )
            });
            // `None` is a SAT verdict whose witness failed to realise (never
            // expected, but the AST oracle keeps the failure graceful and counted).
            CacheStats::bump(if replayed.is_some() {
                &self.stats.vm_decides
            } else {
                &self.stats.vm_witness_fallbacks
            });
            replayed
        });
        let decision = replayed.unwrap_or_else(|| {
            self.solver
                .decide_budgeted(&artifacts.compiled, &class.path, budget)
        });
        CacheStats::bump(&self.stats.decisions_computed);
        if decision.exhausted.is_some() {
            CacheStats::bump(&self.stats.resource_exhausted);
            return Arc::new(decision);
        }
        let stored = Arc::clone(entry.decision.get_or_init(|| Arc::new(decision)));
        self.serve(dtd, class.rep, entry);
        stored
    }

    /// Run [`Workspace::compute_and_publish`] over a batch's missed classes, storing
    /// each decision in its slot, on up to `threads` workers; returns `true` when the
    /// deadline cut the batch short.
    fn compute_misses(
        &self,
        dtd: DtdId,
        misses: &[BatchMiss<'_>],
        artifacts: &DtdArtifacts,
        budget: &Budget,
        threads: usize,
    ) -> bool {
        let next = AtomicUsize::new(0);
        let expired = AtomicBool::new(false);
        // Workers share nothing but the work-stealing cursor and the deadline flag.
        let work = || {
            while !expired.load(Ordering::Relaxed) {
                if budget.deadline.is_some_and(|d| Instant::now() >= d) {
                    expired.store(true, Ordering::Relaxed);
                    break;
                }
                let Some((class, entry, slot)) = misses.get(next.fetch_add(1, Ordering::Relaxed))
                else {
                    break;
                };
                let decision = self.compute_and_publish(dtd, class, entry, artifacts, budget);
                // A deadline interruption mid-decision aborts the batch like the
                // between-classes check does; a spent step allowance is a result.
                if decision.exhausted == Some(Exhausted::Deadline) {
                    expired.store(true, Ordering::Relaxed);
                    break;
                }
                let _ = slot.set(decision);
            }
        };
        // Cap the pool at the hardware parallelism: the work is CPU-bound, so
        // oversubscribed workers only add spawn and scheduling overhead (on a
        // single-core host every requested width degenerates to one worker, which
        // runs inline — no scope, no spawn, no join).
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = threads.max(1).min(misses.len()).min(hardware);
        if workers == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    // Deep stacks: the positive engine's witness search recurses to
                    // its Lemma 4.5 depth bound on schema-sized DTDs, and overflowing
                    // a worker stack aborts the whole process rather than failing the
                    // one decision.
                    std::thread::Builder::new()
                        .stack_size(xpsat_core::DECIDE_STACK_BYTES)
                        .spawn_scoped(scope, work)
                        .expect("spawn batch worker");
                }
            });
        }
        expired.into_inner()
    }

    /// The compiled decision program of a class, stamped for `artifacts` — the
    /// decision store's one build of the DTD text, so every workspace replays it
    /// as stored.  It is resolved once per class in the decision store: loaded from
    /// the persistent store when one is attached and holds a valid entry (zero
    /// compiles after a restart), else compiled (and written back).  `None` =
    /// outside the compiled fragment, decided by the AST solver.
    fn program_for(
        &self,
        entry: &StoreEntry,
        class: &QueryClass,
        artifacts: &DtdArtifacts,
    ) -> Option<Arc<DecisionProgram>> {
        entry
            .program
            .get_or_init(|| self.resolve_program(class, artifacts))
            .clone()
    }

    /// Load a class's program from the persistent store, else compile it (writing it
    /// back); `None` when the class is outside the compiled fragment, counted per
    /// [`xpsat_plan::BailReason`].
    fn resolve_program(
        &self,
        class: &QueryClass,
        artifacts: &DtdArtifacts,
    ) -> Option<Arc<DecisionProgram>> {
        if let Some(store) = &self.store {
            match store.load_program(
                artifacts.fingerprint,
                class.canonical_hash,
                &class.text,
                &artifacts.compiled,
            ) {
                Ok(rehydrated) => {
                    // A store hit is *not* a compile: `programs_compiled` stays
                    // untouched, which is exactly what the restart acceptance
                    // check asserts.
                    CacheStats::bump(&self.stats.program_store_hits);
                    return Some(Arc::new(rehydrated));
                }
                Err(miss) => {
                    if miss == StoreMiss::Invalid {
                        CacheStats::bump(&self.stats.program_store_corrupt);
                    }
                    CacheStats::bump(&self.stats.program_store_misses);
                }
            }
        }
        match xpsat_plan::compile_with_reason(
            &artifacts.compiled,
            &class.path,
            &CompileLimits::default(),
        ) {
            Ok(compiled) => {
                CacheStats::bump(&self.stats.programs_compiled);
                if let Some(store) = &self.store {
                    if store
                        .save_program(
                            artifacts.fingerprint,
                            class.canonical_hash,
                            &class.text,
                            &compiled,
                        )
                        .is_ok()
                    {
                        CacheStats::bump(&self.stats.program_store_writes);
                    }
                }
                Some(Arc::new(compiled))
            }
            Err(reason) => {
                CacheStats::bump(&self.stats.program_fallbacks);
                CacheStats::bump(&self.stats.compile_bailouts[reason.index()]);
                None
            }
        }
    }

    /// The compiled decision program of a query against a registered DTD (compiling
    /// on first touch), or `None` when the query's structural class is outside the
    /// compiled fragment and is decided by the AST solver.  The protocol's
    /// `classify` op reports program shape through this.
    pub fn compiled_program(
        &self,
        dtd: DtdId,
        query: QueryId,
    ) -> Result<Option<Arc<DecisionProgram>>, ServiceError> {
        let class = read_recovering(&self.queries).class(query)?.clone();
        let artifacts = self.artifacts(dtd)?;
        let entry = self.class_entry(self.dtd_key(dtd)?, &class);
        Ok(self.program_for(&entry, &class, &artifacts))
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// `(hits, analyses built)` of the solver's negation-analysis memo.
    pub fn negation_memo_stats(&self) -> (u64, u64) {
        self.solver.negation_memo_stats()
    }
}

/// Resolve a requested worker-thread count: `0` means "one per available CPU".
///
/// The single source of this policy for the protocol server and the CLI.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Short machine-readable engine name used by the protocol and fingerprints.
pub fn engine_slug(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Downward => "downward",
        EngineKind::Sibling => "sibling",
        EngineKind::DisjunctionFree => "disjunction-free",
        EngineKind::Positive => "positive",
        EngineKind::NegationFixpoint => "negation-fixpoint",
        EngineKind::Rewritten => "rewritten",
        EngineKind::Enumeration => "enumeration",
        EngineKind::CompiledVm => "compiled-vm",
    }
}

/// A canonical byte string capturing everything observable about a decision: verdict,
/// witness XML (when satisfiable), engine provenance and completeness.  Two decisions
/// fingerprint identically iff they are observationally the same; the acceptance tests
/// compare batch output to sequential output through this.
pub fn decision_fingerprint(decision: &Decision) -> String {
    use xpsat_core::Satisfiability;
    let verdict = match &decision.result {
        Satisfiability::Satisfiable(doc) => {
            format!("sat:{}", xpsat_xmltree::serialize::to_xml(doc))
        }
        Satisfiability::Unsatisfiable => "unsat".to_string(),
        Satisfiability::Unknown => "unknown".to_string(),
    };
    format!(
        "{verdict}|engine={}|complete={}",
        engine_slug(decision.engine),
        decision.complete
    )
}

/// The engine-independent projection of [`decision_fingerprint`]: verdict and
/// completeness only.  Used where a workspace decision (which may come from the
/// compiled-program VM) is compared against the AST solver as an oracle — the two
/// legitimately differ in engine provenance and may build different (equally valid)
/// witnesses, so only the verdict is comparable; witness validity is checked
/// separately with [`xpsat_core::sat::verify_witness`].
pub fn verdict_fingerprint(decision: &Decision) -> String {
    use xpsat_core::Satisfiability;
    let verdict = match &decision.result {
        Satisfiability::Satisfiable(_) => "sat",
        Satisfiability::Unsatisfiable => "unsat",
        Satisfiability::Unknown => "unknown",
    };
    format!("{verdict}|complete={}", decision.complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD_A: &str = "r -> a*; a -> b?; b -> #;";
    const DTD_B: &str = "r -> c | d; c -> #; d -> #;";

    #[test]
    fn the_store_matches_dtds_by_their_exact_text() {
        let shared = Arc::new(CanonicalCache::new());
        let first = Workspace::default().with_canonical_cache(Arc::clone(&shared));
        let (a1, b1) = (
            first.register_dtd(DTD_A).unwrap(),
            first.register_dtd(DTD_B).unwrap(),
        );
        // A DTD registered before the swap is re-keyed in the shared store.
        let second = Workspace::default();
        let b2 = second.register_dtd(DTD_B).unwrap();
        let e2 = second.register_dtd("r -> e+; e -> #;").unwrap();
        let second = second.with_canonical_cache(Arc::clone(&shared));
        let a2 = second.register_dtd(DTD_A).unwrap();
        let key = |ws: &Workspace, id: DtdId| ws.dtd_key(id).unwrap();
        // The same text gets the same key in both workspaces, whatever its id.
        assert_eq!(key(&first, a1), key(&second, a2));
        assert_eq!(key(&first, b1), key(&second, b2));
        assert_ne!(key(&first, a1), key(&first, b1));
        // ... and the same build: the swap adopts the store's build of a text it
        // holds, and offers the store its own build of a text it lacks.
        let build = |ws: &Workspace, id: DtdId| ws.artifacts(id).unwrap();
        assert!(Arc::ptr_eq(&build(&first, b1), &build(&second, b2)));
        let outcome = first.register_dtd_report("r -> e+; e -> #;").unwrap();
        assert!(outcome.cached && !outcome.reused);
        assert!(Arc::ptr_eq(&build(&first, outcome.id), &build(&second, e2)));
        assert_eq!(first.stats().classifications, 2);

        // `c` is satisfiable under DTD_B and not under DTD_A: an entry published
        // under one must not answer the same query text under the other.
        let q1 = first.intern("c").unwrap();
        let published = first.decide(b1, q1).unwrap();
        assert!(matches!(
            published.decision.result,
            xpsat_core::Satisfiability::Satisfiable(_)
        ));
        let q2 = second.intern("c").unwrap();
        let other = second.decide(a2, q2).unwrap();
        assert!(!other.cached);
        assert!(matches!(
            other.decision.result,
            xpsat_core::Satisfiability::Unsatisfiable
        ));
        assert_eq!(second.stats().canonical_hits, 0);
        // Under the same text it is a store hit.
        assert!(second.decide(b2, q2).unwrap().cached);
        assert_eq!(second.stats().canonical_hits, 1);
    }

    #[test]
    fn deadline_exceeded_aborts_batch_but_publishes_progress() {
        let ws = Workspace::default();
        let d = ws.register_dtd(DTD_A).unwrap();
        let ids: Vec<QueryId> = ["a", "a/b", "a[b]", "b/..", "a[not(b)]"]
            .iter()
            .map(|t| ws.intern(t).unwrap())
            .collect();
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = ws
            .decide_batch(d, &ids, 2, Some(expired), None)
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        assert_eq!(ws.stats().deadline_exceeded, 1);

        // Without a deadline the same batch completes, reusing anything published.
        let served = ws.decide_batch(d, &ids, 2, None, None).unwrap();
        assert_eq!(served.len(), ids.len());
    }

    #[test]
    fn expired_single_query_exceeds_its_deadline_and_publishes_nothing() {
        let ws = Workspace::default();
        let d = ws.register_dtd(DTD_A).unwrap();
        let q = ws.intern("a[not(b)]").unwrap();
        let expired = Instant::now() - std::time::Duration::from_millis(1);
        let err = ws
            .decide_batch(d, &[q], 1, Some(expired), None)
            .unwrap_err();
        assert_eq!(err, ServiceError::DeadlineExceeded);
        let stats = ws.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.decisions_computed, 0, "{stats}");
        // Nothing was published: the next call computes the class afresh.
        let fresh = ws.decide(d, q).unwrap();
        assert!(!fresh.cached);
        assert_eq!(ws.stats().decisions_computed, 1);
        // A decided class is served even past its deadline: only misses check it.
        let served = ws.decide_batch(d, &[q], 1, Some(expired), None).unwrap();
        assert!(served[0].cached);
    }

    #[test]
    fn exhausted_decisions_are_served_but_never_cached() {
        let ws = Workspace::default();
        let d = ws
            .register_dtd("r -> a*; a -> b | c; b -> #; c -> #;")
            .unwrap();
        let q = ws.intern("a[not(b)]").unwrap();
        let capped = ws
            .decide_batch(d, &[q], 1, None, Some(1))
            .unwrap()
            .pop()
            .unwrap();
        assert!(capped.decision.exhausted.is_some());
        assert!(matches!(
            capped.decision.result,
            xpsat_core::Satisfiability::Unknown
        ));
        assert_eq!(ws.stats().resource_exhausted, 1);
        // The Unknown was not published: an unconstrained retry computes fresh and
        // gets the real verdict.
        let free = ws.decide(d, q).unwrap();
        assert!(!free.cached);
        assert!(matches!(
            free.decision.result,
            xpsat_core::Satisfiability::Satisfiable(_)
        ));

        // Same through the batch path.
        let ws = Workspace::default();
        let d = ws
            .register_dtd("r -> a*; a -> b | c; b -> #; c -> #;")
            .unwrap();
        let qs = [ws.intern("a[not(b)]").unwrap(), ws.intern("a/b").unwrap()];
        let served = ws.decide_batch(d, &qs, 2, None, Some(1)).unwrap();
        assert!(served[0].decision.exhausted.is_some());
        let retry = ws.decide(d, qs[0]).unwrap();
        assert!(!retry.cached);
        assert!(retry.decision.exhausted.is_none());
    }

    #[test]
    fn restarted_workspace_serves_programs_with_zero_compiles() {
        let dir = std::env::temp_dir().join(format!("xpsat-ws-prg-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ArtifactStore::open(&dir).unwrap();
        let dtd = "r -> a; a -> b | c; b -> d?; c -> #; d -> #;";
        let texts = ["a[b or c]", "a[not(b)]", "a/b/d", "a[b/d or c]"];

        let warm = Workspace::default().with_store(store.clone());
        let d = warm.register_dtd(dtd).unwrap();
        let mut verdicts = Vec::new();
        for t in &texts {
            let q = warm.intern(t).unwrap();
            verdicts.push(verdict_fingerprint(&warm.decide(d, q).unwrap().decision));
        }
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.programs_compiled, texts.len() as u64);
        assert_eq!(warm_stats.program_store_writes, texts.len() as u64);
        assert_eq!(warm_stats.program_store_hits, 0);

        // "Restart": a fresh workspace over the same store answers every
        // previously-compiled query through the VM with zero compiles.
        let cold = Workspace::default().with_store(store);
        let d = cold.register_dtd(dtd).unwrap();
        for (t, expected) in texts.iter().zip(&verdicts) {
            let q = cold.intern(t).unwrap();
            let served = cold.decide(d, q).unwrap();
            assert_eq!(&verdict_fingerprint(&served.decision), expected, "{t}");
        }
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.programs_compiled, 0, "{cold_stats}");
        assert_eq!(cold_stats.program_store_hits, texts.len() as u64);
        assert_eq!(cold_stats.vm_decides, texts.len() as u64);

        // Out-of-fragment queries are counted by bail reason.
        let q = cold.intern("d/..").unwrap();
        cold.decide(d, q).unwrap();
        let after = cold.stats();
        assert_eq!(after.program_fallbacks, 1);
        assert_eq!(after.compile_bailouts.iter().sum::<u64>(), 1);
        assert_eq!(
            after.bailouts_by_reason(),
            vec![("upward_axis", 1)],
            "{after}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_decided_declines_without_a_trace_and_counts_like_decide() {
        let ws = Workspace::default();
        let d = ws.register_dtd(DTD_A).unwrap();
        let twin = Workspace::default();
        twin.register_dtd(DTD_A).unwrap();
        for w in [&ws, &twin] {
            let q = w.intern("a[b]").unwrap();
            w.intern("a/b").unwrap();
            w.decide(d, q).unwrap();
        }
        // A first-seen spelling, a parse error, an unknown DTD, and an interned
        // spelling whose class is undecided all decline, as does any batch holding
        // one of them: no counter moves and the store gains no entry.
        let before = ws.stats();
        let classes = ws.canonical_cache().len();
        for texts in [&["a[b][b]"][..], &["a[["], &["a/b"], &["a[b]", "a/b"]] {
            assert!(ws.serve_decided(d, texts).is_none(), "{texts:?}");
        }
        assert!(ws.serve_decided(DtdId(9), &["a[b]"]).is_none());
        assert_eq!(ws.stats(), before);
        assert_eq!(ws.canonical_cache().len(), classes);

        // A decided batch is served exactly as interning and deciding it would be.
        let texts = ["a[b]", "a[b]"];
        let served = ws.serve_decided(d, &texts).expect("every class is decided");
        let ids: Vec<QueryId> = texts.iter().map(|t| twin.intern(t).unwrap()).collect();
        let expected = twin.decide_batch(d, &ids, 1, None, None).unwrap();
        assert_eq!(served.len(), expected.len());
        for ((spelling, one), want) in served.iter().zip(&expected) {
            assert_eq!(spelling, "a[b]");
            assert_eq!(one.cached, want.cached);
            assert_eq!(
                decision_fingerprint(&one.decision),
                decision_fingerprint(&want.decision)
            );
        }
        assert_eq!(ws.stats(), twin.stats());
    }

    /// Run `work(i)` on 8 threads released together.
    fn on_eight_threads<T: Send>(work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|i| {
                    let (start, work) = (&start, &work);
                    scope.spawn(move || {
                        start.wait();
                        work(i)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        })
    }

    #[test]
    fn racing_registrations_of_one_text_share_the_first_id() {
        let dir = std::env::temp_dir().join(format!("xpsat-ws-race-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ArtifactStore::open(&dir).unwrap();
        let ws = Workspace::default().with_store(store);
        let ids = on_eight_threads(|_| ws.register_dtd(DTD_A).unwrap());
        assert!(ids.iter().all(|&id| id == DtdId(0)), "{ids:?}");
        let stats = ws.stats();
        assert_eq!(stats.dtds_registered, 1, "{stats}");
        assert_eq!(stats.dtds_reused, 7, "{stats}");
        // One build and at most one save: the racers wait for the first builder.
        assert_eq!(stats.classifications, 1, "{stats}");
        assert!(stats.artifact_store_writes <= 1, "{stats}");
        assert_eq!(ws.dtd_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspaces_sharing_a_store_build_each_text_once() {
        let shared = Arc::new(CanonicalCache::new());
        let tenants: Vec<Workspace> = (0..8)
            .map(|_| Workspace::default().with_canonical_cache(Arc::clone(&shared)))
            .collect();
        let outcomes = on_eight_threads(|i| tenants[i].register_dtd_report(DTD_A).unwrap());
        assert!(outcomes.iter().all(|o| o.id == DtdId(0) && !o.reused));
        assert_eq!(outcomes.iter().filter(|o| !o.cached).count(), 1);
        let classifications: u64 = tenants.iter().map(|ws| ws.stats().classifications).sum();
        assert_eq!(classifications, 1);
        let first = tenants[0].artifacts(DtdId(0)).unwrap();
        for ws in &tenants {
            assert!(Arc::ptr_eq(&ws.artifacts(DtdId(0)).unwrap(), &first));
        }
        // One build means one stamp: a program compiled by one workspace replays in
        // the VM of another.  One step of fuel compiles the program but publishes no
        // decision.
        let q = tenants[0].intern("a[b]").unwrap();
        let capped = tenants[0]
            .decide_batch(DtdId(0), &[q], 1, None, Some(1))
            .unwrap();
        assert!(capped[0].decision.exhausted.is_some());
        let q = tenants[1].intern("a[b]").unwrap();
        let served = tenants[1].decide(DtdId(0), q).unwrap();
        assert!(!served.cached);
        assert_eq!(engine_slug(served.decision.engine), "compiled-vm");
        let stats = tenants[1].stats();
        assert_eq!(stats.programs_compiled, 0, "{stats}");
        assert_eq!(stats.vm_witness_fallbacks, 0, "{stats}");
    }

    #[test]
    fn racing_registrations_of_distinct_texts_get_distinct_ids() {
        let ws = Workspace::default();
        let text = |i: usize| format!("r{i} -> a*; a -> #;");
        let ids = on_eight_threads(|i| ws.register_dtd(&text(i)).unwrap());
        let mut sorted: Vec<usize> = ids.iter().map(|id| id.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        for (i, id) in ids.into_iter().enumerate() {
            let artifacts = ws.artifacts(id).unwrap();
            assert_eq!(artifacts.compiled.dtd().root(), format!("r{i}"));
        }
        assert_eq!(ws.stats().dtds_registered, 8);
    }

    #[test]
    fn parse_errors_carry_spans() {
        let ws = Workspace::default();
        match ws.register_dtd("r -> (a; a -> #;").unwrap_err() {
            ServiceError::DtdParse { span, .. } => assert!(span.0 < "r -> (a; a -> #;".len()),
            other => panic!("expected DtdParse, got {other:?}"),
        }
        match ws.intern("a/ |b").unwrap_err() {
            ServiceError::QueryParse { span, .. } => assert_eq!(span, (3, 1)),
            other => panic!("expected QueryParse, got {other:?}"),
        }
    }
}
