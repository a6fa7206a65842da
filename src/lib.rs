//! `xpathsat` — XPath satisfiability in the presence of DTDs.
//!
//! This is the façade crate of the workspace reproducing Benedikt, Fan & Geerts,
//! *"XPath Satisfiability in the Presence of DTDs"* (PODS 2005 / JACM 2008).  It
//! re-exports the component crates under stable names and is the dependency used by the
//! examples, the workspace-level integration tests and downstream users.
//!
//! * [`automata`] — regular expressions, Glushkov NFAs, DFAs, coverage search;
//! * [`xml`] — document trees, serialisation, streaming tag encoding;
//! * [`dtd`] — DTDs: parsing, analysis, normalisation, validation, generation;
//! * [`xpath`] — the XPath class of the paper: AST, parser, fragments, evaluator,
//!   rewritings;
//! * [`logic`] — reference solvers for the lower-bound source problems;
//! * [`sat`] — the satisfiability engines, the solver façade, the containment analysis
//!   and the hardness-reduction generators;
//! * [`plan`] — the decision-program compiler: structural canonicalisation (cache keys
//!   shared across query spellings and tenants), lowering to a flat bytecode program,
//!   and the allocation-free replay VM (in `xpsat-plan`);
//! * [`service`] — the batched, cached satisfiability service: DTD-artifact caching
//!   with a persistent on-disk store, query interning, multi-threaded `decide_batch`
//!   with deadlines, and the JSON-lines protocol (in `xpsat-service`);
//! * [`server`] — the persistent multi-tenant network front-end: TCP/Unix-socket
//!   JSON-lines server with a hand-rolled worker pool, per-tenant workspaces,
//!   backpressure and the `xpathsat` CLI (in `xpsat-server`).
//!
//! # Quickstart
//!
//! ```
//! use xpathsat::prelude::*;
//!
//! let dtd = parse_dtd(
//!     "root store; store -> book*; book -> title, author+, price?;
//!      title -> #; author -> #; price -> #; @book: isbn;",
//! )
//! .unwrap();
//!
//! let query = parse_path("book[author and not(price)]").unwrap();
//! let solver = Solver::default();
//! let decision = solver.decide(&dtd, &query);
//! assert!(matches!(decision.result, Satisfiability::Satisfiable(_)));
//!
//! // Unsatisfiable queries are detected together with the engine that proved it.
//! let dead = parse_path("book[editor]").unwrap();
//! assert!(matches!(solver.decide(&dtd, &dead).result, Satisfiability::Unsatisfiable));
//! ```

pub use xpsat_automata as automata;
pub use xpsat_core as sat;
pub use xpsat_dtd as dtd;
pub use xpsat_logic as logic;
pub use xpsat_plan as plan;
pub use xpsat_server as server;
pub use xpsat_service as service;
pub use xpsat_xmltree as xml;
pub use xpsat_xpath as xpath;

/// The most common imports, bundled for examples and tests.
pub mod prelude {
    pub use xpsat_core::{
        containment::{boolean_containment, containment, Containment},
        sat::verify_witness,
        Decision, EngineKind, Satisfiability, Solver,
    };
    pub use xpsat_dtd::{classify, parse_dtd, validate, Dtd, TreeGenerator};
    pub use xpsat_service::{ServedDecision, Session, StatsSnapshot, Workspace};
    pub use xpsat_xmltree::Document;
    pub use xpsat_xpath::{eval, parse_path, parse_qualifier, Features, Fragment, Path, Qualifier};
}
