//! Seeded fuzz loop and fault-injection harness.
//!
//! Two hostile surfaces, one invariant — *structured degradation, never a panic*:
//!
//! * The protocol front-end is fired at with mutations of grammar-valid XPath and
//!   DTD texts.  Every response must be one JSON line that either succeeds or
//!   carries a structured error object with a known `kind`.
//! * The on-disk [`ArtifactStore`] is damaged in every way a hostile filesystem
//!   can manage — torn writes, truncation, bit flips, unwritable directories —
//!   and every damage mode must degrade to a cache miss or an ignored write.
//!
//! The loop is deterministic per seed.  `XPSAT_FUZZ_ITERS` scales the iteration
//! count (default keeps tier-1 runs fast; CI's fuzz-smoke job runs thousands).

use xpsat_service::{Json, ProtocolServer, ServiceError, Workspace};

/// SplitMix64: tiny, seedable, and good enough to drive mutations — the harness
/// deliberately avoids pulling an RNG crate into the service's dev graph.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

fn iterations() -> usize {
    std::env::var("XPSAT_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

const DTD_SEEDS: &[&str] = &[
    "r -> a*; a -> b?; b -> #;",
    "r -> (a | b)*; a -> c; b -> c?; c -> #;",
    "doc -> title, section*; title -> #; section -> title, para*; para -> #;",
    "r -> r? ; ",
    "a -> (b, c) | (c, b); b -> #; c -> # @id;",
];

const QUERY_SEEDS: &[&str] = &[
    "a[b]",
    "a[not(b)]/c",
    "**/a/b[c | d]",
    "a[@id = @ref]",
    "*/*[not(a/b)]",
    "a[b and not(c or d)]",
    "section/**/para",
];

/// Fragments that keep many mutants near the grammar, where parsers hurt most.
const TOKENS: &[&str] = &[
    "[", "]", "(", ")", "not(", "/", "//", "*", "|", "->", "#", ";", ",", "?", "@", "=", "'x'",
    " ", "a", "b", "r", "and ", "or ", "..",
];

/// One mutation step: splice, duplicate, delete, or insert near-grammar tokens.
fn mutate(rng: &mut Rng, seeds: &[&str]) -> String {
    let mut text = (*rng.pick(seeds)).to_string();
    for _ in 0..=rng.below(4) {
        match rng.below(5) {
            0 => {
                // Splice a random slice of another seed somewhere.
                let other = *rng.pick(seeds);
                let from = rng.below(other.len() + 1);
                let to = from + rng.below(other.len() - from + 1);
                if let (Some(slice), at) = (other.get(from..to), rng.below(text.len() + 1)) {
                    if text.is_char_boundary(at) {
                        text.insert_str(at, slice);
                    }
                }
            }
            1 => {
                // Duplicate a prefix (builds nesting fast on bracketed seeds).
                let cut = rng.below(text.len() + 1);
                if text.is_char_boundary(cut) {
                    let prefix = text[..cut].to_string();
                    text.push_str(&prefix);
                }
            }
            2 => {
                // Delete a slice.
                let from = rng.below(text.len() + 1);
                let to = (from + rng.below(8)).min(text.len());
                if text.is_char_boundary(from) && text.is_char_boundary(to) {
                    text.replace_range(from..to, "");
                }
            }
            _ => {
                // Insert a grammar-adjacent token.
                let at = rng.below(text.len() + 1);
                if text.is_char_boundary(at) {
                    let token: &&str = rng.pick(TOKENS);
                    text.insert_str(at, token);
                }
            }
        }
        if text.len() > 4096 {
            text.truncate(4096);
            while !text.is_char_boundary(text.len()) {
                text.truncate(text.len() - 1);
            }
        }
    }
    text
}

const KNOWN_KINDS: &[&str] = &[
    "malformed_request",
    "unknown_op",
    "query_parse",
    "dtd_parse",
    "unknown_dtd",
    "unknown_query",
    "no_current_dtd",
    "deadline_exceeded",
    "overloaded",
    "oversized",
    "resource_exhausted",
    "internal_error",
    "invalid_tenant",
    "invalid_request",
    "shutting_down",
];

/// Every response line must parse, carry `ok`, and on failure carry a structured
/// error object with a known kind.
fn assert_structured(line: &str, input: &str) {
    let response = Json::parse(line.trim())
        .unwrap_or_else(|e| panic!("unparseable response {line:?} for input {input:?}: {e}"));
    let ok = response
        .get("ok")
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("response without ok for {input:?}: {line}"));
    if !ok {
        let error = response
            .get("error")
            .unwrap_or_else(|| panic!("ok:false without error object for {input:?}: {line}"));
        let kind = error
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("error without kind for {input:?}: {line}"));
        assert!(
            KNOWN_KINDS.contains(&kind),
            "unknown error kind {kind:?} for {input:?}: {line}"
        );
    }
}

#[test]
fn fuzzed_protocol_inputs_never_panic_and_always_answer_structured() {
    let iters = iterations();
    let mut rng = Rng(0x5eed_2005);
    let mut server = ProtocolServer::new(1);
    for i in 0..iters {
        // Recycle the server periodically so workspace growth stays bounded.
        if i % 256 == 255 {
            server = ProtocolServer::new(1);
        }
        let dtd = mutate(&mut rng, DTD_SEEDS);
        let query = mutate(&mut rng, QUERY_SEEDS);
        let reg = Json::obj(vec![
            ("op", Json::Str("register_dtd".into())),
            ("dtd", Json::Str(dtd.clone())),
        ]);
        let line = server.handle_line(&reg.to_string());
        assert_structured(&line, &dtd);
        let dtd_id = Json::parse(line.trim())
            .ok()
            .and_then(|r| r.get("dtd_id").and_then(Json::as_u64))
            .unwrap_or(0);
        // Budget every decide so a mutant that happens to be EXPTIME-shaped
        // answers resource_exhausted instead of stalling the loop.
        let check = Json::obj(vec![
            ("op", Json::Str("check".into())),
            ("dtd_id", Json::Num(dtd_id as f64)),
            ("query", Json::Str(query.clone())),
            ("max_steps", Json::Num(200_000.0)),
        ]);
        let line = server.handle_line(&check.to_string());
        assert_structured(&line, &query);
    }
}

/// Cut `line` at a random character boundary half of the time.
fn maybe_truncate(rng: &mut Rng, mut line: String) -> String {
    if rng.below(2) == 0 {
        let mut cut = rng.below(line.len() + 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line.truncate(cut);
    }
    line
}

/// Whole request lines mutated at the JSON level: a DTD or query string extended
/// by a long run of one unit (multibyte text, an escape, a postfix operator), and
/// arrays or objects nested to either side of the parser's depth cap or far past
/// it.  Every line answers structured, and nesting is refused exactly past the cap.
#[test]
fn fuzzed_request_lines_with_long_strings_and_deep_nesting_answer_structured() {
    const UNITS: &[&str] = &[
        "a",
        " ",
        "+",
        "*",
        "?",
        "(",
        "é",
        "😀",
        "\\n",
        "\\\"",
        "\\\\",
        "\\u00e9",
        "\\ud83d\\ude00",
    ];
    let max = xpsat_service::json::MAX_DEPTH;
    let mut rng = Rng(0xdeca_f00d);
    let server = ProtocolServer::new(1);
    for _ in 0..iterations() / 2 {
        if rng.below(2) == 0 {
            let (op, field, seeds) = if rng.below(2) == 0 {
                ("register_dtd", "dtd", DTD_SEEDS)
            } else {
                ("check", "query", QUERY_SEEDS)
            };
            let head = Json::Str(mutate(&mut rng, seeds)).to_string();
            let run = rng.pick(UNITS).repeat(rng.below(20_000));
            let line = format!(
                r#"{{"op":"{op}","dtd_id":0,"max_steps":200000,"{field}":{}{run}"}}"#,
                &head[..head.len() - 1]
            );
            let line = maybe_truncate(&mut rng, line);
            let input = format!("{op} line of {} bytes", line.len());
            assert_structured(&server.handle_line(&line), &input);
        } else {
            let depth = match rng.below(3) {
                0 => max - 1 - rng.below(3),
                1 => max + rng.below(3),
                _ => rng.below(200_000),
            };
            let (open, close) = if rng.below(2) == 0 {
                ("[", "]")
            } else {
                (r#"{"k":"#, "}")
            };
            // The request object is one level; `pad` nests `depth` more.
            let line = format!(
                r#"{{"op":"stats","pad":{}1{}}}"#,
                open.repeat(depth),
                close.repeat(depth)
            );
            let response = server.handle_line(&line);
            assert_structured(&response, &format!("pad nested {depth} deep"));
            let response = Json::parse(&response).unwrap();
            let ok = response.get("ok").and_then(Json::as_bool);
            assert_eq!(ok, Some(depth < max), "pad nested {depth} deep");
            if depth >= max {
                let message = response
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap();
                assert!(message.contains("nest deeper"), "{message}");
            }
            let line = maybe_truncate(&mut rng, line);
            assert_structured(&server.handle_line(&line), "truncated nesting");
        }
    }
}

#[test]
fn fuzzed_parsers_fail_with_in_bounds_spans() {
    let iters = iterations();
    let mut rng = Rng(0xca11_ab1e);
    for _ in 0..iters {
        let dtd = mutate(&mut rng, DTD_SEEDS);
        if let Err(e) = xpsat_dtd::parse_dtd(&dtd) {
            assert!(
                e.span.offset <= dtd.len(),
                "span {:?} out of bounds for {dtd:?}",
                e.span
            );
            assert!(!e.message.is_empty());
        }
        let query = mutate(&mut rng, QUERY_SEEDS);
        if let Err(e) = xpsat_xpath::parse_path(&query) {
            assert!(
                e.span.offset <= query.len(),
                "span {:?} out of bounds for {query:?}",
                e.span
            );
            assert!(!e.message.is_empty());
        }
    }
}

// ---- decision-program pipeline under fuzzed inputs -------------------------------

/// Canonical-hash collision probe over parsing mutants: whenever two fuzzed queries
/// share a canonical hash they must share the canonical form, since every
/// hash-keyed cache sweep (the cross-tenant canonical cache, batch dedup) treats
/// equal hashes as equal classes.
#[test]
fn fuzzed_query_canonical_hashes_never_collide_across_classes() {
    let iters = iterations();
    let mut rng = Rng(0xc011_1de5);
    let mut seen: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for _ in 0..iters {
        let text = mutate(&mut rng, QUERY_SEEDS);
        let Ok(path) = xpsat_xpath::parse_path(&text) else {
            continue;
        };
        let canon = xpsat_plan::CanonicalQuery::of(&path);
        if let Some(previous) = seen.insert(canon.canonical_hash, canon.text.clone()) {
            assert_eq!(
                previous, canon.text,
                "canonical-hash collision across classes (mutant {text:?})"
            );
        }
    }
}

/// Fuzzed mutants that land inside the compiled fragment must agree with the AST
/// solver — same budget on both sides, verdicts compared only when both completed.
#[test]
fn fuzzed_in_fragment_queries_agree_with_ast_solver() {
    let iters = iterations();
    let mut rng = Rng(0x900d_5eed);
    let solver = xpsat_core::Solver::default();
    let mut scratch = xpsat_plan::Scratch::new();
    let mut agreed = 0usize;
    for _ in 0..iters {
        let dtd_text = mutate(&mut rng, DTD_SEEDS);
        let Ok(dtd) = xpsat_dtd::parse_dtd(&dtd_text) else {
            continue;
        };
        let query_text = mutate(&mut rng, QUERY_SEEDS);
        let Ok(query) = xpsat_xpath::parse_path(&query_text) else {
            continue;
        };
        let artifacts = xpsat_dtd::DtdArtifacts::build(&dtd);
        let canon = xpsat_plan::CanonicalQuery::of(&query);
        let limits = xpsat_plan::CompileLimits::default();
        let Some(program) = xpsat_plan::compile(&artifacts, &canon.path, &limits) else {
            continue;
        };
        let budget = xpsat_core::Budget::steps(200_000);
        let Some(replayed) = xpsat_plan::vm::decide(&program, &artifacts, &mut scratch, &budget)
        else {
            continue;
        };
        let direct = solver.decide_budgeted(&artifacts, &query, &budget);
        if !replayed.complete || !direct.complete {
            continue; // a capped side has no verdict to compare
        }
        assert_eq!(
            xpsat_service::verdict_fingerprint(&replayed),
            xpsat_service::verdict_fingerprint(&direct),
            "VM/AST divergence on {query_text:?} under {dtd_text:?}"
        );
        agreed += 1;
    }
    assert!(
        agreed > 0,
        "no fuzzed mutant exercised the compiled fragment"
    );
}

// ---- store fault injection -------------------------------------------------------

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xpsat-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DTD: &str = "r -> a*; a -> b?; b -> #;";

/// Register through a store whose only entry has been damaged; the workspace must
/// serve correct answers (recompiling), count the corruption, and repair the slot.
fn register_over_damaged_entry(
    damage: impl FnOnce(&std::path::Path),
    tag: &str,
) -> xpsat_service::StatsSnapshot {
    let dir = scratch_dir(tag);
    let store = xpsat_service::ArtifactStore::open(&dir).unwrap();
    let first = Workspace::default().with_store(store.clone());
    first.register_dtd(DTD).unwrap();
    let entry = std::fs::read_dir(store.version_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "art"))
        .expect("one .art entry");
    damage(&entry);

    let second = Workspace::default().with_store(store);
    let id = second
        .register_dtd(DTD)
        .expect("registration survives damage");
    let q = second.intern("a[b]").unwrap();
    let served = second.decide(id, q).expect("decides after damage");
    assert_eq!(
        format!("{}", served.decision.result),
        "satisfiable",
        "{tag}: damage must not change answers"
    );
    let stats = second.stats();
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

#[test]
fn truncated_entry_degrades_to_counted_miss() {
    let stats = register_over_damaged_entry(
        |entry| {
            let bytes = std::fs::read(entry).unwrap();
            std::fs::write(entry, &bytes[..bytes.len() / 3]).unwrap();
        },
        "truncate",
    );
    assert_eq!(stats.artifact_store_corrupt, 1);
    assert_eq!(stats.artifact_store_misses, 1);
    assert_eq!(stats.classifications, 1, "recompiled from text");
}

#[test]
fn bit_flipped_entries_degrade_to_miss_at_every_position() {
    // Flip one byte at a seeded sample of positions; each flip must yield either a
    // still-valid load (flips in padding slack) or a counted miss — never a panic.
    let dir = scratch_dir("bitflip");
    let store = xpsat_service::ArtifactStore::open(&dir).unwrap();
    let seed_ws = Workspace::default().with_store(store.clone());
    seed_ws.register_dtd(DTD).unwrap();
    let entry = std::fs::read_dir(store.version_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "art"))
        .expect("one .art entry");
    let pristine = std::fs::read(&entry).unwrap();

    let mut rng = Rng(0xb17_f11b);
    let samples = (iterations() / 3).clamp(32, pristine.len() * 8);
    for _ in 0..samples {
        let mut damaged = pristine.clone();
        let pos = rng.below(damaged.len());
        damaged[pos] ^= 1 << rng.below(8);
        std::fs::write(&entry, &damaged).unwrap();

        let ws = Workspace::default().with_store(store.clone());
        let id = ws.register_dtd(DTD).expect("registration never fails");
        let q = ws.intern("a[b]").unwrap();
        let served = ws.decide(id, q).expect("decides under every flip");
        assert_eq!(format!("{}", served.decision.result), "satisfiable");

        // Repair for the next round (a corrupt load deletes the entry).
        std::fs::write(&entry, &pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm a store so it holds exactly one persisted program, returning the store
/// and the `.prg` entry path.
fn store_with_one_program(
    tag: &str,
) -> (
    std::path::PathBuf,
    xpsat_service::ArtifactStore,
    std::path::PathBuf,
) {
    let dir = scratch_dir(tag);
    let store = xpsat_service::ArtifactStore::open(&dir).unwrap();
    let warm = Workspace::default().with_store(store.clone());
    let id = warm.register_dtd(DTD).unwrap();
    let q = warm.intern("a[b]").unwrap();
    warm.decide(id, q).unwrap();
    assert_eq!(warm.stats().program_store_writes, 1);
    let entry = std::fs::read_dir(store.version_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "prg"))
        .expect("one .prg entry");
    (dir, store, entry)
}

#[test]
fn truncated_program_entry_recompiles_with_counted_corruption() {
    let (dir, store, entry) = store_with_one_program("prg-truncate");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let ws = Workspace::default().with_store(store);
    let id = ws.register_dtd(DTD).unwrap();
    let q = ws.intern("a[b]").unwrap();
    let served = ws.decide(id, q).expect("decides over damaged program");
    assert_eq!(format!("{}", served.decision.result), "satisfiable");
    let stats = ws.stats();
    assert_eq!(stats.program_store_corrupt, 1);
    assert_eq!(stats.program_store_misses, 1);
    assert_eq!(stats.programs_compiled, 1, "recompiled after checksum miss");
    assert_eq!(stats.vm_decides, 1, "recompile still serves the VM path");
    // The damaged entry was deleted on sight and replaced by a fresh valid write.
    assert_eq!(stats.program_store_writes, 1);
    let repaired = std::fs::read(&entry).unwrap();
    assert_ne!(repaired.len(), bytes.len() / 2, "slot was repaired");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_program_entries_never_reach_the_vm() {
    // Flip one bit at a seeded sample of positions.  Every flip must degrade to a
    // counted corruption + recompile (the FNV trailer covers the whole body), and
    // the verdict must be unchanged — never a panic, never a wrong answer.
    let (dir, store, entry) = store_with_one_program("prg-bitflip");
    let pristine = std::fs::read(&entry).unwrap();

    let mut rng = Rng(0x9006_f11b);
    let samples = (iterations() / 3).clamp(32, pristine.len() * 8);
    for _ in 0..samples {
        let mut damaged = pristine.clone();
        let pos = rng.below(damaged.len());
        damaged[pos] ^= 1 << rng.below(8);
        if damaged == pristine {
            continue;
        }
        std::fs::write(&entry, &damaged).unwrap();

        let ws = Workspace::default().with_store(store.clone());
        let id = ws.register_dtd(DTD).unwrap();
        let q = ws.intern("a[b]").unwrap();
        let served = ws.decide(id, q).expect("decides under every flip");
        assert_eq!(format!("{}", served.decision.result), "satisfiable");
        let stats = ws.stats();
        assert_eq!(
            stats.program_store_hits + stats.program_store_corrupt,
            1,
            "flip at {pos}: either caught as corrupt or (impossible with a full-body \
             checksum) still valid"
        );
        assert_eq!(stats.program_store_corrupt, 1, "flip at {pos} must miss");

        // Repair for the next round (a corrupt load deletes the entry).
        std::fs::write(&entry, &pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_is_invisible_to_readers() {
    // A torn write is a leftover temp file: the writer crashed before the atomic
    // rename.  Readers must treat the key as absent and recompile.
    let dir = scratch_dir("torn");
    let store = xpsat_service::ArtifactStore::open(&dir).unwrap();
    std::fs::write(
        store.version_dir().join(".tmp-0000000000000000-99999"),
        b"XPSATARTgarbage-from-a-crashed-writer",
    )
    .unwrap();
    let ws = Workspace::default().with_store(store);
    let id = ws.register_dtd(DTD).unwrap();
    let q = ws.intern("a[b]").unwrap();
    assert!(ws.decide(id, q).is_ok());
    let stats = ws.stats();
    assert_eq!(
        stats.artifact_store_corrupt, 0,
        "temp files are not entries"
    );
    assert_eq!(stats.artifact_store_writes, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn unwritable_store_dir_degrades_to_compute_only() {
    use std::os::unix::fs::PermissionsExt;
    let dir = scratch_dir("readonly");
    let store = xpsat_service::ArtifactStore::open(&dir).unwrap();
    let perms = std::fs::Permissions::from_mode(0o555);
    std::fs::set_permissions(store.version_dir(), perms).unwrap();

    // Root ignores directory permission bits; only assert the degraded-write path
    // when the OS actually enforces them.
    let enforced = std::fs::write(store.version_dir().join(".probe"), b"x").is_err();

    let ws = Workspace::default().with_store(store.clone());
    let id = ws
        .register_dtd(DTD)
        .expect("registration tolerates a dead store");
    let q = ws.intern("a[not(b)]").unwrap();
    let served = ws.decide(id, q).expect("decides without persistence");
    assert!(served.decision.complete);
    if enforced {
        assert_eq!(ws.stats().artifact_store_writes, 0, "no write was recorded");
    }

    let restore = std::fs::Permissions::from_mode(0o755);
    std::fs::set_permissions(store.version_dir(), restore).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A parse error surfaced through the whole stack keeps its span: the acceptance
/// path for hostile deep inputs (100k-deep qualifiers, 10k-element DTDs) without
/// stack overflow.
#[test]
fn pathological_depth_answers_spanned_errors_not_stack_overflow() {
    let server = ProtocolServer::new(1);

    // 100k-deep nested qualifier.
    let mut query = String::from("a");
    for _ in 0..100_000 {
        query.push_str("[b");
    }
    query.push_str(&"]".repeat(100_000));
    let check = Json::obj(vec![
        ("op", Json::Str("check".into())),
        ("dtd_id", Json::Num(0.0)),
        ("query", Json::Str(query.clone())),
    ]);
    let line = server.handle_line(&check.to_string());
    assert_structured(&line, "deep query");
    let response = Json::parse(line.trim()).unwrap();
    let error = response.get("error").unwrap();
    // unknown_dtd wins only if parsing survived; the depth limit must fire first.
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("query_parse")
    );
    assert!(error.get("span").is_some(), "span missing: {line}");

    // 10k-element recursive DTD: parses (iterative rules) or errors with a span —
    // either way it answers and never overflows.
    let mut dtd = String::from("e0 -> e1?;");
    for i in 1..10_000 {
        dtd.push_str(&format!(" e{i} -> e{}?, e0?;", i + 1));
    }
    dtd.push_str(&format!(" e{} -> #;", 10_000));
    let reg = Json::obj(vec![
        ("op", Json::Str("register_dtd".into())),
        ("dtd", Json::Str(dtd.clone())),
    ]);
    let line = server.handle_line(&reg.to_string());
    assert_structured(&line, "deep dtd");
}

/// The workspace surfaces parse spans through `ServiceError` too (the CLI path).
#[test]
fn workspace_parse_errors_expose_spans() {
    let ws = Workspace::default();
    match ws.register_dtd("r -> (a; a -> #;") {
        Err(ServiceError::DtdParse { span, .. }) => assert!(span.0 < 16),
        other => panic!("expected DtdParse, got {other:?}"),
    }
    match ws.intern("a[") {
        Err(ServiceError::QueryParse { span, .. }) => assert!(span.0 <= 2),
        other => panic!("expected QueryParse, got {other:?}"),
    }
}
