//! The JSON-lines request/response protocol.
//!
//! One request per line in, one response per line out; blank lines are ignored.  The
//! protocol is stateful: `register_dtd` adds to the server-side [`Workspace`] and later
//! requests refer to DTDs by the returned `dtd_id`.  See the README for the full spec.
//!
//! Requests (`op` selects the operation):
//!
//! ```text
//! {"op":"register_dtd","dtd":"r -> a*; a -> #;"}
//! {"op":"check","dtd_id":0,"query":"a","witness":true}
//! {"op":"batch","dtd_id":0,"queries":["a","a[b]"],"threads":4,"witness":false}
//! {"op":"classify","dtd_id":0}
//! {"op":"classify","dtd_id":0,"query":"a[c][b]"}
//! {"op":"stats"}
//! ```
//!
//! `classify` with a `"query"` additionally reports the query's canonical form, its
//! canonical/structural hashes and the size of its compiled decision program against
//! that DTD (or `"compiled":false` when its class is decided by the AST solver).
//!
//! Every response carries `"ok":true` plus operation-specific fields, or `"ok":false`
//! with a structured `"error"` object:
//!
//! ```text
//! {"ok":false,"error":{"kind":"query_parse","message":"XPath parse error at byte 3: …",
//!                      "span":{"offset":3,"len":1},"retryable":false}}
//! ```
//!
//! `kind` is a stable machine-readable tag (see the README's error taxonomy), `span`
//! locates the offending bytes of the submitted text when the error is a parse error,
//! and `retryable` says whether resending the identical request can succeed.  A
//! malformed line never kills the loop.

use crate::json::Json;
use crate::workspace::{engine_slug, DtdId, ServedDecision, ServiceError, Workspace};
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};
use xpsat_core::{Exhausted, Satisfiability};

/// Default cap on the length of one request line (bytes, newline excluded).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// A stateful protocol server over one workspace.
///
/// Request handling takes `&self`, and so does every [`Workspace`] operation: the
/// workspace's DTD registry and query table each sit behind their own short lock.
/// One tenant's requests — decides and DTD registrations included — run
/// concurrently: a registration never waits for a decide, nor a decide for a
/// registration.
#[derive(Debug)]
pub struct ProtocolServer {
    workspace: Workspace,
    default_threads: usize,
    default_deadline_ms: Option<u64>,
    default_max_steps: Option<u64>,
    max_line_bytes: usize,
    debug_ops: bool,
}

impl Default for ProtocolServer {
    fn default() -> ProtocolServer {
        ProtocolServer::new(0)
    }
}

impl ProtocolServer {
    /// A server over a fresh workspace; `default_threads` is used by `batch` requests
    /// that do not specify their own `threads` (0 means "number of CPUs").
    pub fn new(default_threads: usize) -> ProtocolServer {
        ProtocolServer::with_workspace(Workspace::default(), default_threads)
    }

    /// A server over an existing workspace (e.g. one attached to a persistent
    /// artifact store or carrying a residency bound).
    pub fn with_workspace(workspace: Workspace, default_threads: usize) -> ProtocolServer {
        ProtocolServer {
            workspace,
            default_threads,
            default_deadline_ms: None,
            default_max_steps: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            debug_ops: false,
        }
    }

    /// Enable the fault-injection ops (`debug_panic`), used by the resilience tests
    /// to prove the hosting server survives a panicking request.  Off by default.
    pub fn set_debug_ops(&mut self, enabled: bool) {
        self.debug_ops = enabled;
    }

    /// Deadline applied to `check`/`batch` requests that carry no `deadline_ms` of
    /// their own (`None` = no default deadline).
    pub fn set_default_deadline_ms(&mut self, ms: Option<u64>) {
        self.default_deadline_ms = ms;
    }

    /// Per-decision solver step budget applied to `check`/`batch` requests that carry
    /// no `max_steps` of their own (`None` = unlimited).  A decision that spends its
    /// budget is answered as `resource_exhausted` instead of spinning.
    pub fn set_default_max_steps(&mut self, steps: Option<u64>) {
        self.default_max_steps = steps;
    }

    /// Cap on the length of one request line; longer lines are rejected with an
    /// error response and skipped without being buffered in full.
    pub fn set_max_line_bytes(&mut self, bytes: usize) {
        self.max_line_bytes = bytes.max(1);
    }

    /// The current request-line length cap.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// The workspace behind the server.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// Handle one request line, producing one response line (without the newline).
    pub fn handle_line(&self, line: &str) -> String {
        self.respond(line).to_string()
    }

    fn respond(&self, line: &str) -> Json {
        match Json::parse(line) {
            Err(e) => ProtocolError::new("malformed_request", format!("malformed request: {e}"))
                .into_response(),
            Ok(request) => self.handle_request(&request),
        }
    }

    /// Handle one already-parsed request, producing the response object.  This is the
    /// seam the network server drives: it owns framing (line reading, size caps) and
    /// hands parsed requests here.
    pub fn handle_request(&self, request: &Json) -> Json {
        match self.dispatch(request) {
            Ok(response) => response,
            Err(e) => e.into_response(),
        }
    }

    /// Answer a request that needs no compute: a `check` or `batch` whose every
    /// query was asked before and whose every class is already decided against its
    /// DTD, or a `stats`, which only reads counters.  The response and the counters
    /// are exactly those of [`ProtocolServer::handle_request`].  This is the seam a
    /// caller uses to answer such requests on its own thread.
    ///
    /// `None` for anything else — another op, a malformed field, a first-seen
    /// spelling, an unknown DTD or an undecided class: only what the request itself
    /// carries declines it, never another request in flight.  A declined request has
    /// counted and inserted nothing, so the caller hands it to
    /// [`ProtocolServer::handle_request`] unchanged.  Nothing reached from here can
    /// intern, compile, run the VM or an engine, or register a DTD.
    pub fn handle_decided(&self, request: &Json) -> Option<Json> {
        validate_deadline_ms(request).ok()?;
        let answer = match request.get("op").and_then(Json::as_str)? {
            "check" => self.op_check(request, Reach::Decided),
            "batch" => self.op_batch(request, Reach::Decided),
            "stats" => return Some(stats_response(&self.workspace)),
            _ => return None,
        };
        answer.ok().flatten()
    }

    /// Serve requests from `input` until EOF, writing responses to `output`.
    ///
    /// Lines are read as raw bytes and borrowed as text when they are valid UTF-8; an
    /// invalid line is converted lossily, so a stray non-UTF-8 byte produces a
    /// per-line error response (the replacement character breaks the JSON parse)
    /// instead of killing the loop; only genuine I/O failures abort.  Lines
    /// longer than [`ProtocolServer::max_line_bytes`] are rejected with an error
    /// response without ever being buffered in full.
    pub fn serve(&self, mut input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let mut reader = LineReader::new(self.max_line_bytes);
        let mut encoded = String::new();
        loop {
            let response = match reader.read_from(&mut input)? {
                LineRead::Eof => return Ok(()),
                LineRead::Oversized => oversized_response(self.max_line_bytes),
                LineRead::Line => {
                    let line = String::from_utf8_lossy(reader.line());
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.respond(line.trim_end_matches(['\n', '\r']))
                }
            };
            write_response_line(&mut output, &response, &mut encoded)?;
            output.flush()?;
        }
    }

    fn dispatch(&self, request: &Json) -> Result<Json, ProtocolError> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtocolError::new("malformed_request", "missing string field 'op'"))?;
        validate_deadline_ms(request)?;
        match op {
            "register_dtd" => self.op_register_dtd(request),
            "check" => self.op_check(request, Reach::Compute).map(computed),
            "batch" => self.op_batch(request, Reach::Compute).map(computed),
            "classify" => self.op_classify(request),
            "stats" => Ok(stats_response(&self.workspace)),
            "debug_panic" if self.debug_ops => {
                panic!("debug_panic requested by the client")
            }
            "debug_stall" if self.debug_ops => Ok(Self::op_debug_stall(request)),
            other => Err(ProtocolError::new(
                "unknown_op",
                format!("unknown op '{other}'"),
            )),
        }
    }

    /// Fault-injection op (gated by `debug_ops`, like `debug_panic`): hold the
    /// serving thread for `stall_ms` — the drill the server's worker watchdog is
    /// tested against.  Capped at 60 s so a typo cannot wedge a thread for hours.
    fn op_debug_stall(request: &Json) -> Json {
        let ms = request
            .get("stall_ms")
            .and_then(Json::as_u64)
            .unwrap_or(1_000)
            .min(60_000);
        std::thread::sleep(Duration::from_millis(ms));
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("debug_stall".into())),
            ("stalled_ms", Json::Num(ms as f64)),
        ])
    }

    fn op_register_dtd(&self, request: &Json) -> Result<Json, ProtocolError> {
        let text = str_field(request, "dtd")?;
        let outcome = self.workspace.register_dtd_report(text)?;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("register_dtd".into())),
            ("dtd_id", Json::Num(outcome.id.index() as f64)),
            ("reused", Json::Bool(outcome.reused)),
            // `cached` = this registration built nothing: the artifacts came from
            // another tenant's build of the text in this process, or from the
            // persistent store.  Always false for a reuse (`reused: true`).
            ("cached", Json::Bool(outcome.cached)),
        ]))
    }

    /// The deadline of a request: its own `deadline_ms` if present, else the server
    /// default.  [`validate_deadline_ms`] ran at dispatch, so a present field is a
    /// positive integer here.
    fn deadline_of(&self, request: &Json) -> Option<Instant> {
        request
            .get("deadline_ms")
            .and_then(Json::as_u64)
            .or(self.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// The per-decision step budget of a request: its own `max_steps` if present, else
    /// the server default.
    fn max_steps_of(&self, request: &Json) -> Option<u64> {
        request
            .get("max_steps")
            .and_then(Json::as_u64)
            .or(self.default_max_steps)
    }

    fn op_check(&self, request: &Json, reach: Reach) -> Result<Option<Json>, ProtocolError> {
        let dtd = dtd_id_field(request)?;
        let text = str_field(request, "query")?;
        let with_witness = request
            .get("witness")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let Some(mut decided) = self.decide_texts(request, reach, dtd, [Ok(text)], 1)? else {
            return Ok(None);
        };
        let (canonical, served) = decided.pop().expect("one decision per query");
        // A spent step budget is a request-level failure for `check` (a deadline hit
        // already surfaced as ServiceError::DeadlineExceeded above).
        if let Some(cause) = served.decision.exhausted {
            return Err(ProtocolError::resource_exhausted(
                cause,
                served.decision.engine,
            ));
        }
        let mut response = vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("check".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("query", Json::Str(canonical)),
        ];
        response.extend(decision_fields(&served, with_witness));
        Ok(Some(Json::obj(response)))
    }

    fn op_batch(&self, request: &Json, reach: Reach) -> Result<Option<Json>, ProtocolError> {
        let dtd = dtd_id_field(request)?;
        let items = request
            .get("queries")
            .and_then(Json::as_array)
            .ok_or_else(|| {
                ProtocolError::new("malformed_request", "missing array field 'queries'")
            })?;
        let with_witness = request
            .get("witness")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let threads = match request.get("threads").and_then(Json::as_u64) {
            Some(n) if n > 0 => n as usize,
            _ => self.effective_threads(),
        };
        let texts = items.iter().enumerate().map(|(i, item)| {
            item.as_str().ok_or_else(|| {
                ProtocolError::new("malformed_request", format!("queries[{i}] is not a string"))
            })
        });
        let Some(decided) = self.decide_texts(request, reach, dtd, texts, threads)? else {
            return Ok(None);
        };
        let results = decided
            .into_iter()
            .map(|(canonical, one)| {
                let mut fields = vec![("query", Json::Str(canonical))];
                fields.extend(decision_fields(&one, with_witness));
                Json::obj(fields)
            })
            .collect();
        Ok(Some(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("batch".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("threads", Json::Num(threads as f64)),
            ("results", Json::Arr(results)),
        ])))
    }

    /// The decisions of a `check`'s or `batch`'s queries, in order, each with the
    /// query's canonical spelling.  `texts` yields each query's text, or the error
    /// its field raises, interned one by one as the request lists them.
    ///
    /// [`Reach::Decided`] never interns, compiles or decides
    /// ([`Workspace::serve_decided`]): it answers `Ok(None)` unless every query was
    /// asked before and its class is decided.  Its errors come from the request's own
    /// fields, before anything is counted.
    fn decide_texts<'a>(
        &self,
        request: &Json,
        reach: Reach,
        dtd: DtdId,
        texts: impl IntoIterator<Item = Result<&'a str, ProtocolError>>,
        threads: usize,
    ) -> Result<Option<Vec<(String, ServedDecision)>>, ProtocolError> {
        let ws = &self.workspace;
        if reach == Reach::Decided {
            let texts = texts.into_iter().collect::<Result<Vec<_>, _>>()?;
            return Ok(ws.serve_decided(dtd, &texts));
        }
        let deadline = self.deadline_of(request);
        let max_steps = self.max_steps_of(request);
        let mut ids = Vec::new();
        for text in texts {
            ids.push(ws.intern(text?)?);
        }
        let served = ws.decide_batch(dtd, &ids, threads, deadline, max_steps)?;
        let mut decided = Vec::with_capacity(ids.len());
        for (id, one) in ids.into_iter().zip(served) {
            decided.push((ws.query(id)?.canonical, one));
        }
        Ok(Some(decided))
    }

    /// A DTD-property flag as JSON: `Null` when the DTD never compiled (vacuous).
    fn props_field(
        artifacts: &xpsat_dtd::DtdArtifacts,
        pick: impl Fn(&xpsat_dtd::DtdProperties) -> bool,
    ) -> Json {
        artifacts
            .properties()
            .map(|p| Json::Bool(pick(p)))
            .unwrap_or(Json::Null)
    }

    fn op_classify(&self, request: &Json) -> Result<Json, ProtocolError> {
        let dtd = dtd_id_field(request)?;
        // With an optional "query", classify also reports the query's canonical
        // form, its structural hashes and the compiled-program shape against this
        // DTD — the introspection hook for the cross-tenant canonical cache.
        let ws = &self.workspace;
        let query_fields = match request.get("query").and_then(Json::as_str) {
            None => None,
            Some(text) => {
                let id = ws.intern(text)?;
                let program = ws.compiled_program(dtd, id)?;
                let interned = ws.query(id)?;
                let class = &interned.class;
                let route =
                    xpsat_core::Solver::predict_route(&ws.artifacts(dtd)?.compiled, &class.path);
                Some(vec![
                    ("query", Json::Str(interned.canonical)),
                    ("canonical_query", Json::Str(class.text.clone())),
                    (
                        "canonical_hash",
                        Json::Str(format!("{:016x}", class.canonical_hash)),
                    ),
                    (
                        "structural_hash",
                        Json::Str(format!("{:016x}", class.structural_hash)),
                    ),
                    ("compiled", Json::Bool(program.is_some())),
                    (
                        "program_ops",
                        program
                            .map(|p| Json::Num(p.size() as f64))
                            .unwrap_or(Json::Null),
                    ),
                    // Features × DTD-properties routing: may the compiled VM
                    // cover this query here, and which AST engine backs it up?
                    ("vm_eligible", Json::Bool(route.vm_eligible)),
                    (
                        "predicted_engine",
                        Json::Str(engine_slug(route.ast_engine).to_string()),
                    ),
                ])
            }
        };
        let artifacts = ws.artifacts(dtd)?;
        let compiled = &artifacts.compiled;
        let class = compiled.class();
        let mut response = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::Str("classify".into())),
            ("dtd_id", Json::Num(dtd.index() as f64)),
            ("root", Json::Str(compiled.dtd().root().to_string())),
            (
                "elements",
                Json::Num(compiled.dtd().element_names().len() as f64),
            ),
            ("size", Json::Num(compiled.dtd().size() as f64)),
            ("recursive", Json::Bool(class.recursive)),
            ("disjunction_free", Json::Bool(class.disjunction_free)),
            ("has_star", Json::Bool(class.has_star)),
            ("normalized", Json::Bool(class.normalized)),
            // The 1308.0769 property bundle the compiled-VM fragment widens on.
            (
                "duplicate_free",
                Self::props_field(compiled, |p| p.duplicate_free),
            ),
            (
                "disjunction_capsuled",
                Self::props_field(compiled, |p| p.disjunction_capsuled),
            ),
            ("covering", Self::props_field(compiled, |p| p.covering)),
            (
                "depth_bound",
                class
                    .depth_bound
                    .map(|d| Json::Num(d as f64))
                    .unwrap_or(Json::Null),
            ),
            (
                "normalization_new_types",
                Json::Num(artifacts.normalization.new_types.len() as f64),
            ),
            ("automata", Json::Num(compiled.automata_count() as f64)),
        ]);
        if let (Json::Obj(fields), Some(extra)) = (&mut response, query_fields) {
            for (key, value) in extra {
                fields.push((key.to_string(), value));
            }
        }
        Ok(response)
    }

    fn effective_threads(&self) -> usize {
        crate::workspace::effective_threads(self.default_threads)
    }
}

/// The `stats` response: the workspace's counters, the compiled-VM coverage and the
/// negation memo.
fn stats_response(ws: &Workspace) -> Json {
    let stats = ws.stats();
    let (memo_hits, memo_built) = ws.negation_memo_stats();
    let bailouts = Json::Obj(
        xpsat_plan::BailReason::ALL
            .iter()
            .zip(stats.compile_bailouts)
            .map(|(reason, count)| (reason.as_str().to_string(), Json::Num(count as f64)))
            .collect(),
    );
    let mut fields = vec![("ok", Json::Bool(true)), ("op", Json::Str("stats".into()))];
    for (name, count) in stats.counters() {
        fields.push((name, Json::Num(count as f64)));
        // The VM's coverage ratio follows the counters it is derived from.
        if name == "vm_witness_fallbacks" {
            fields.push(("vm_coverage", Json::Num(stats.vm_coverage())));
        }
    }
    fields.extend([
        ("compile_bailouts_by_reason", bailouts),
        ("negation_memo_hits", Json::Num(memo_hits as f64)),
        ("negation_memo_built", Json::Num(memo_built as f64)),
    ]);
    Json::obj(fields)
}

/// How far a `check` or `batch` may go for its decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// Intern first-seen spellings and compute undecided classes.
    Compute,
    /// Serve interned spellings of decided classes only; decline anything else.
    Decided,
}

/// The answer of a [`Reach::Compute`] request, which never declines.
fn computed(answer: Option<Json>) -> Json {
    answer.expect("a computing check or batch always answers")
}

/// Render the shared decision fields of `check` and `batch` results.
fn decision_fields(served: &ServedDecision, with_witness: bool) -> Vec<(&'static str, Json)> {
    let decision = &served.decision;
    let mut fields = vec![
        (
            "result",
            Json::Str(
                match decision.result {
                    Satisfiability::Satisfiable(_) => "satisfiable",
                    Satisfiability::Unsatisfiable => "unsatisfiable",
                    Satisfiability::Unknown => "unknown",
                }
                .to_string(),
            ),
        ),
        (
            "engine",
            Json::Str(engine_slug(decision.engine).to_string()),
        ),
        ("complete", Json::Bool(decision.complete)),
        ("cached", Json::Bool(served.cached)),
    ];
    // Budget-exhausted batch results keep their slot (result "unknown") but say why.
    if decision.exhausted.is_some() {
        fields.push(("resource_exhausted", Json::Bool(true)));
    }
    if with_witness {
        if let Satisfiability::Satisfiable(doc) = &decision.result {
            fields.push(("witness", Json::Str(xpsat_xmltree::serialize::to_xml(doc))));
        }
    }
    fields
}

/// Build the structured error object of an `"ok":false` response.
pub fn error_object(
    kind: &str,
    message: &str,
    span: Option<(usize, usize)>,
    retryable: bool,
) -> Json {
    let mut fields = vec![
        ("kind", Json::Str(kind.to_string())),
        ("message", Json::Str(message.to_string())),
    ];
    if let Some((offset, len)) = span {
        fields.push((
            "span",
            Json::obj(vec![
                ("offset", Json::Num(offset as f64)),
                ("len", Json::Num(len as f64)),
            ]),
        ));
    }
    fields.push(("retryable", Json::Bool(retryable)));
    Json::obj(fields)
}

/// Build a complete `"ok":false` response around [`error_object`].
pub fn error_response(
    kind: &str,
    message: &str,
    span: Option<(usize, usize)>,
    retryable: bool,
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", error_object(kind, message, span, retryable)),
    ])
}

/// The response for a request line exceeding the size cap.
pub fn oversized_response(max_line_bytes: usize) -> Json {
    error_response(
        "oversized",
        &format!("request line exceeds the {max_line_bytes}-byte limit"),
        None,
        false,
    )
}

/// Send `response` as one line: encode it plus its newline into `encoded` (cleared
/// first, so a connection reuses one buffer) and hand the bytes over with a single
/// `write_all`.
///
/// Both the stdio loop and the network server frame every response through here.
/// Writing a `Json` through `write!` instead issues one write per formatting
/// fragment; on an unbuffered `TCP_NODELAY` socket each becomes its own syscall and
/// its own segment.
pub fn write_response_line(
    output: &mut impl Write,
    response: &Json,
    encoded: &mut String,
) -> std::io::Result<()> {
    encoded.clear();
    response.encode_into(encoded);
    encoded.push('\n');
    output.write_all(encoded.as_bytes())
}

/// Result of reading one length-capped line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// End of input before any byte of a new line.
    Eof,
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The line exceeded the cap; it was consumed (through its newline or EOF) but
    /// only the first `max_bytes` are buffered.
    Oversized,
}

/// A resumable, length-capped line reader, shared by the stdio loop and the TCP/Unix
/// server so both enforce identical framing and caps.
///
/// An overlong line is drained from the input (so the stream stays framed on line
/// boundaries) but reported as [`LineRead::Oversized`] instead of being returned —
/// the caller answers with [`oversized_response`] and carries on.  If the underlying
/// reader fails with a *transient* error (`WouldBlock`/`TimedOut` from a socket read
/// timeout), all partial progress is kept and the next [`LineReader::read_from`] call
/// resumes mid-line — the network server relies on this to poll its shutdown flag
/// without ever corrupting framing.
#[derive(Debug)]
pub struct LineReader {
    buffer: Vec<u8>,
    overflowed: bool,
    finished: bool,
    max_bytes: usize,
}

impl LineReader {
    /// A reader enforcing the given per-line byte cap (newline excluded).
    pub fn new(max_bytes: usize) -> LineReader {
        LineReader {
            buffer: Vec::new(),
            overflowed: false,
            finished: true,
            max_bytes: max_bytes.max(1),
        }
    }

    /// The last completely read line (valid after [`LineRead::Line`]).
    pub fn line(&self) -> &[u8] {
        &self.buffer
    }

    /// Is the reader holding a *partial* line (bytes arrived, no newline yet)?
    ///
    /// Distinguishes a slow-loris client stalled mid-request (worth a timeout) from
    /// an idle keep-alive connection between requests (legitimate).
    pub fn mid_line(&self) -> bool {
        !self.finished && (!self.buffer.is_empty() || self.overflowed)
    }

    /// Read (or, after a transient error, continue reading) one line.
    pub fn read_from(&mut self, input: &mut impl BufRead) -> std::io::Result<LineRead> {
        if self.finished {
            self.buffer.clear();
            self.overflowed = false;
            self.finished = false;
        }
        loop {
            let chunk = match input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: a trailing unterminated line still counts as a line.
                self.finished = true;
                return Ok(if self.overflowed {
                    LineRead::Oversized
                } else if self.buffer.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let upto = newline.map(|p| p + 1).unwrap_or(chunk.len());
            if !self.overflowed {
                let body = newline.unwrap_or(chunk.len());
                if self.buffer.len() + body > self.max_bytes {
                    self.overflowed = true;
                } else {
                    self.buffer.extend_from_slice(&chunk[..body]);
                }
            }
            input.consume(upto);
            if newline.is_some() {
                self.finished = true;
                return Ok(if self.overflowed {
                    LineRead::Oversized
                } else {
                    LineRead::Line
                });
            }
        }
    }
}

/// A request-level failure (bad field, unknown id, parse error, spent budget) carrying
/// the structured-error fields of the protocol's taxonomy.
#[derive(Debug, Clone)]
pub struct ProtocolError {
    kind: &'static str,
    message: String,
    span: Option<(usize, usize)>,
    retryable: bool,
}

impl ProtocolError {
    fn new(kind: &'static str, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            kind,
            message: message.into(),
            span: None,
            retryable: false,
        }
    }

    fn resource_exhausted(cause: Exhausted, engine: xpsat_core::EngineKind) -> ProtocolError {
        ProtocolError::new(
            "resource_exhausted",
            format!(
                "{cause} before the decision completed (engine: {})",
                engine_slug(engine)
            ),
        )
    }

    /// The machine-readable error tag.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Render as an `"ok":false` response object.
    pub fn into_response(self) -> Json {
        error_response(self.kind, &self.message, self.span, self.retryable)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ServiceError> for ProtocolError {
    fn from(e: ServiceError) -> ProtocolError {
        let message = e.to_string();
        let (kind, span, retryable) = match e {
            ServiceError::DtdParse { span, .. } => ("dtd_parse", Some(span), false),
            ServiceError::QueryParse { span, .. } => ("query_parse", Some(span), false),
            ServiceError::UnknownDtd(_) => ("unknown_dtd", None, false),
            ServiceError::UnknownQuery(_) => ("unknown_query", None, false),
            ServiceError::NoCurrentDtd => ("no_current_dtd", None, false),
            // Retrying a deadline-expired batch resumes from the published partial
            // progress, so it genuinely can succeed.
            ServiceError::DeadlineExceeded => ("deadline_exceeded", None, true),
        };
        ProtocolError {
            kind,
            message,
            span,
            retryable,
        }
    }
}

/// A present `deadline_ms` must be a positive integer.  `0` used to be accepted
/// and was indistinguishable from "no deadline" on the `check` fast path (which
/// skips the governed batch machinery when no deadline is set) while expiring
/// instantly on the governed path — now both transports refuse it identically
/// with a structured, non-retryable `invalid_request`.
fn validate_deadline_ms(request: &Json) -> Result<(), ProtocolError> {
    let Some(value) = request.get("deadline_ms") else {
        return Ok(());
    };
    match value.as_u64() {
        Some(ms) if ms > 0 => Ok(()),
        Some(_) => Err(ProtocolError::new(
            "invalid_request",
            "invalid field 'deadline_ms': must be a positive integer of milliseconds \
             (omit the field for no deadline)",
        )),
        None => Err(ProtocolError::new(
            "invalid_request",
            "invalid field 'deadline_ms': must be a positive integer of milliseconds",
        )),
    }
}

fn str_field<'a>(request: &'a Json, key: &str) -> Result<&'a str, ProtocolError> {
    request.get(key).and_then(Json::as_str).ok_or_else(|| {
        ProtocolError::new("malformed_request", format!("missing string field '{key}'"))
    })
}

fn dtd_id_field(request: &Json) -> Result<DtdId, ProtocolError> {
    request
        .get("dtd_id")
        .and_then(Json::as_u64)
        .map(|n| DtdId(n as usize))
        .ok_or_else(|| ProtocolError::new("malformed_request", "missing numeric field 'dtd_id'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn field<'a>(response: &'a Json, key: &str) -> &'a Json {
        response
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {response}"))
    }

    #[test]
    fn input_outside_rfc_8259_is_a_malformed_request() {
        let server = ProtocolServer::new(1);
        for (line, offset) in [
            (r#"{"op":"health","n":01}"#, 20),
            (r#"{"op":"health","n":1.}"#, 21),
            ("{\"op\":\"health\",\"s\":\"a\u{1}\"}", 21),
        ] {
            let response = Json::parse(&server.handle_line(line)).unwrap();
            let error = field(&response, "error");
            assert_eq!(field(error, "kind").as_str(), Some("malformed_request"));
            let message = field(error, "message").as_str().unwrap();
            assert!(message.contains(&format!("at byte {offset}:")), "{message}");
        }
    }

    #[test]
    fn register_check_batch_stats_round_trip() {
        let server = ProtocolServer::new(2);
        let reg = Json::parse(
            &server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a*; a -> b?; b -> #;"}"#),
        )
        .unwrap();
        assert_eq!(field(&reg, "ok").as_bool(), Some(true));
        assert_eq!(field(&reg, "dtd_id").as_u64(), Some(0));
        assert_eq!(field(&reg, "reused").as_bool(), Some(false));

        let check = Json::parse(
            &server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[b]","witness":true}"#),
        )
        .unwrap();
        assert_eq!(field(&check, "result").as_str(), Some("satisfiable"));
        assert!(field(&check, "witness")
            .as_str()
            .unwrap()
            .starts_with("<r>"));
        assert_eq!(field(&check, "cached").as_bool(), Some(false));

        let batch =
            Json::parse(&server.handle_line(
                r#"{"op":"batch","dtd_id":0,"queries":["a[b]","b/..","c"],"threads":2}"#,
            ))
            .unwrap();
        let results = field(&batch, "results").as_array().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(field(&results[0], "cached").as_bool(), Some(true));
        assert_eq!(field(&results[2], "result").as_str(), Some("unsatisfiable"));

        let stats = Json::parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(field(&stats, "classifications").as_u64(), Some(1));
        assert!(field(&stats, "decision_cache_hits").as_u64().unwrap() >= 1);
        // The compiled fast path is visible in the stats op.
        assert!(field(&stats, "vm_decides").as_u64().unwrap() >= 1);
        assert!(stats.get("vm_coverage").is_some());
        assert!(stats.get("compile_bailouts_by_reason").is_some());
        assert!(field(&stats, "program_store_hits").as_u64().is_some());
        // The full key list, in wire order.
        let Json::Obj(members) = &stats else {
            panic!("stats is an object: {stats}");
        };
        let keys: Vec<&str> = members.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys.join(" "),
            "ok op dtds_registered dtds_reused \
             classifications normalizations automata_built queries_interned queries_reused \
             decisions_computed decision_cache_hits artifact_store_hits artifact_store_misses \
             artifact_store_writes artifact_store_corrupt deadline_exceeded resource_exhausted \
             canonical_hits programs_compiled program_fallbacks vm_decides vm_witness_fallbacks \
             vm_coverage program_store_hits program_store_misses program_store_writes \
             program_store_corrupt compile_bailouts_by_reason negation_memo_hits \
             negation_memo_built"
        );
    }

    #[test]
    fn requests_are_served_while_the_workspace_is_read() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a*; a -> a*, b?; b -> #;"}"#);
        server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#);
        // A decide that runs for seconds in a debug build, with no deadline: past
        // 1000 steps an `a/a/…` chain leaves the compiled VM for the downward
        // engine, which is quadratic in the chain.
        let chain = vec!["a"; 1100].join("/");
        let long = format!(r#"{{"op":"check","dtd_id":0,"query":"{chain}"}}"#);
        let finished = AtomicBool::new(false);
        let (server, finished) = (&server, &finished);
        std::thread::scope(|scope| {
            let decide = std::thread::Builder::new()
                .stack_size(xpsat_core::DECIDE_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let answer = server.handle_line(&long);
                    finished.store(true, Ordering::SeqCst);
                    answer
                })
                .unwrap();
            // The long check is deciding once its query is interned.
            while server.workspace().stats().queries_interned < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let reg = server.handle_line(r#"{"op":"register_dtd","dtd":"r -> c*; c -> #;"}"#);
            assert!(reg.contains(r#""dtd_id":1"#), "{reg}");
            let decided = Json::parse(r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#).unwrap();
            let check = server
                .handle_decided(&decided)
                .expect("a decided check is answered without compute");
            assert_eq!(field(&check, "cached").as_bool(), Some(true));
            let stats = server
                .handle_decided(&Json::parse(r#"{"op":"stats"}"#).unwrap())
                .expect("stats is answered without compute");
            assert_eq!(field(&stats, "dtds_registered").as_u64(), Some(2));
            // Requests that intern, decide or compile do not wait either.
            for request in [
                r#"{"op":"check","dtd_id":0,"query":"a/b"}"#,
                r#"{"op":"batch","dtd_id":1,"queries":["c","a"],"threads":1}"#,
                r#"{"op":"classify","dtd_id":0,"query":"a[b][b]"}"#,
            ] {
                let response = server.handle_line(request);
                assert!(response.contains(r#""ok":true"#), "{response}");
            }
            assert!(
                !finished.load(Ordering::SeqCst),
                "the requests were answered only after the long decide finished"
            );
            let answer = decide.join().unwrap();
            assert!(answer.contains(r#""result":"satisfiable""#), "{answer}");
        });
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let server = ProtocolServer::new(1);
        for bad in [
            "not json",
            r#"{"op":"teleport"}"#,
            r#"{"op":"check","dtd_id":9,"query":"a"}"#,
            r#"{"op":"check","dtd_id":0}"#,
            r#"{"op":"register_dtd","dtd":"r -> ("}"#,
        ] {
            let response = Json::parse(&server.handle_line(bad)).unwrap();
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(false),
                "{bad}"
            );
            assert!(response.get("error").is_some(), "{bad}");
        }
        // The server still works afterwards.
        let reg = server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a?; a -> #;"}"#);
        assert!(reg.contains(r#""ok":true"#));
    }

    #[test]
    fn parse_errors_are_structured_with_spans() {
        let server = ProtocolServer::new(1);
        let resp = Json::parse(&server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a/ |b"}"#))
            .unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        let error = field(&resp, "error");
        assert_eq!(field(error, "kind").as_str(), Some("query_parse"));
        assert!(field(error, "message")
            .as_str()
            .unwrap()
            .contains("at byte 3"));
        let span = field(error, "span");
        assert_eq!(field(span, "offset").as_u64(), Some(3));
        assert_eq!(field(span, "len").as_u64(), Some(1));
        assert_eq!(field(error, "retryable").as_bool(), Some(false));

        let resp =
            Json::parse(&server.handle_line(r#"{"op":"register_dtd","dtd":"r -> (a; a -> #;"}"#))
                .unwrap();
        let error = field(&resp, "error");
        assert_eq!(field(error, "kind").as_str(), Some("dtd_parse"));
        assert!(error.get("span").is_some());
    }

    #[test]
    fn budget_capped_requests_report_resource_exhausted() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a*; a -> b | c; b -> #; c -> #;"}"#);
        let resp = Json::parse(
            &server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[not(b)]","max_steps":1}"#),
        )
        .unwrap();
        assert_eq!(field(&resp, "ok").as_bool(), Some(false));
        let error = field(&resp, "error");
        assert_eq!(field(error, "kind").as_str(), Some("resource_exhausted"));
        assert_eq!(field(error, "retryable").as_bool(), Some(false));

        // Batch results keep their slot with an exhaustion marker, while the cached
        // "a/b" (warmed without a cap) is served untouched by the budget.
        server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a/b"}"#);
        let batch = Json::parse(&server.handle_line(
            r#"{"op":"batch","dtd_id":0,"queries":["a[not(b)]","a/b"],"max_steps":1,"threads":1}"#,
        ))
        .unwrap();
        assert_eq!(field(&batch, "ok").as_bool(), Some(true));
        let results = field(&batch, "results").as_array().unwrap();
        assert_eq!(field(&results[0], "result").as_str(), Some("unknown"));
        assert_eq!(
            field(&results[0], "resource_exhausted").as_bool(),
            Some(true)
        );
        assert!(results[1].get("resource_exhausted").is_none());

        // The exhausted Unknown was never cached: the unconstrained retry decides.
        let retry =
            Json::parse(&server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a[not(b)]"}"#))
                .unwrap();
        assert_eq!(field(&retry, "result").as_str(), Some("satisfiable"));
        assert_eq!(field(&retry, "cached").as_bool(), Some(false));
    }

    #[test]
    fn classify_reports_canonical_query_and_program() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a; a -> b, c; b -> #; c -> #;"}"#);
        let one = Json::parse(
            &server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"a[b and c]"}"#),
        )
        .unwrap();
        let two =
            Json::parse(&server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"a[c][b]"}"#))
                .unwrap();
        assert_eq!(field(&one, "ok").as_bool(), Some(true));
        assert_eq!(field(&one, "compiled").as_bool(), Some(true));
        assert!(field(&one, "program_ops").as_u64().unwrap() >= 1);
        // Structurally identical spellings agree on every canonical field.
        assert_eq!(
            field(&one, "canonical_query").as_str(),
            field(&two, "canonical_query").as_str()
        );
        assert_eq!(
            field(&one, "canonical_hash").as_str(),
            field(&two, "canonical_hash").as_str()
        );
        assert_eq!(
            field(&one, "structural_hash").as_str(),
            field(&two, "structural_hash").as_str()
        );
        // Local negation now compiles on duplicate-free DTDs; an upward axis stays
        // outside the compiled fragment: reported, not an error.
        let neg =
            Json::parse(&server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"a[not(b)]"}"#))
                .unwrap();
        assert_eq!(field(&neg, "compiled").as_bool(), Some(true));
        // The routing prediction and the 1308.0769 DTD-property bundle are reported.
        assert_eq!(field(&neg, "duplicate_free").as_bool(), Some(true));
        assert_eq!(field(&neg, "vm_eligible").as_bool(), Some(true));
        assert_eq!(
            field(&neg, "predicted_engine").as_str(),
            Some("negation-fixpoint")
        );
        let up = Json::parse(&server.handle_line(r#"{"op":"classify","dtd_id":0,"query":"b/.."}"#))
            .unwrap();
        assert_eq!(field(&up, "compiled").as_bool(), Some(false));
        assert!(matches!(field(&up, "program_ops"), Json::Null));
        assert_eq!(field(&up, "vm_eligible").as_bool(), Some(false));
        // The bail was counted under its reason.
        let stats = Json::parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let by_reason = field(&stats, "compile_bailouts_by_reason");
        assert_eq!(field(by_reason, "upward_axis").as_u64(), Some(1));
    }

    #[test]
    fn zero_or_malformed_deadline_is_invalid_request() {
        let server = ProtocolServer::new(1);
        server.handle_line(r#"{"op":"register_dtd","dtd":"r -> a?; a -> #;"}"#);
        for bad in [
            r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":0}"#,
            r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":-5}"#,
            r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":"soon"}"#,
            r#"{"op":"batch","dtd_id":0,"queries":["a"],"deadline_ms":0}"#,
            r#"{"op":"register_dtd","dtd":"r -> #;","deadline_ms":0}"#,
        ] {
            let resp = Json::parse(&server.handle_line(bad)).unwrap();
            assert_eq!(field(&resp, "ok").as_bool(), Some(false), "{bad}");
            let error = field(&resp, "error");
            assert_eq!(
                field(error, "kind").as_str(),
                Some("invalid_request"),
                "{bad}"
            );
            assert_eq!(field(error, "retryable").as_bool(), Some(false), "{bad}");
        }
        // A positive deadline still works.
        let ok = Json::parse(
            &server.handle_line(r#"{"op":"check","dtd_id":0,"query":"a","deadline_ms":5000}"#),
        )
        .unwrap();
        assert_eq!(field(&ok, "ok").as_bool(), Some(true));
    }

    #[test]
    fn serve_survives_non_utf8_lines() {
        let server = ProtocolServer::new(1);
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\xff\xfe garbage bytes\n");
        input.extend_from_slice(b"{\"op\":\"register_dtd\",\"dtd\":\"r -> a?; a -> #;\"}\n");
        let mut output = Vec::new();
        server.serve(&input[..], &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .unwrap()
            .trim()
            .lines()
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
        assert!(lines[1].contains(r#""dtd_id":0"#), "{}", lines[1]);
    }

    /// Counts `write` calls, so a test can pin how many syscalls a response would
    /// cost on an unbuffered socket.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_line_is_one_write() {
        let response = Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "witness",
                Json::Str("<r>\n\t<a x=\"1\">é\\😀</a>\u{1}</r>".into()),
            ),
            (
                "results",
                Json::Arr((0..50).map(|i| Json::Num(f64::from(i))).collect()),
            ),
        ]);
        let mut out = CountingWriter::default();
        let mut encoded = String::new();
        for round in 1..=3 {
            write_response_line(&mut out, &response, &mut encoded).unwrap();
            assert_eq!(out.writes, round);
        }
        let line = format!("{response}\n");
        assert_eq!(out.bytes, line.repeat(3).as_bytes());

        // The stdio loop frames through the same helper: one write per response,
        // oversized refusals included.
        let server = ProtocolServer::new(1);
        let input = format!(
            "{}\n{}\n{}\n",
            r#"{"op":"register_dtd","dtd":"r -> a?; a -> #;"}"#,
            r#"{"op":"check","dtd_id":0,"query":"a","witness":true}"#,
            "x".repeat(server.max_line_bytes() + 1),
        );
        let mut out = CountingWriter::default();
        server.serve(input.as_bytes(), &mut out).unwrap();
        assert_eq!(out.writes, 3);
        assert_eq!(out.bytes.iter().filter(|&&b| b == b'\n').count(), 3);
    }

    #[test]
    fn serve_loop_reads_and_writes_lines() {
        let server = ProtocolServer::new(1);
        let input = "\n{\"op\":\"register_dtd\",\"dtd\":\"r -> a?; a -> #;\"}\n{\"op\":\"check\",\"dtd_id\":0,\"query\":\"a\"}\n";
        let mut output = Vec::new();
        server.serve(input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output)
            .unwrap()
            .trim()
            .lines()
            .collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""dtd_id":0"#));
        assert!(lines[1].contains(r#""result":"satisfiable""#));
    }
}
