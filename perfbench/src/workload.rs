//! The three workloads: their DTDs, tenants, query-class pools and seeded request
//! streams.
//!
//! Query classes come from the committed expected-verdict files
//! (`perfbench/expected/<workload>.tsv`, written by `regen`); `--seed` picks the
//! request stream over them: which tenant asks, which class, in which spelling, in a
//! `check` or a `batch`, and when.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path as FsPath;
use xpsat_dtd::Dtd;
use xpsat_plan::CanonicalQuery;
use xpsat_service::Json;
use xpsat_xpath::{parse_path, Path, Qualifier};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hit path: synthetic DTDs, many tenants, re-spelled repeats of a small pool.
    TenantRepeat,
    /// Miss path: realistic DTDs, one tenant, mostly first-seen classes.
    RealisticFresh,
    /// Witness path: realistic DTDs, a small SAT pool, every check wants a witness.
    WitnessRepeat,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tenant_repeat" => Some(Kind::TenantRepeat),
            "realistic_fresh" => Some(Kind::RealisticFresh),
            "witness_repeat" => Some(Kind::WitnessRepeat),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::TenantRepeat => "tenant_repeat",
            Kind::RealisticFresh => "realistic_fresh",
            Kind::WitnessRepeat => "witness_repeat",
        }
    }

    /// Open-loop arrival rate (requests per second, both connections together).
    /// Each sits well below the closed-loop capacity of its workload on a 2-CPU
    /// host, so the open phase measures latency without a growing backlog.
    pub fn rate(self) -> f64 {
        match self {
            Kind::TenantRepeat => 500.0,
            Kind::RealisticFresh => 90.0,
            Kind::WitnessRepeat => 400.0,
        }
    }

    pub fn tenants(self) -> Vec<String> {
        match self {
            Kind::TenantRepeat => (0..8).map(|t| format!("tr{t}")).collect(),
            Kind::RealisticFresh => vec!["rf".to_string()],
            Kind::WitnessRepeat => vec!["wr".to_string()],
        }
    }

    /// The workload's DTDs, in registration (and `dtd_id`) order.
    pub fn dtds(self) -> Vec<Dtd> {
        match self {
            Kind::TenantRepeat => (0..3)
                .map(|i| xpsat_core::corpus::layered_dtd(3 + i, 2 + (i % 2)))
                .collect(),
            Kind::RealisticFresh | Kind::WitnessRepeat => {
                vec![
                    xpsat_core::corpus::xhtml_dtd(),
                    xpsat_core::corpus::docbook_dtd(),
                ]
            }
        }
    }
}

/// A confirmed verdict of one query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Sat,
    Unsat,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
        }
    }

    /// The verdict as the protocol spells it in `result`.
    pub fn protocol(self) -> &'static str {
        match self {
            Verdict::Sat => "satisfiable",
            Verdict::Unsat => "unsatisfiable",
        }
    }
}

/// One query class of a pool, with its independently confirmed verdict.
#[derive(Debug, Clone)]
pub struct Class {
    /// Index into [`Kind::dtds`].
    pub dtd: usize,
    pub verdict: Verdict,
    /// Whether the class compiles to a decision program (`vm`) or bails to the AST
    /// solver (`ast`) under the default compile limits.
    pub route: &'static str,
    pub text: String,
}

pub fn expected_path(bench_dir: &FsPath, kind: Kind) -> std::path::PathBuf {
    bench_dir
        .join("expected")
        .join(format!("{}.tsv", kind.name()))
}

/// Read a pool from its expected-verdict file (`dtd \t verdict \t route \t query`,
/// `#` comments).
pub fn load_pool(path: &FsPath) -> Result<Vec<Class>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut pool = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.splitn(4, '\t').collect();
        let bad = || format!("{}:{}: malformed entry", path.display(), n + 1);
        if fields.len() != 4 {
            return Err(bad());
        }
        pool.push(Class {
            dtd: fields[0].parse().map_err(|_| bad())?,
            verdict: match fields[1] {
                "sat" => Verdict::Sat,
                "unsat" => Verdict::Unsat,
                _ => return Err(bad()),
            },
            route: match fields[2] {
                "vm" => "vm",
                "ast" => "ast",
                _ => return Err(bad()),
            },
            text: fields[3].to_string(),
        });
    }
    if pool.is_empty() {
        return Err(format!("{}: empty pool", path.display()));
    }
    Ok(pool)
}

/// One request of a stream: who sends it, which classes it carries, and its line.
#[derive(Debug, Clone)]
pub struct Req {
    pub tenant: usize,
    pub dtd: usize,
    /// Pool indices of the queries carried (one for `check`).
    pub classes: Vec<usize>,
    /// The spellings actually sent, parallel to `classes`.
    pub texts: Vec<String>,
    pub batch: bool,
    pub witness: bool,
}

impl Req {
    /// The protocol line of this request, optionally with `witness` overridden.
    pub fn line_with(&self, tenants: &[String], witness: bool) -> String {
        let mut fields = vec![(
            "op",
            Json::Str(if self.batch { "batch" } else { "check" }.into()),
        )];
        fields.push(("dtd_id", Json::Num(self.dtd as f64)));
        if self.batch {
            fields.push((
                "queries",
                Json::Arr(self.texts.iter().map(|t| Json::Str(t.clone())).collect()),
            ));
        } else {
            fields.push(("query", Json::Str(self.texts[0].clone())));
        }
        if witness {
            fields.push(("witness", Json::Bool(true)));
        }
        fields.push(("tenant", Json::Str(tenants[self.tenant].clone())));
        Json::obj(fields).to_string()
    }

    pub fn line(&self, tenants: &[String]) -> String {
        self.line_with(tenants, self.witness)
    }
}

/// A seeded, endless request generator over a pool.
pub struct Stream {
    kind: Kind,
    rng: StdRng,
    /// Per class: the equivalent spellings a client may send (the class text first).
    spellings: Vec<Vec<String>>,
    by_dtd: Vec<Vec<usize>>,
    class_dtd: Vec<usize>,
    /// `realistic_fresh`: seeded order in which classes are first sent.
    fresh_order: Vec<usize>,
    fresh_next: usize,
    sent: Vec<usize>,
    tenants: usize,
}

/// Share of `realistic_fresh` requests that repeat an already-sent class.
const FRESH_REPEAT_SHARE: f64 = 0.1;

impl Stream {
    pub fn new(kind: Kind, pool: &[Class], dtd_count: usize, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_B3C4);
        let spellings = pool
            .iter()
            .map(|class| match kind {
                Kind::TenantRepeat => spellings_of(&class.text, &mut rng, 4),
                _ => vec![class.text.clone()],
            })
            .collect();
        let mut by_dtd = vec![Vec::new(); dtd_count];
        for (i, class) in pool.iter().enumerate() {
            by_dtd[class.dtd].push(i);
        }
        let fresh_order = fresh_order(pool, &mut rng);
        Stream {
            kind,
            rng,
            spellings,
            by_dtd,
            class_dtd: pool.iter().map(|class| class.dtd).collect(),
            fresh_order,
            fresh_next: 0,
            sent: Vec::new(),
            tenants: kind.tenants().len(),
        }
    }

    /// Pool classes whose first send is still ahead (realistic_fresh).  Once it
    /// reaches 0 every request repeats a class, so a run that gets there no longer
    /// measures the miss path and is invalid.
    pub fn fresh_left(&self) -> usize {
        self.fresh_order.len() - self.fresh_next
    }

    fn spelling(&mut self, class: usize) -> String {
        let options = &self.spellings[class];
        options[self.rng.gen_range(0..options.len())].clone()
    }

    pub fn next(&mut self) -> Req {
        match self.kind {
            Kind::TenantRepeat => {
                let tenant = self.rng.gen_range(0..self.tenants);
                let dtd = self.rng.gen_range(0..self.by_dtd.len());
                let batch = self.rng.gen_bool(0.25);
                let size = if batch {
                    self.rng.gen_range(4..=12usize)
                } else {
                    1
                };
                let classes: Vec<usize> = (0..size)
                    .map(|_| {
                        let members = &self.by_dtd[dtd];
                        members[self.rng.gen_range(0..members.len())]
                    })
                    .collect();
                let texts = classes.iter().map(|&c| self.spelling(c)).collect();
                Req {
                    tenant,
                    dtd,
                    classes,
                    texts,
                    batch,
                    witness: false,
                }
            }
            Kind::RealisticFresh => {
                let repeat = !self.sent.is_empty()
                    && (self.fresh_left() == 0 || self.rng.gen_bool(FRESH_REPEAT_SHARE));
                let class = if repeat {
                    self.sent[self.rng.gen_range(0..self.sent.len())]
                } else {
                    let class = self.fresh_order[self.fresh_next];
                    self.fresh_next += 1;
                    self.sent.push(class);
                    class
                };
                self.single(class, false)
            }
            Kind::WitnessRepeat => {
                let class = self.rng.gen_range(0..self.spellings.len());
                self.single(class, true)
            }
        }
    }

    /// A one-query `check` of `class` from tenant 0.
    fn single(&mut self, class: usize, witness: bool) -> Req {
        Req {
            tenant: 0,
            dtd: self.class_dtd[class],
            classes: vec![class],
            texts: vec![self.spelling(class)],
            batch: false,
            witness,
        }
    }

    /// The untimed warm-up: what a user with warm caches has already sent.
    /// `tenant_repeat` warms one tenant (the others then hit the cross-tenant
    /// canonical cache), `witness_repeat` asks every witness once, and
    /// `realistic_fresh` warms nothing: its users meet cold classes.
    pub fn warmup(&self, pool: &[Class]) -> Vec<Req> {
        match self.kind {
            Kind::RealisticFresh => Vec::new(),
            Kind::TenantRepeat | Kind::WitnessRepeat => pool
                .iter()
                .enumerate()
                .map(|(i, class)| Req {
                    tenant: 0,
                    dtd: class.dtd,
                    classes: vec![i],
                    texts: vec![class.text.clone()],
                    batch: false,
                    witness: self.kind == Kind::WitnessRepeat,
                })
                .collect(),
        }
    }
}

/// Classes per block of the `realistic_fresh` send order.
const FRESH_BLOCK: usize = 64;

/// The order in which `realistic_fresh` first sends its classes: a fixed
/// stratified order of the pool, shuffled by the run's seed within consecutive
/// blocks of [`FRESH_BLOCK`].  Compile and AST costs are heavy-tailed (a tenth
/// of the classes carries most of the work), so a run whose seed also chose
/// *which* classes to send would measure its draw of the tail; with fixed blocks
/// every run meets the same classes at about the same time, and the seed moves
/// their order, the repeats and the arrival times.
fn fresh_order(pool: &[Class], rng: &mut StdRng) -> Vec<usize> {
    let mut order = stratified_order(pool, &mut StdRng::seed_from_u64(FRESH_BLOCK as u64));
    for block in order.chunks_mut(FRESH_BLOCK) {
        shuffle(block, rng);
    }
    order
}

/// An order of `pool` in which every prefix keeps the pool's proportions of
/// (DTD, verdict, route) strata.
fn stratified_order(pool: &[Class], rng: &mut StdRng) -> Vec<usize> {
    let mut strata: BTreeMap<(usize, Verdict, &str), Vec<usize>> = BTreeMap::new();
    for (i, class) in pool.iter().enumerate() {
        strata
            .entry((class.dtd, class.verdict, class.route))
            .or_default()
            .push(i);
    }
    let mut queues: Vec<(Vec<usize>, usize)> = strata
        .into_values()
        .map(|mut members| {
            shuffle(&mut members, rng);
            (members, 0)
        })
        .collect();
    let mut order = Vec::with_capacity(pool.len());
    while order.len() < pool.len() {
        // Take from the stratum furthest behind its share.
        let behind = queues
            .iter()
            .enumerate()
            .filter(|(_, (members, taken))| *taken < members.len())
            .min_by(|(_, (a, ta)), (_, (b, tb))| {
                let share = |taken: usize, size: usize| (taken as f64 + 1.0) / size as f64;
                share(*ta, a.len()).total_cmp(&share(*tb, b.len()))
            })
            .map(|(q, _)| q)
            .expect("some stratum has classes left");
        let (members, taken) = &mut queues[behind];
        order.push(members[*taken]);
        *taken += 1;
    }
    order
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Up to `max` distinct spellings of `text` that parse to the same canonical class
/// (the original first).  Rewrites: union branches swapped, compositions
/// re-associated, qualifier conjunctions reordered or split into stacked filters.
pub fn spellings_of(text: &str, rng: &mut StdRng, max: usize) -> Vec<String> {
    let mut out = vec![text.to_string()];
    let Ok(path) = parse_path(text) else {
        return out;
    };
    let class = CanonicalQuery::of(&path).text;
    for _ in 0..max * 6 {
        if out.len() >= max {
            break;
        }
        let candidate = respell(&path, rng).to_string();
        if out.contains(&candidate) {
            continue;
        }
        // Keep only spellings the server will parse into the very same class.
        if parse_path(&candidate).is_ok_and(|p| CanonicalQuery::of(&p).text == class) {
            out.push(candidate);
        }
    }
    out
}

fn respell(path: &Path, rng: &mut StdRng) -> Path {
    match path {
        Path::Seq(a, b) => {
            if let Path::Seq(x, y) = a.as_ref() {
                if rng.gen_bool(0.5) {
                    return Path::Seq(
                        Box::new(respell(x, rng)),
                        Box::new(Path::Seq(
                            Box::new(respell(y, rng)),
                            Box::new(respell(b, rng)),
                        )),
                    );
                }
            }
            Path::Seq(Box::new(respell(a, rng)), Box::new(respell(b, rng)))
        }
        Path::Union(a, b) => {
            let (a, b) = (respell(a, rng), respell(b, rng));
            if rng.gen_bool(0.5) {
                Path::Union(Box::new(b), Box::new(a))
            } else {
                Path::Union(Box::new(a), Box::new(b))
            }
        }
        Path::Filter(p, q) => {
            let p = respell(p, rng);
            match q.as_ref() {
                Qualifier::And(x, y) if rng.gen_bool(0.5) => {
                    // p[x and y] == p[y][x]
                    Path::Filter(
                        Box::new(Path::Filter(Box::new(p), Box::new(respell_q(y, rng)))),
                        Box::new(respell_q(x, rng)),
                    )
                }
                _ => Path::Filter(Box::new(p), Box::new(respell_q(q, rng))),
            }
        }
        other => other.clone(),
    }
}

fn respell_q(q: &Qualifier, rng: &mut StdRng) -> Qualifier {
    match q {
        Qualifier::Path(p) => Qualifier::Path(respell(p, rng)),
        Qualifier::And(x, y) | Qualifier::Or(x, y) => {
            let (x, y) = (respell_q(x, rng), respell_q(y, rng));
            let (x, y) = if rng.gen_bool(0.5) { (y, x) } else { (x, y) };
            match q {
                Qualifier::And(..) => Qualifier::And(Box::new(x), Box::new(y)),
                _ => Qualifier::Or(Box::new(x), Box::new(y)),
            }
        }
        Qualifier::Not(inner) => Qualifier::Not(Box::new(respell_q(inner, rng))),
        other => other.clone(),
    }
}
