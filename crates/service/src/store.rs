//! The persistent store: the DTD texts a service has registered, and the decision
//! programs compiled against them, in a versioned on-disk cache shared by restarts
//! and sibling servers.
//!
//! # Layout and keying
//!
//! One `.art` file per DTD under `<root>/v<STORE_VERSION>/<key>.art`, where `<key>`
//! is the FNV-1a-64 hash of the DTD's *canonical* text (the same dedup key the
//! in-memory [`Workspace`](crate::Workspace) registry uses) rendered as 16 hex
//! digits.  Programs sit next to them as `<fingerprint>-<query hash>.prg`.
//!
//! # Versioning and invalidation
//!
//! The format version is part of the directory name *and* the `.prg` header.  Any
//! change to the shape of an entry (or to the pipeline a program snapshots) bumps
//! [`STORE_VERSION`], which silently orphans the old directory — old and new binaries
//! can share a cache root without reading each other's entries.  There is no in-place
//! migration: entries are pure caches, rebuilt from the DTD text on a miss.
//! v3 made an `.art` entry the canonical text alone.
//!
//! # What is stored
//!
//! An `.art` entry holds exactly the DTD's canonical text, byte for byte.  Everything
//! the service precomputes for a DTD — classification, `N(D)`, the content-model
//! automata — is a function of that text, and building it costs less than reading
//! back a serialised copy did, so a hit rebuilds through [`DtdArtifacts::build`], the
//! constructor registration uses.  A load compares the entry with the text the caller
//! already holds: a truncated, flipped, torn or foreign entry fails that comparison,
//! so a stored byte never reaches an automaton.
//!
//! A `.prg` entry holds one compiled [`DecisionProgram`], length-prefixed
//! little-endian with an FNV-1a-64 trailer over the body, and is validated against
//! the live artifacts before the VM may run it.
//!
//! # Concurrency
//!
//! Writes go to a unique temp file in the version directory and are `rename`d into
//! place, so concurrent servers sharing one cache root either see a complete entry or
//! none.

use crate::workspace::DtdArtifacts;
use std::io::Write;
use std::path::{Path, PathBuf};
use xpsat_automata::BitSet;
use xpsat_dtd::{parse_dtd, Sym};
use xpsat_plan::{fnv64, DecisionProgram, MaskId, Op, Reg, TableId};

/// Format version; bump on any change to the shape of an entry.
/// v2 added the FNV-1a-64 integrity trailer; v3 stores an `.art` entry as the
/// canonical DTD text.
pub const STORE_VERSION: u32 = 3;

/// File magic of persisted decision programs (`.prg` entries).
const PROGRAM_MAGIC: &[u8; 8] = b"XPSATPRG";

/// FNV-1a-64 of the canonical DTD text: the on-disk key.
///
/// [`fnv64`] is also the `.prg` integrity checksum: structural validation alone
/// cannot catch a bit flip inside a mask or table (the damaged program still
/// decodes, then answers wrongly), so every program carries a checksum trailer over
/// its full body.
pub fn canonical_key(canonical: &str) -> u64 {
    fnv64(canonical.as_bytes())
}

/// Why a [`ArtifactStore::load`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMiss {
    /// No entry under this key.
    Absent,
    /// An entry existed but failed validation (truncated, corrupt, version or
    /// canonical-text mismatch).  Counted separately so operators can spot damage.
    Invalid,
}

/// A handle on one on-disk cache root.  Cheap to clone; all state is the path.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    version_dir: PathBuf,
}

impl ArtifactStore {
    /// Open (creating directories as needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let version_dir = root.into().join(format!("v{STORE_VERSION}"));
        std::fs::create_dir_all(&version_dir)?;
        Ok(ArtifactStore { version_dir })
    }

    /// The directory entries of the current version live in.
    pub fn version_dir(&self) -> &Path {
        &self.version_dir
    }

    fn entry_path(&self, canonical: &str) -> PathBuf {
        self.version_dir
            .join(format!("{:016x}.art", canonical_key(canonical)))
    }

    /// Is an entry present for this canonical text (without reading it)?
    pub fn contains(&self, canonical: &str) -> bool {
        self.entry_path(canonical).exists()
    }

    /// Record the canonical text of `artifacts` under its key.  Atomic: concurrent
    /// writers of the same DTD race benignly (same bytes), and readers never see
    /// half a file.
    pub fn save(&self, artifacts: &DtdArtifacts) -> std::io::Result<()> {
        let tmp_name = format!(".tmp-{:016x}-{}", artifacts.fingerprint, std::process::id());
        self.write_entry(
            &tmp_name,
            &self.entry_path(&artifacts.canonical),
            artifacts.canonical.as_bytes(),
        )
    }

    /// The artifacts of `canonical` when the store holds its entry, built by
    /// [`DtdArtifacts::build`]; otherwise why not.
    ///
    /// An entry that is not exactly `canonical` is deleted on sight: entries are
    /// pure caches, so leaving damage in place would fail every future load of this
    /// key while deleting it lets the next save repopulate the slot.
    pub fn load(&self, canonical: &str) -> Result<DtdArtifacts, StoreMiss> {
        let path = self.entry_path(canonical);
        let bytes = std::fs::read(&path).map_err(|_| StoreMiss::Absent)?;
        if bytes != canonical.as_bytes() {
            let _ = std::fs::remove_file(&path);
            return Err(StoreMiss::Invalid);
        }
        let dtd = parse_dtd(canonical).map_err(|_| StoreMiss::Invalid)?;
        Ok(DtdArtifacts::build(&dtd))
    }

    /// Durability barrier: fsync the version directory so every `rename`d entry is
    /// findable after a crash.  Entry *contents* are already synced before the
    /// rename; this pins the directory mutations themselves.  The server calls it
    /// once at drain so a graceful shutdown never strands a freshly written entry.
    pub fn flush(&self) -> std::io::Result<()> {
        std::fs::File::open(&self.version_dir)?.sync_all()
    }

    /// Write `bytes` to the temp file `tmp_name` in the version directory, fsync it
    /// and `rename` it to `final_path`.
    fn write_entry(&self, tmp_name: &str, final_path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let tmp_path = self.version_dir.join(tmp_name);
        {
            let mut file = std::fs::File::create(&tmp_path)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp_path, final_path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp_path);
        })
    }

    // ---- compiled decision programs ------------------------------------------------

    fn program_path(&self, fingerprint: u64, canonical_hash: u64) -> PathBuf {
        self.version_dir
            .join(format!("{fingerprint:016x}-{canonical_hash:016x}.prg"))
    }

    /// Persist a compiled decision program under `(DTD fingerprint, canonical query
    /// hash)`.  Same atomicity as [`ArtifactStore::save`]: temp file + rename, with
    /// an FNV-1a-64 integrity trailer over the body.
    pub fn save_program(
        &self,
        fingerprint: u64,
        canonical_hash: u64,
        canon_text: &str,
        program: &DecisionProgram,
    ) -> std::io::Result<()> {
        let tmp_name = format!(
            ".tmp-{fingerprint:016x}-{canonical_hash:016x}-{}.prg",
            std::process::id()
        );
        self.write_entry(
            &tmp_name,
            &self.program_path(fingerprint, canonical_hash),
            &encode_program(fingerprint, canonical_hash, canon_text, program),
        )
    }

    /// Rehydrate the compiled program of `(fingerprint, canonical_hash)`, validated
    /// against the *live* `artifacts` (same registers-precede-ops discipline, mask /
    /// table / symbol bounds, element count) and re-stamped with their uid so the VM
    /// accepts it.  `canon_text` is compared against the stored canonical query and
    /// reparsed into the program's witness path.
    ///
    /// Like [`ArtifactStore::load`], a corrupt entry is deleted on sight: programs
    /// are pure caches, recompiled from the canonical query on the next touch.
    pub fn load_program(
        &self,
        fingerprint: u64,
        canonical_hash: u64,
        canon_text: &str,
        artifacts: &xpsat_dtd::DtdArtifacts,
    ) -> Result<DecisionProgram, StoreMiss> {
        let path = self.program_path(fingerprint, canonical_hash);
        let bytes = std::fs::read(&path).map_err(|_| StoreMiss::Absent)?;
        match decode_program(&bytes, fingerprint, canonical_hash, canon_text, artifacts) {
            Some(program) => Ok(program),
            None => {
                let _ = std::fs::remove_file(&path);
                Err(StoreMiss::Invalid)
            }
        }
    }
}

// ---- decision-program encoding ---------------------------------------------------

fn encode_program(
    fingerprint: u64,
    canonical_hash: u64,
    canon_text: &str,
    program: &DecisionProgram,
) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(PROGRAM_MAGIC);
    w.u32(STORE_VERSION);
    w.u64(fingerprint);
    w.u64(canonical_hash);
    w.str(canon_text);
    w.u8(program.const_unsat as u8);
    w.u32(program.num_elements as u32);
    w.u32(program.out as u32);
    w.u32(program.masks.len() as u32);
    for mask in &program.masks {
        encode_bitset(&mut w, mask);
    }
    w.u32(program.tables.len() as u32);
    for table in &program.tables {
        w.u32(table.len() as u32);
        for row in table {
            encode_bitset(&mut w, row);
        }
    }
    w.u32(program.ops.len() as u32);
    for op in &program.ops {
        match *op {
            Op::Root { .. } => w.u8(0),
            Op::Empty { .. } => w.u8(1),
            Op::Child { src, sym, ok, .. } => {
                w.u8(2);
                w.u32(src as u32);
                w.u32(sym.index() as u32);
                w.u32(ok as u32);
            }
            Op::AnyChild { src, .. } => {
                w.u8(3);
                w.u32(src as u32);
            }
            Op::DescOrSelf { src, .. } => {
                w.u8(4);
                w.u32(src as u32);
            }
            Op::Intersect { src, mask, .. } => {
                w.u8(5);
                w.u32(src as u32);
                w.u32(mask as u32);
            }
            Op::Union { a, b, .. } => {
                w.u8(6);
                w.u32(a as u32);
                w.u32(b as u32);
            }
            Op::Table { src, table, .. } => {
                w.u8(7);
                w.u32(src as u32);
                w.u32(table as u32);
            }
        }
    }
    let mut bytes = w.finish();
    let checksum = fnv64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

fn encode_bitset(w: &mut Writer, set: &BitSet) {
    let members: Vec<usize> = set.iter().collect();
    w.u32(members.len() as u32);
    for m in members {
        w.u32(m as u32);
    }
}

/// Decode and fully validate a persisted program.  Every register, mask id, table id
/// and symbol index is bounds-checked against the decoded shape and the live
/// artifacts, so a damaged-but-checksum-colliding entry can refuse here but can never
/// hand the VM an out-of-range access.
fn decode_program(
    bytes: &[u8],
    expected_fingerprint: u64,
    expected_canonical_hash: u64,
    expected_canon_text: &str,
    artifacts: &xpsat_dtd::DtdArtifacts,
) -> Option<DecisionProgram> {
    let body_len = bytes.len().checked_sub(8)?;
    let (body, trailer) = bytes.split_at(body_len);
    if u64::from_le_bytes(trailer.try_into().ok()?) != fnv64(body) {
        return None;
    }
    let mut r = Reader::new(body);
    if r.bytes(PROGRAM_MAGIC.len())? != PROGRAM_MAGIC.as_slice() || r.u32()? != STORE_VERSION {
        return None;
    }
    if r.u64()? != expected_fingerprint || r.u64()? != expected_canonical_hash {
        return None;
    }
    let canon_text = r.str()?;
    // Key collision or foreign entry: refuse, the caller recompiles.  The hash of
    // the stored text must also really be the key it was filed under.
    if canon_text != expected_canon_text || fnv64(canon_text.as_bytes()) != expected_canonical_hash
    {
        return None;
    }
    let canon = xpsat_xpath::parse_path(&canon_text).ok()?;
    let const_unsat = r.bool()?;
    let num_elements = r.u32()? as usize;
    // The program must target the *current* shape of this DTD's artifacts (the
    // fingerprint already ties it to the canonical text, so this only refuses
    // genuinely damaged entries).
    if num_elements != artifacts.compiled().map_or(0, |c| c.num_elements()) {
        return None;
    }
    let out = r.u32()? as usize;
    let masks = (0..r.u32()?)
        .map(|_| decode_bitset(&mut r, num_elements))
        .collect::<Option<Vec<BitSet>>>()?;
    let tables = (0..r.u32()?)
        .map(|_| {
            let rows = r.u32()? as usize;
            if rows != num_elements {
                return None;
            }
            (0..rows)
                .map(|_| decode_bitset(&mut r, num_elements))
                .collect::<Option<Vec<BitSet>>>()
        })
        .collect::<Option<Vec<Vec<BitSet>>>>()?;
    let num_ops = r.u32()? as usize;
    if num_ops > usize::from(Reg::MAX) + 1 {
        return None;
    }
    let mut ops = Vec::with_capacity(num_ops);
    for i in 0..num_ops {
        let dst = i as Reg;
        // Single assignment: every source register must precede this op.
        let src_reg = |r: &mut Reader| -> Option<Reg> {
            let s = r.u32()? as usize;
            (s < i).then_some(s as Reg)
        };
        let op = match r.u8()? {
            0 => Op::Root { dst },
            1 => Op::Empty { dst },
            2 => {
                let src = src_reg(&mut r)?;
                let sym = r.u32()? as usize;
                if sym >= num_elements {
                    return None;
                }
                let ok = r.u32()? as usize;
                if ok >= masks.len() {
                    return None;
                }
                Op::Child {
                    src,
                    dst,
                    sym: Sym::from_index(sym),
                    ok: ok as MaskId,
                }
            }
            3 => Op::AnyChild {
                src: src_reg(&mut r)?,
                dst,
            },
            4 => Op::DescOrSelf {
                src: src_reg(&mut r)?,
                dst,
            },
            5 => {
                let src = src_reg(&mut r)?;
                let mask = r.u32()? as usize;
                if mask >= masks.len() {
                    return None;
                }
                Op::Intersect {
                    src,
                    dst,
                    mask: mask as MaskId,
                }
            }
            6 => Op::Union {
                a: src_reg(&mut r)?,
                b: src_reg(&mut r)?,
                dst,
            },
            7 => {
                let src = src_reg(&mut r)?;
                let table = r.u32()? as usize;
                if table >= tables.len() {
                    return None;
                }
                Op::Table {
                    src,
                    dst,
                    table: table as TableId,
                }
            }
            _ => return None,
        };
        ops.push(op);
    }
    if !r.at_end() {
        return None;
    }
    if const_unsat {
        if !ops.is_empty() || out != 0 {
            return None;
        }
    } else if out >= ops.len() {
        return None;
    }
    Some(DecisionProgram {
        ops,
        masks,
        tables,
        num_elements,
        out: out as Reg,
        const_unsat,
        canon,
        // Uids are process-local; stamp the live artifacts' so the VM accepts the
        // rehydrated program.
        dtd_uid: artifacts.uid(),
    })
}

fn decode_bitset(r: &mut Reader, capacity: usize) -> Option<BitSet> {
    let mut set = BitSet::with_capacity(capacity);
    for _ in 0..r.u32()? {
        let m = r.u32()? as usize;
        if m >= capacity {
            return None;
        }
        set.insert(m);
    }
    Some(set)
}

// ---- little-endian framing -------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
    fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }
    fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }
    fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }
    fn str(&mut self, value: &str) {
        self.u32(value.len() as u32);
        self.buf.extend_from_slice(value.as_bytes());
    }
    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec()).ok()
    }
    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{decision_fingerprint, Workspace};
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xpsat-store-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const DTD: &str = "r -> a*, b; a -> c | d; b -> #; c -> #; d -> #; @a: id;";

    fn build(text: &str) -> DtdArtifacts {
        DtdArtifacts::build(&parse_dtd(text).unwrap())
    }

    #[test]
    fn save_load_round_trips() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let fresh = build(DTD);
        assert!(!store.contains(&fresh.canonical));
        assert!(matches!(
            store.load(&fresh.canonical),
            Err(StoreMiss::Absent)
        ));
        store.save(&fresh).unwrap();
        assert!(store.contains(&fresh.canonical));
        let loaded = store.load(&fresh.canonical).unwrap();
        assert_eq!(loaded.canonical, fresh.canonical);
        assert_eq!(loaded.fingerprint, fresh.fingerprint);
        assert_eq!(loaded.compiled.dtd(), fresh.compiled.dtd());
        assert_eq!(loaded.compiled.class(), fresh.compiled.class());
        assert_eq!(loaded.normalization.dtd, fresh.normalization.dtd);
        assert_eq!(
            loaded.normalization.new_types,
            fresh.normalization.new_types
        );
        let a = fresh.compiled.compiled().unwrap();
        let b = loaded.compiled.compiled().unwrap();
        assert_eq!(a.num_elements(), b.num_elements());
        for elem in a.elements() {
            assert_eq!(a.name(elem), b.name(elem));
            assert_eq!(
                a.automaton(elem).shortest_word(),
                b.automaton(elem).shortest_word()
            );
            assert_eq!(
                a.useful_states(elem).iter().collect::<Vec<_>>(),
                b.useful_states(elem).iter().collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_and_checksums_match_existing_v2_entries() {
        // The file name (the canonical key) is pinned from the entry an earlier v2
        // build wrote for this DTD: if it drifts, every existing cache directory
        // silently turns into misses.  Since v3 the entry is the canonical text.
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let fresh = build("r -> a*, b; a -> c | d; b -> #; c -> #; d -> #; @a: id, lang;");
        assert_eq!(fresh.fingerprint, 0x44a3_bdd3_ba9f_be9c);
        store.save(&fresh).unwrap();
        let bytes = std::fs::read(store.version_dir().join("44a3bdd3ba9fbe9c.art")).unwrap();
        assert_eq!(bytes, fresh.canonical.as_bytes());
        assert!(store.load(&fresh.canonical).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rehydrated_artifacts_decide_identically() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let solver = xpsat_core::Solver::default();
        let budget = xpsat_core::Budget::steps(1_000_000);
        let cases = [
            (
                parse_dtd(DTD).unwrap(),
                vec!["a/c", "a[not(c)]", "b", "a[c and not(d)]", "ghost"],
            ),
            (
                xpsat_core::corpus::xhtml_dtd(),
                vec![
                    "body/**/div[table]",
                    "**/table[thead and tbody]",
                    "**/dl[dt or dd]",
                    "**/form[fieldset[legend]]",
                ],
            ),
            (
                xpsat_core::corpus::docbook_dtd(),
                vec![
                    "**/chapter/section[title]",
                    "**/section[not(title)]",
                    "book/chapter[qandaset]",
                    "**/qandaentry[question and answer]",
                ],
            ),
        ];
        for (dtd, texts) in cases {
            let fresh = DtdArtifacts::build(&dtd);
            store.save(&fresh).unwrap();
            let loaded = store.load(&fresh.canonical).unwrap();
            for text in texts {
                let query = xpsat_xpath::parse_path(text).unwrap();
                let direct = solver.decide_budgeted(&fresh.compiled, &query, &budget);
                let replayed = solver.decide_budgeted(&loaded.compiled, &query, &budget);
                assert!(direct.exhausted.is_none(), "{} {text}", dtd.root());
                assert_eq!(
                    decision_fingerprint(&direct),
                    decision_fingerprint(&replayed),
                    "{} {text}",
                    dtd.root()
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_or_foreign_entries_miss() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let fresh = build(DTD);
        store.save(&fresh).unwrap();
        let path = store
            .version_dir()
            .join(format!("{:016x}.art", canonical_key(&fresh.canonical)));
        // Truncation.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            store.load(&fresh.canonical),
            Err(StoreMiss::Invalid)
        ));
        // The corrupt entry was deleted on sight; the next miss is a plain Absent.
        assert!(!path.exists());
        assert!(matches!(
            store.load(&fresh.canonical),
            Err(StoreMiss::Absent)
        ));
        // Flipped interior byte.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.load(&fresh.canonical),
            Err(StoreMiss::Invalid)
        ));
        // A different DTD's entry under this key: canonical mismatch.
        let other = build("r -> x?; x -> #;");
        std::fs::write(&path, other.canonical.as_bytes()).unwrap();
        assert!(matches!(
            store.load(&fresh.canonical),
            Err(StoreMiss::Invalid)
        ));
        // Restore and confirm it loads again.
        std::fs::write(&path, &full).unwrap();
        assert!(store.load(&fresh.canonical).is_ok());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            store.load(&fresh.canonical),
            Err(StoreMiss::Absent)
        ));

        // A v2-format entry under the v3 key (magic, version, length-prefixed
        // canonical text, FNV trailer) is a counted miss, and the rebuild's save
        // replaces it with the text.
        let mut v2 = b"XPSATART".to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&(fresh.canonical.len() as u32).to_le_bytes());
        v2.extend_from_slice(fresh.canonical.as_bytes());
        let trailer = fnv64(&v2);
        v2.extend_from_slice(&trailer.to_le_bytes());
        std::fs::write(&path, &v2).unwrap();
        let ws = Workspace::default().with_store(store.clone());
        assert!(!ws.register_dtd_report(DTD).unwrap().cached);
        let stats = ws.stats();
        assert_eq!(stats.artifact_store_corrupt, 1, "{stats}");
        assert_eq!(stats.artifact_store_misses, 1, "{stats}");
        assert_eq!(stats.artifact_store_writes, 1, "{stats}");
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nonterminating_root_round_trips_without_compile() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let fresh = build("r -> r;");
        assert!(fresh.compiled.compiled().is_none());
        store.save(&fresh).unwrap();
        let loaded = store.load(&fresh.canonical).unwrap();
        assert!(loaded.compiled.compiled().is_none());
        assert_eq!(loaded.compiled.class(), fresh.compiled.class());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn programs_round_trip_and_decide_identically() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let fresh = build(DTD);
        let limits = xpsat_plan::CompileLimits::default();
        for text in ["a[c or d]", "b", "a[not(c)]", "a/c"] {
            let canon = xpsat_plan::canonicalize(&xpsat_xpath::parse_path(text).unwrap());
            let canon_text = canon.to_string();
            let hash = fnv64(canon_text.as_bytes());
            let program = xpsat_plan::compile(&fresh.compiled, &canon, &limits)
                .unwrap_or_else(|| panic!("{text} compiles"));
            let entry = store
                .version_dir()
                .join(format!("{:016x}-{hash:016x}.prg", fresh.fingerprint));
            assert!(!entry.exists());
            store
                .save_program(fresh.fingerprint, hash, &canon_text, &program)
                .unwrap();
            assert!(entry.exists());
            let loaded = store
                .load_program(fresh.fingerprint, hash, &canon_text, &fresh.compiled)
                .unwrap();
            assert_eq!(loaded.ops, program.ops);
            assert_eq!(loaded.out, program.out);
            assert_eq!(loaded.canon, program.canon);
            assert_eq!(loaded.dtd_uid, fresh.compiled.uid());
            let mut scratch = xpsat_plan::Scratch::new();
            let budget = xpsat_core::Budget::unlimited();
            let a =
                xpsat_plan::vm::decide(&program, &fresh.compiled, &mut scratch, &budget).unwrap();
            let b =
                xpsat_plan::vm::decide(&loaded, &fresh.compiled, &mut scratch, &budget).unwrap();
            assert_eq!(decision_fingerprint(&a), decision_fingerprint(&b), "{text}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_program_entries_miss_and_are_deleted() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let fresh = build(DTD);
        let canon = xpsat_plan::canonicalize(&xpsat_xpath::parse_path("a[c and d]").unwrap());
        let canon_text = canon.to_string();
        let hash = fnv64(canon_text.as_bytes());
        let program = xpsat_plan::compile(
            &fresh.compiled,
            &canon,
            &xpsat_plan::CompileLimits::default(),
        )
        .unwrap();
        store
            .save_program(fresh.fingerprint, hash, &canon_text, &program)
            .unwrap();
        let path = store
            .version_dir()
            .join(format!("{:016x}-{:016x}.prg", fresh.fingerprint, hash));
        let full = std::fs::read(&path).unwrap();
        // Truncation fails the checksum; the damaged entry is deleted on sight so
        // the next lookup is a plain Absent (⇒ recompile, not a wedged key).
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            store.load_program(fresh.fingerprint, hash, &canon_text, &fresh.compiled),
            Err(StoreMiss::Invalid)
        ));
        assert!(!path.exists());
        assert!(matches!(
            store.load_program(fresh.fingerprint, hash, &canon_text, &fresh.compiled),
            Err(StoreMiss::Absent)
        ));
        // An interior bit flip likewise fails the checksum.
        let mut flipped = full.clone();
        let mid = flipped.len() - 12;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.load_program(fresh.fingerprint, hash, &canon_text, &fresh.compiled),
            Err(StoreMiss::Invalid)
        ));
        // A key mismatch (entry filed under the wrong name) also refuses.
        std::fs::write(&path, &full).unwrap();
        let other_hash = fnv64(b"zzz");
        std::fs::rename(
            &path,
            store.version_dir().join(format!(
                "{:016x}-{:016x}.prg",
                fresh.fingerprint, other_hash
            )),
        )
        .unwrap();
        assert!(matches!(
            store.load_program(fresh.fingerprint, other_hash, "zzz", &fresh.compiled),
            Err(StoreMiss::Invalid)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workspaces_share_entries_through_one_store() {
        let dir = scratch_dir();
        let store = ArtifactStore::open(&dir).unwrap();
        let first = Workspace::default().with_store(store.clone());
        first.register_dtd(DTD).unwrap();
        assert_eq!(first.stats().artifact_store_writes, 1);
        let second = Workspace::default().with_store(store);
        let outcome = second.register_dtd_report(DTD).unwrap();
        assert!(outcome.cached, "the store knew the text");
        let stats = second.stats();
        assert_eq!(stats.artifact_store_hits, 1);
        assert_eq!(stats.artifact_store_writes, 0, "a hit saves nothing");
        assert_eq!(
            stats.classifications, 1,
            "a hit rebuilds from the stored text"
        );
        let q = second.intern("a[not(c)]").unwrap();
        assert!(second.decide(outcome.id, q).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
