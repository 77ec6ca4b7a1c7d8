//! The append-only JSONL store, the [`RunSink`] seam producers emit
//! through, and the process-global store wired up from `TICTAC_RUN_STORE`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::record::RunRecord;

/// Anything that accepts finished [`RunRecord`]s. `Session` and the
/// binaries write through this seam, so tests can capture records with a
/// [`MemorySink`] while production appends to a [`RunStore`] file.
pub trait RunSink: Send + Sync + std::fmt::Debug {
    /// Accepts one finished record. Sinks assign ids/timestamps as they
    /// see fit; callers leave `id` empty and `time_ms` zero.
    fn record(&self, record: RunRecord);
}

/// An in-memory sink for tests and dry runs.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<RunRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<RunRecord> {
        std::mem::take(&mut self.records.lock().unwrap())
    }
}

impl RunSink for MemorySink {
    fn record(&self, record: RunRecord) {
        self.records.lock().unwrap().push(record);
    }
}

/// The append-only run store: one schema-checked JSONL line per record.
///
/// Appends are serialized through a mutex because experiments fan
/// sessions out across worker threads (`parallel_map`), and each record
/// reaches the `O_APPEND` file as one `write` of `line + '\n'`, so a
/// second process appending to the same path cannot land inside a line;
/// a torn line would poison the whole corpus. Loads are strict — any
/// undecodable line fails with its line number rather than being skipped.
/// A handle's appends and loads each read only past the prefix they last
/// saw, while the file still holds it (DESIGN.md §13, the seam).
#[derive(Debug)]
pub struct RunStore {
    path: PathBuf,
    /// The append lock, over what this handle's appends know of the file.
    tail: Mutex<Seen>,
    /// The load-only lock, over the prefix this handle's loads decoded.
    decoded: Mutex<(Seen, Vec<RunRecord>)>,
}

/// A prefix of the store file, ending at a `'\n'`: its byte length, its
/// *seam* (the prefix from its last non-blank line on), and its line and
/// record counts. The default is the empty prefix.
#[derive(Debug, Default)]
struct Seen {
    len: u64,
    seam: String,
    lines: usize,
    records: usize,
}

impl Seen {
    /// Reads the file past this prefix: after the seam if the seam is still
    /// where the prefix left it, else — the prefix forgotten — from the top.
    fn read_past(&mut self, file: &mut File) -> io::Result<String> {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(self.len - self.seam.len() as u64))?;
        file.read_to_end(&mut bytes)?;
        if !bytes.starts_with(self.seam.as_bytes()) {
            *self = Self::default();
            bytes.clear();
            file.rewind()?;
            file.read_to_end(&mut bytes)?;
        }
        bytes.drain(..self.seam.len()); // a forgotten prefix has no seam
        String::from_utf8(bytes).map_err(|_| invalid("stream did not contain valid UTF-8"))
    }

    /// Moves the prefix over the complete lines of `text` (the file past it),
    /// giving `take` each non-blank one and its line number in the file, and
    /// returns the unterminated rest; an error from `take` moves nothing.
    fn extend<'t>(
        &mut self,
        text: &'t str,
        mut take: impl FnMut(usize, &str) -> io::Result<()>,
    ) -> io::Result<&'t str> {
        let (done, torn) = text.split_at(text.rfind('\n').map_or(0, |i| i + 1));
        let (mut at, mut last, mut lines, mut records) = (0, None, self.lines, self.records);
        for piece in done.split_inclusive('\n') {
            lines += 1;
            if !piece.trim().is_empty() {
                let line = &piece[..piece.len() - 1];
                take(lines, line.strip_suffix('\r').unwrap_or(line))?;
                records += 1;
                last = Some(at);
            }
            at += piece.len();
        }
        (self.lines, self.records) = (lines, records);
        if let Some(start) = last {
            self.seam.clear();
            self.seam.push_str(&done[start..]);
        } else {
            self.seam.push_str(done);
        }
        self.len += done.len() as u64;
        Ok(torn)
    }
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

impl RunStore {
    /// A store backed by `path`; the file is created on first append.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            tail: Mutex::default(),
            decoded: Mutex::default(),
        }
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, assigning the next sequential id (`r000042`)
    /// and — when the caller left it zero — the current wall-clock
    /// timestamp. Returns the assigned id.
    ///
    /// The id is the number of records already in the file: remembered
    /// while the file keeps the length this handle's last append left, else
    /// counted past the seam (DESIGN.md §13). A file whose last line has no
    /// `'\n'` is refused with `InvalidData` naming its offset, and left as is.
    pub fn append(&self, mut record: RunRecord) -> io::Result<String> {
        let mut tail = self
            .tail
            .lock()
            .expect("an append panicked holding the store lock");
        let mut options = OpenOptions::new();
        options.read(true).create(true).append(true);
        let mut file = match options.open(&self.path) {
            // A creating open fails this way only for a missing directory.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(self.path.parent().unwrap_or(Path::new("")))?;
                options.open(&self.path)?
            }
            opened => opened?,
        };
        if file.metadata()?.len() != tail.len {
            let text = tail.read_past(&mut file)?;
            if !tail.extend(&text, |_, _| Ok(()))?.is_empty() {
                let (path, at) = (self.path.display(), tail.len);
                let torn = format!("{path}: the line at byte {at} has no newline");
                return Err(invalid(torn));
            }
        }
        record.id = format!("r{:06}", tail.records);
        if record.time_ms == 0 {
            record.time_ms = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
        }
        let mut line = record.encode();
        line.push('\n');
        file.write_all(line.as_bytes())?;
        tail.extend(&line, |_, _| Ok(()))?;
        Ok(record.id)
    }

    /// Loads every record, in append order, decoding only the lines past
    /// what this handle's last load decoded and returning a clone of the
    /// one decoded copy it keeps. The file is read under the append lock,
    /// so no append of this handle is half-read, and decoded under a
    /// load-only lock, so appenders do not wait out the decode.
    pub fn load(&self) -> io::Result<Vec<RunRecord>> {
        let mut decoded = self
            .decoded
            .lock()
            .expect("a load panicked holding the load lock");
        let (seen, records) = &mut *decoded;
        let read = {
            let _appends_wait = self
                .tail
                .lock()
                .expect("an append panicked holding the store lock");
            File::open(&self.path).and_then(|mut file| seen.read_past(&mut file))
        };
        let text = match read {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                *decoded = Default::default();
                return Ok(Vec::new());
            }
            Err(e) => return Err(e),
        };
        records.truncate(seen.records); // drops what a forgotten prefix held
        let decode = |n: usize, line: &str| {
            RunRecord::decode(line).map_err(|e| invalid(format!("line {n}: {e}")))
        };
        let torn = seen.extend(&text, |n, line| decode(n, line).map(|r| records.push(r)))?;
        let mut loaded = records.clone();
        if !torn.trim().is_empty() {
            loaded.push(decode(seen.lines + 1, torn)?);
        }
        Ok(loaded)
    }
}

impl RunSink for RunStore {
    fn record(&self, record: RunRecord) {
        if let Err(e) = self.append(record) {
            eprintln!("tictac-store: dropped run record: {e}");
        }
    }
}

static GLOBAL: Mutex<Option<Arc<RunStore>>> = Mutex::new(None);

/// Points the process-global store at `path` (used by the binaries'
/// `--store` flags), replacing any earlier target.
pub fn set_global_store(path: impl Into<PathBuf>) -> Arc<RunStore> {
    let store = Arc::new(RunStore::at(path));
    *GLOBAL.lock().unwrap() = Some(Arc::clone(&store));
    store
}

/// The process-global store, if one is configured: either set explicitly
/// via [`set_global_store`] or inherited from the `TICTAC_RUN_STORE`
/// environment variable. `None` means recording is off — the default, so
/// sessions cost nothing unless a corpus was asked for.
pub fn global_store() -> Option<Arc<RunStore>> {
    let mut global = GLOBAL.lock().unwrap();
    if global.is_none() {
        if let Ok(path) = std::env::var("TICTAC_RUN_STORE") {
            if !path.is_empty() {
                *global = Some(Arc::new(RunStore::at(path)));
            }
        }
    }
    global.clone()
}

/// The committed default corpus the read-side `runs` subcommands fall
/// back to when neither `--store` nor `TICTAC_RUN_STORE` names a path.
pub(crate) const DEFAULT_STORE_PATH: &str = "results/runs.jsonl";

/// The one `--store` / `TICTAC_RUN_STORE` resolution rule, shared by
/// every binary that *arms recording* (`tictac run`, `repro`):
/// an explicit non-empty `--store` value arms the process-global store at
/// that path; otherwise the global store stands as-is (set earlier, or
/// inherited from `TICTAC_RUN_STORE` via [`global_store`]). Returns the
/// armed store, or `None` when recording stays off.
pub fn arm_global_store(explicit: Option<&str>) -> Option<Arc<RunStore>> {
    match explicit.filter(|p| !p.is_empty()) {
        Some(path) => Some(set_global_store(path)),
        None => global_store(),
    }
}

/// The same resolution rule for *read-side* commands (`tictac runs`),
/// which always need a path: `--store`, else `TICTAC_RUN_STORE`, else
/// the committed `results/runs.jsonl`.
pub fn resolve_store_path(explicit: Option<&str>) -> PathBuf {
    explicit
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var("TICTAC_RUN_STORE")
                .ok()
                .filter(|p| !p.is_empty())
                .map(PathBuf::from)
        })
        .unwrap_or_else(|| PathBuf::from(DEFAULT_STORE_PATH))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Payload, ReportEvidence, SessionEvidence};

    fn record(seed: u64) -> RunRecord {
        RunRecord {
            id: String::new(),
            time_ms: 0,
            source: "session".into(),
            workload: "tiny_mlp".into(),
            model_fp: 7,
            workers: 2,
            ps: 1,
            scheduler: "tac".into(),
            backend: "sim".into(),
            seed,
            fault_fp: 0,
            scenario_fp: 0,
            comm_fp: 0,
            provenance: String::new(),
            payload: Payload::Session(SessionEvidence::default()),
        }
    }

    /// A fresh store file in a directory of its own, so parallel tests
    /// share nothing; the directory is left for the first append to make.
    fn scratch(name: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("tictac-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::at(dir.join("runs.jsonl"))
    }

    fn cleanup(store: &RunStore) {
        let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
    }

    fn assert_ids_are_line_numbers(store: &RunStore) {
        for (i, r) in store.load().unwrap().iter().enumerate() {
            assert_eq!(r.id, format!("r{i:06}"));
        }
    }

    #[test]
    fn append_assigns_sequential_ids_and_loads_back() {
        let store = scratch("append");
        assert_eq!(store.append(record(1)).unwrap(), "r000000");
        assert_eq!(store.append(record(2)).unwrap(), "r000001");
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].id, "r000000");
        assert_eq!(loaded[0].seed, 1);
        assert_eq!(loaded[1].seed, 2);
        assert!(loaded.iter().all(|r| r.time_ms > 0));
        cleanup(&store);
    }

    #[test]
    fn two_handles_on_one_path_number_as_one() {
        let a = scratch("two-handles");
        let b = RunStore::at(a.path());
        for i in 0..4 {
            assert_eq!(a.append(record(i)).unwrap(), format!("r{:06}", 2 * i));
            assert_eq!(b.append(record(i)).unwrap(), format!("r{:06}", 2 * i + 1));
        }
        // A handle that saw only its own appends keeps counting without help.
        assert_eq!(b.append(record(9)).unwrap(), "r000008");
        assert_eq!(b.append(record(9)).unwrap(), "r000009");
        assert_eq!(a.append(record(9)).unwrap(), "r000010");
        assert_eq!(a.load().unwrap().len(), 11);
        assert_ids_are_line_numbers(&a);
        cleanup(&a);
    }

    #[test]
    fn threads_sharing_a_handle_number_as_one() {
        let store = scratch("threads");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = &store;
                scope.spawn(move || (0..10).for_each(|_| drop(store.append(record(t)).unwrap())));
            }
        });
        assert_eq!(store.load().unwrap().len(), 40);
        assert_ids_are_line_numbers(&store);
        cleanup(&store);
    }

    #[test]
    fn a_removed_or_truncated_file_is_recounted() {
        let store = scratch("recount");
        for i in 0..3 {
            store.append(record(i)).unwrap();
        }
        std::fs::remove_file(store.path()).unwrap();
        assert_eq!(store.append(record(3)).unwrap(), "r000000");
        assert_eq!(store.append(record(4)).unwrap(), "r000001");
        assert_eq!(store.append(record(5)).unwrap(), "r000002");
        // Cut back to the first line: the next record is the second again.
        let text = std::fs::read_to_string(store.path()).unwrap();
        let first_line = text.find('\n').unwrap() as u64 + 1;
        let truncate = |len| {
            let file = OpenOptions::new().write(true).open(store.path()).unwrap();
            file.set_len(len).unwrap();
        };
        truncate(first_line);
        assert_eq!(store.append(record(6)).unwrap(), "r000001");
        assert_ids_are_line_numbers(&store);
        truncate(0);
        assert_eq!(store.append(record(7)).unwrap(), "r000000");
        assert_eq!(store.load().unwrap().len(), 1);
        cleanup(&store);
    }

    #[test]
    fn a_committed_corpus_continues_at_its_length() {
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/runs.jsonl");
        let committed = std::fs::read_to_string(corpus).unwrap();
        let n = committed.lines().count();
        assert!(n > 0, "the committed corpus is not empty");
        let store = scratch("committed");
        std::fs::create_dir_all(store.path().parent().unwrap()).unwrap();
        std::fs::write(store.path(), &committed).unwrap();
        assert_eq!(store.append(record(1)).unwrap(), format!("r{n:06}"));
        assert_eq!(store.append(record(2)).unwrap(), format!("r{:06}", n + 1));
        // The committed bytes are still the file's prefix, every line
        // ends in its newline, and the whole file loads strictly.
        let text = std::fs::read_to_string(store.path()).unwrap();
        assert!(text.starts_with(&committed) && text.ends_with('\n'));
        assert_eq!(text.lines().count(), n + 2);
        assert_ids_are_line_numbers(&store);
        cleanup(&store);
    }

    #[test]
    fn missing_file_loads_empty() {
        let store = RunStore::at("/nonexistent-dir-for-sure/runs.jsonl");
        assert!(store.load().unwrap().is_empty());
    }

    /// Appends `bytes` to the store file as they are, as a hand edit or a
    /// writer killed mid-line would.
    fn write_raw(store: &RunStore, bytes: &[u8]) {
        std::fs::create_dir_all(store.path().parent().unwrap()).unwrap();
        let mut options = OpenOptions::new();
        let mut file = options
            .create(true)
            .append(true)
            .open(store.path())
            .unwrap();
        file.write_all(bytes).unwrap();
    }

    #[test]
    fn bad_lines_fail_with_line_numbers() {
        let store = scratch("bad-lines");
        let mut r = record(3);
        r.payload = Payload::Report(ReportEvidence {
            report_fp: 9,
            quick: false,
        });
        let good = format!("{}\n", r.encode());
        write_raw(
            &store,
            format!("{good}{{\"schema\":\"bogus\"}}\n").as_bytes(),
        );
        let err = store.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        // Past the prefix a handle has decoded, lines are still numbered
        // from the top of the file.
        std::fs::write(store.path(), good.repeat(3)).unwrap();
        assert_eq!(store.load().unwrap().len(), 3);
        write_raw(&store, b"{\"schema\":\"bogus\"}\n");
        let err = store.load().unwrap_err();
        assert!(err.to_string().starts_with("line 4:"), "{err}");
        cleanup(&store);
    }

    #[test]
    fn a_torn_tail_is_refused_not_glued_onto() {
        let store = scratch("torn");
        store.append(record(1)).unwrap();
        let len = std::fs::metadata(store.path()).unwrap().len();
        write_raw(&store, b"{\"schema\"");
        let before = std::fs::read(store.path()).unwrap();
        // A fresh handle, and one that remembers the file as it was.
        for handle in [&RunStore::at(store.path()), &store] {
            let err = handle.append(record(2)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&format!("byte {len}")), "{err}");
            assert_eq!(std::fs::read(store.path()).unwrap(), before);
        }
        let err = store.load().unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        // Once the line is ended, appends go on after it.
        write_raw(&store, b"\n");
        assert_eq!(store.append(record(3)).unwrap(), "r000002");
        cleanup(&store);
    }

    #[test]
    fn a_blank_last_line_is_no_seam() {
        let store = scratch("blank-seam");
        let line = |seed, id: &str| {
            let mut r = record(seed);
            (r.id, r.time_ms) = (id.into(), 1);
            r.encode() + "\n"
        };
        write_raw(&store, format!("{}\n", line(1, "r000000")).as_bytes());
        assert_eq!(store.load().unwrap()[0].seed, 1);
        // The new first line ends where the blank line did: a seam of just
        // that blank line would match it.
        let replaced = line(10, "r000000") + &line(11, "r000001");
        assert_eq!(replaced.find('\n'), Some(line(1, "r000000").len()));
        std::fs::write(store.path(), replaced).unwrap();
        let seeds: Vec<u64> = store.load().unwrap().iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [10, 11]);
        cleanup(&store);
    }

    /// SplitMix64, so a case's operations follow from its one seed.
    fn split_mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn an_incremental_load_equals_a_fresh_one((ops, mut rng) in (1usize..48, any::<u64>())) {
            let a = scratch("incremental");
            let b = RunStore::at(a.path());
            let path = a.path();
            // Every record written differs from every other, so no seam
            // matches a file it is not a prefix of by chance.
            let mut seed = 1000;
            for op in 0..=ops {
                let text = std::fs::read(path).ok();
                match if op == ops { 9 } else { split_mix(&mut rng) % 10 } {
                    which @ 0..=2 => {
                        seed += 1;
                        let torn = text.as_ref().and_then(|t| t.last()).is_some_and(|&c| c != b'\n');
                        match [&a, &b][which as usize / 2].append(record(seed)) {
                            Ok(_) => prop_assert!(!torn),
                            Err(e) => {
                                prop_assert!(torn, "{e}");
                                prop_assert_eq!(std::fs::read(path).ok(), text);
                            }
                        }
                    }
                    3 => write_raw(&a, b"\n"),
                    4 => if let Some(text) = text {
                        let r = split_mix(&mut rng);
                        let len = if r.is_multiple_of(2) {
                            let ends: Vec<usize> = std::iter::once(0)
                                .chain((0..text.len()).filter(|&i| text[i] == b'\n').map(|i| i + 1))
                                .collect();
                            ends[(r / 2 % ends.len() as u64) as usize]
                        } else {
                            (r / 2 % (text.len() as u64 + 1)) as usize
                        };
                        let file = OpenOptions::new().write(true).open(path).unwrap();
                        file.set_len(len as u64).unwrap();
                    },
                    5 => {
                        // More records than the file has lines, each
                        // longer than any line it has: a longer file.
                        let lines = text.map_or(0, |t| t.split(|&c| c == b'\n').count());
                        let corpus: String = (0..lines + 1 + (split_mix(&mut rng) % 3) as usize)
                            .map(|i| {
                                let mut r = record(5000 + i as u64);
                                r.id = format!("r{i:06}");
                                r.time_ms = 1;
                                r.workload = "replaced_by_a_longer_corpus".into();
                                r.encode() + "\n"
                            })
                            .collect();
                        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                        std::fs::write(path, corpus).unwrap();
                    }
                    6 => drop(std::fs::remove_file(path)),
                    _ => {
                        let as_text = |loaded: io::Result<Vec<RunRecord>>| {
                            loaded.map_err(|e| (e.kind(), e.to_string()))
                        };
                        let fresh = as_text(RunStore::at(path).load());
                        prop_assert_eq!(as_text(a.load()), fresh.clone());
                        prop_assert_eq!(as_text(b.load()), fresh.clone());
                        if fresh.is_ok() {
                            assert_ids_are_line_numbers(&a);
                        }
                    }
                }
            }
            cleanup(&a);
        }
    }

    #[test]
    fn store_path_resolution_prefers_explicit_flag() {
        assert_eq!(
            resolve_store_path(Some("custom.jsonl")),
            PathBuf::from("custom.jsonl")
        );
        // An empty flag value is "not given", not "the empty path".
        if std::env::var("TICTAC_RUN_STORE").is_err() {
            assert_eq!(
                resolve_store_path(Some("")),
                PathBuf::from(DEFAULT_STORE_PATH)
            );
            assert_eq!(resolve_store_path(None), PathBuf::from(DEFAULT_STORE_PATH));
        }
    }

    #[test]
    fn memory_sink_captures_records() {
        let sink = MemorySink::new();
        sink.record(record(5));
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seed, 5);
        assert!(sink.take().is_empty());
    }
}
