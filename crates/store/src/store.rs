//! The append-only JSONL store, the [`RunSink`] seam producers emit
//! through, and the process-global store wired up from `TICTAC_RUN_STORE`.

use std::fs::{self, OpenOptions};
use std::io::{self, Read, Write};
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
#[derive(Debug)]
pub struct RunStore {
    path: PathBuf,
    /// The file length this handle's last append left and the records in
    /// a file of that length; a missing or empty file holds none.
    tail: Mutex<Tail>,
}

#[derive(Debug, Default)]
struct Tail {
    len: u64,
    records: usize,
}

impl RunStore {
    /// A store backed by `path`; the file is created on first append.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            tail: Mutex::default(),
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
    /// while the file still has the length this handle's last append left,
    /// counted afresh when it does not (first use, another handle or
    /// process appended, the file was truncated or replaced).
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
            let mut text = String::new();
            file.read_to_string(&mut text)?;
            *tail = Tail {
                len: text.len() as u64,
                records: text.lines().filter(|l| !l.trim().is_empty()).count(),
            };
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
        tail.len += line.len() as u64;
        tail.records += 1;
        Ok(record.id)
    }

    /// Loads every record, in append order. The file is read under the
    /// append lock, so no append of this handle is half-read, and decoded
    /// after it is released, so appenders do not wait out the decode.
    pub fn load(&self) -> io::Result<Vec<RunRecord>> {
        let read = {
            let _appends_wait = self
                .tail
                .lock()
                .expect("an append panicked holding the store lock");
            fs::read_to_string(&self.path)
        };
        let text = match read {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        load_lines(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Parses a JSONL corpus, failing on the first bad line with its number.
fn load_lines(text: &str) -> Result<Vec<RunRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| RunRecord::decode(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
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
pub const DEFAULT_STORE_PATH: &str = "results/runs.jsonl";

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
/// the committed [`DEFAULT_STORE_PATH`].
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

    #[test]
    fn bad_lines_fail_with_line_numbers() {
        let mut r = record(3);
        r.payload = Payload::Report(ReportEvidence {
            report_fp: 9,
            quick: false,
        });
        let text = format!("{}\n{{\"schema\":\"bogus\"}}\n", r.encode());
        let err = load_lines(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
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
