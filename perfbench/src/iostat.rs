//! A [`Storage`] that counts and times the durability layer's I/O.
//!
//! It wraps [`OsStorage`] through the public `av_durable` traits and is
//! injected through `ServiceConfig::storage`, so the `av-durable` numbers
//! come from the real file system without touching the durability code.

use av_durable::{OsStorage, Storage, StorageFile};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cumulative I/O counters.
#[derive(Debug, Default)]
pub struct IoCounters {
    bytes: AtomicU64,
    write_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoSnapshot {
    /// Bytes written.
    pub bytes: u64,
    /// Time inside `write_all`, in ns.
    pub write_ns: u64,
    /// `sync` + `sync_dir` calls (each one fsync).
    pub syncs: u64,
    /// Time inside `sync` + `sync_dir`, in ns.
    pub sync_ns: u64,
}

impl IoSnapshot {
    /// Counters accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes: self.bytes - earlier.bytes,
            write_ns: self.write_ns - earlier.write_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }

    /// Time spent in durability I/O, in ns.
    pub fn io_ns(&self) -> u64 {
        self.write_ns + self.sync_ns
    }
}

impl IoCounters {
    /// Read every counter.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes: self.bytes.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }

    fn sync_done(&self, start: Instant) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// [`OsStorage`] with every write and sync counted.
#[derive(Debug, Default)]
pub struct CountingStorage {
    counters: Arc<IoCounters>,
}

impl CountingStorage {
    /// A storage plus the handle to its counters.
    pub fn new() -> (CountingStorage, Arc<IoCounters>) {
        let counters = Arc::new(IoCounters::default());
        (
            CountingStorage {
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    counters: Arc<IoCounters>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.write_all(buf);
        let c = &self.counters;
        c.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        c.write_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.sync();
        self.counters.sync_done(start);
        result
    }
}

impl Storage for CountingStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(CountingFile {
            inner: OsStorage.create(path)?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        OsStorage.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsStorage.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        OsStorage.remove(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        OsStorage.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = OsStorage.sync_dir(path);
        self.counters.sync_done(start);
        result
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        OsStorage.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        OsStorage.exists(path)
    }

    fn size(&self, path: &Path) -> io::Result<u64> {
        OsStorage.size(path)
    }
}
