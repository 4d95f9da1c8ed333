//! The pager: page-level storage, transactions, and the three journal
//! modes of the paper.
//!
//! | mode       | commit protocol (per §2.1–§2.2 and Figure 1)             |
//! |------------|-----------------------------------------------------------|
//! | `Rollback` | copy originals to `<db>-journal`, fsync, fsync header,    |
//! |            | write pages to the DB file, fsync, delete the journal      |
//! | `Wal`      | append new versions to `<db>-wal`, one fsync; checkpoint   |
//! |            | into the DB file every 1000 frames                         |
//! | `Off`      | write pages straight to the DB file tagged with the        |
//! |            | transaction id; one `fsync(tid)` = device `commit`        |
//!
//! The buffer pool is managed *steal/force* exactly as SQLite's (§2.1):
//! every commit force-writes the transaction's dirty pages, and under
//! memory pressure uncommitted dirty pages spill to storage early — via
//! the journal-sync-then-spill dance in `Rollback` mode, an uncommitted
//! WAL frame in `Wal` mode, and a tid-tagged `write_tx` in `Off` mode.
//!
//! Callers work on pages where they sit in the cache: [`Pager::with_page`]
//! lends a frame for reading and [`Pager::with_page_mut`] for patching in
//! place, and commits write dirty frames to the file system straight from
//! the cache. Only [`Pager::put`] takes a whole new page image.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use xftl_flash::{Nanos, SimClock};
use xftl_fs::{FileSystem, FsError, Ino};
use xftl_ftl::{BlockDevice, CommitTicket, Tid};
use xftl_trace::{OpClass, Recorder, Telemetry};

use crate::error::{DbError, Result};

/// Little-endian u64 at `off` (callers guarantee the bounds).
fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(bytes)
}

/// Little-endian u32 at `off` (callers guarantee the bounds).
fn get_u32(buf: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    bytes.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(bytes)
}

/// Little-endian u16 at `off` (callers guarantee the bounds).
fn get_u16(buf: &[u8], off: usize) -> u16 {
    let mut bytes = [0u8; 2];
    bytes.copy_from_slice(&buf[off..off + 2]);
    u16::from_le_bytes(bytes)
}

/// Journal mode of one database connection (PRAGMA journal_mode analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbJournalMode {
    /// SQLite's default rollback-journal (DELETE) mode: the journal file
    /// is deleted at commit.
    Rollback,
    /// Rollback journal finalized by truncation to zero length
    /// (`PRAGMA journal_mode=TRUNCATE`) — avoids the per-transaction
    /// create/unlink metadata churn.
    RollbackTruncate,
    /// Rollback journal finalized by zeroing its header
    /// (`PRAGMA journal_mode=PERSIST`) — one page write instead of any
    /// file-system metadata operation.
    RollbackPersist,
    /// Write-ahead log mode.
    Wal,
    /// Journaling off — transactional atomicity delegated to X-FTL.
    Off,
}

impl DbJournalMode {
    /// True for any of the three rollback-journal variants.
    pub fn is_rollback(self) -> bool {
        matches!(
            self,
            DbJournalMode::Rollback
                | DbJournalMode::RollbackTruncate
                | DbJournalMode::RollbackPersist
        )
    }
}

/// A file system shared by several database files (Gmail uses 2, Facebook
/// 11 — Table 2).
pub type SharedFs<D> = Rc<RefCell<FileSystem<D>>>;

/// Database page number (page 0 is the header).
pub type PageNo = u32;

/// Magic of the DB header page ("XFTLSQL1").
const DB_MAGIC: u64 = 0x5846_544C_5351_4C31;
/// Magic of a rollback-journal header.
const RJ_MAGIC: u64 = 0x524A_4F55_524E_414C;
/// Magic of a WAL header.
const WAL_MAGIC: u64 = 0x5741_4C48_4452_5F31;
/// Bytes of a WAL frame header preceding each page image.
const WAL_FRAME_HDR: u64 = 64;

/// Pager-attributed I/O counts (the "SQLite DB / Journal" columns of
/// Table 1 come from here).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    /// Pages written to the database file.
    pub db_writes: u64,
    /// Page-equivalents written to the rollback journal or WAL
    /// (headers included).
    pub journal_writes: u64,
    /// fsync calls issued by the pager.
    pub fsyncs: u64,
    /// Pages read (from DB file or WAL).
    pub reads: u64,
    /// WAL checkpoints performed.
    pub checkpoints: u64,
    /// Directory syncs after journal deletion (SQLite's dirsync, which
    /// makes the rollback-journal commit point durable).
    pub dirsyncs: u64,
    /// Dirty pages spilled before commit (steal events).
    pub spills: u64,
}

#[derive(Debug)]
struct Frame {
    data: Vec<u8>,
    dirty: bool,
    tick: u64,
}

/// How a rollback journal is finalized: the step whose durability is the
/// rollback-journal commit point.
#[derive(Debug, Clone, Copy)]
enum Finalize {
    /// DELETE: unlink the journal, then dirsync.
    Delete,
    /// TRUNCATE: shrink the journal to zero length, then dirsync.
    Truncate,
    /// PERSIST: zero the journal header, then fsync.
    Persist,
}

/// Rollback-journal state of the open transaction.
#[derive(Debug, Default)]
struct RollbackTx {
    /// The journal file, once the transaction has journaled a page.
    ino: Option<Ino>,
    /// Journaled pages in record order.
    journaled: Vec<PageNo>,
    journaled_set: HashSet<PageNo>,
    /// Records covered by the last journal sync.
    synced_records: u32,
    /// Master-journal name recorded in the journal header during a
    /// multi-file commit (§4.3 / SQLite's master journal protocol).
    master_name: Option<String>,
}

impl RollbackTx {
    /// The journal header page naming the first `records` journaled pages.
    fn header(&self, page_size: usize, orig_page_count: u32, records: u32) -> Vec<u8> {
        let mut hdr = vec![0u8; page_size];
        hdr[0..8].copy_from_slice(&RJ_MAGIC.to_le_bytes());
        hdr[8..12].copy_from_slice(&records.to_le_bytes());
        hdr[12..16].copy_from_slice(&orig_page_count.to_le_bytes());
        for (i, pgno) in self.journaled.iter().take(records as usize).enumerate() {
            let off = 16 + i * 4;
            hdr[off..off + 4].copy_from_slice(&pgno.to_le_bytes());
        }
        // Master-journal name in the trailing 256 bytes of the header.
        if let Some(m) = &self.master_name {
            let tail = page_size - 256;
            let bytes = m.as_bytes();
            let len = bytes.len().min(250);
            hdr[tail..tail + 2].copy_from_slice(&(len as u16).to_le_bytes());
            hdr[tail + 2..tail + 2 + len].copy_from_slice(&bytes[..len]);
        }
        hdr
    }
}

fn decode_master_name(hdr: &[u8]) -> Option<String> {
    let tail = hdr.len() - 256;
    let len = usize::from(get_u16(hdr, tail));
    if len == 0 || len > 250 {
        return None;
    }
    Some(String::from_utf8_lossy(&hdr[tail + 2..tail + 2 + len]).into_owned())
}

/// An open write-ahead log.
#[derive(Debug)]
struct Wal {
    ino: Ino,
    /// page -> byte offset of the latest committed (or own-tx) frame image.
    index: HashMap<PageNo, u64>,
    /// Append offset in the WAL file.
    end: u64,
    /// Frames since the last checkpoint.
    frames: u32,
    /// File offset just past the last *committed* frame.
    last_commit_end: u64,
    /// Frames appended by the open transaction, with the index entry they
    /// displaced (restored on rollback); `Some` exactly while a
    /// transaction is open.
    tx_frames: Option<Vec<(PageNo, Option<u64>)>>,
}

impl Wal {
    /// Appends one frame; returns the payload offset.
    fn append<D: BlockDevice>(
        &mut self,
        file: &mut DbFile<D>,
        pgno: PageNo,
        data: &[u8],
        commit_size: u32,
    ) -> Result<u64> {
        let mut frame = Vec::with_capacity(WAL_FRAME_HDR as usize + data.len());
        let mut fh = vec![0u8; WAL_FRAME_HDR as usize];
        fh[0..4].copy_from_slice(&pgno.to_le_bytes());
        fh[4..8].copy_from_slice(&commit_size.to_le_bytes());
        fh[8..16].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        frame.extend_from_slice(&fh);
        frame.extend_from_slice(data);
        let off = self.end;
        file.fs.borrow_mut().write(self.ino, off, &frame, None)?;
        // Page-equivalents: a frame is a bit more than one page.
        file.stats.journal_writes += 1;
        self.end = off + frame.len() as u64;
        self.frames += 1;
        Ok(off + WAL_FRAME_HDR)
    }
}

/// The open `Off`-mode transaction.
#[derive(Debug, Clone, Copy)]
struct OffTx {
    tid: Tid,
    /// Header triple (page_count, freelist_head, schema_root) at
    /// [`Pager::begin_concurrent`]; `None` for a plain transaction. A
    /// snapshot transaction holds a device snapshot and validates
    /// first-committer-wins at commit, and its header page is only
    /// force-written when the triple changed, so disjoint concurrent
    /// writers do not all collide on page 0.
    snapshot: Option<(u32, u32, u32)>,
}

/// The journal protocol of a pager, holding only that protocol's state.
/// The transaction part of each variant is `Some` exactly while a
/// transaction is open.
#[derive(Debug)]
enum Journal {
    Rollback(Finalize, Option<RollbackTx>),
    Wal(Wal),
    Off(Option<OffTx>),
}

/// The database file, the file system it lives on, and the counters and
/// spans of the pager's I/O: kept apart from the journal state so a
/// protocol step can borrow both.
#[derive(Debug)]
struct DbFile<D: BlockDevice> {
    fs: SharedFs<D>,
    name: String,
    ino: Ino,
    page_size: usize,
    stats: PagerStats,
    /// Telemetry sink plus the clock that timestamps its spans; absent
    /// until [`Pager::set_recorder`] installs them.
    recorder: Telemetry,
    clock: Option<SimClock>,
}

impl<D: BlockDevice> DbFile<D> {
    fn span_start(&self) -> Option<Nanos> {
        self.clock.as_ref().map(SimClock::now)
    }

    fn record_span(&self, op: OpClass, tid: u64, lpn: u64, t_start: Option<Nanos>) {
        if let (Some(clock), Some(t0)) = (&self.clock, t_start) {
            self.recorder.record_span(op, tid, lpn, t0, clock.now());
        }
    }

    fn journal_name(&self) -> String {
        format!("{}-journal", self.name)
    }

    /// Reads page `pgno` bypassing the pager cache: its newest frame if
    /// `wal` holds one, else the database file (under `tid`).
    fn read_page(&mut self, pgno: PageNo, wal: Option<&Wal>, tid: Option<Tid>) -> Result<Vec<u8>> {
        let (ino, off) = match wal.and_then(|w| Some((w.ino, *w.index.get(&pgno)?))) {
            Some(frame) => frame,
            None => (self.ino, pgno as u64 * self.page_size as u64),
        };
        let mut buf = vec![0u8; self.page_size];
        self.stats.reads += 1;
        let t0 = self.span_start();
        self.fs.borrow_mut().read(ino, off, &mut buf, tid)?;
        self.record_span(OpClass::PagerFetch, tid.unwrap_or(0), u64::from(pgno), t0);
        Ok(buf)
    }

    /// Writes page `pgno` of the database file.
    fn write_page(&mut self, pgno: PageNo, data: &[u8], tid: Option<Tid>) -> Result<()> {
        let off = pgno as u64 * self.page_size as u64;
        self.fs.borrow_mut().write(self.ino, off, data, tid)?;
        self.stats.db_writes += 1;
        Ok(())
    }

    /// fsyncs the database file.
    fn sync(&mut self) -> Result<()> {
        self.fs.borrow_mut().fsync(self.ino, None)?;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Finalizes the rollback journal `ino` after a commit, rollback, or
    /// recovery, durably: DELETE unlinks (plus dirsync), TRUNCATE shrinks
    /// to zero, PERSIST zeroes the header.
    fn finalize_journal(&mut self, how: Finalize, ino: Ino) -> Result<()> {
        match how {
            Finalize::Truncate => {
                self.fs.borrow_mut().truncate(ino, 0)?;
                self.fs.borrow_mut().sync_meta(None)?;
                self.stats.dirsyncs += 1;
            }
            Finalize::Persist => {
                let zero = vec![0u8; self.page_size];
                self.fs.borrow_mut().write(ino, 0, &zero, None)?;
                self.stats.journal_writes += 1;
                self.fs.borrow_mut().fsync(ino, None)?;
                self.stats.fsyncs += 1;
            }
            Finalize::Delete => {
                self.fs.borrow_mut().unlink(&self.journal_name())?;
                self.fs.borrow_mut().sync_meta(None)?;
                self.stats.dirsyncs += 1;
            }
        }
        Ok(())
    }
}

/// The pager over one database file.
#[derive(Debug)]
pub struct Pager<D: BlockDevice> {
    file: DbFile<D>,
    journal: Journal,
    cache: HashMap<PageNo, Frame>,
    cache_cap: usize,
    tick: u64,
    /// Images of frames evicted while [`Pager::retaining_evicted`] runs,
    /// so a B-tree operation can come back to a page it read earlier
    /// without a device read it would not have needed had it held a copy.
    evicted: Option<HashMap<PageNo, Vec<u8>>>,

    /// Committed page count (header field), plus in-tx growth.
    page_count: u32,
    freelist_head: u32,
    schema_root: u32,

    dirty_in_tx: HashSet<PageNo>,
    /// Page count at transaction start (journal restores it on rollback).
    tx_orig_page_count: u32,

    /// Checkpoint threshold in frames (SQLite default: 1000).
    pub wal_autocheckpoint: u32,
}

impl<D: BlockDevice> Pager<D> {
    /// Opens (creating if necessary) the database file `name`, recovering
    /// from a hot rollback journal or an existing WAL as appropriate.
    pub fn open(fs: SharedFs<D>, name: &str, mode: DbJournalMode) -> Result<Self> {
        let page_size = fs.borrow().page_size();
        let existing = fs.borrow().exists(name);
        let db_ino = if existing {
            fs.borrow().open(name)?
        } else {
            fs.borrow_mut().create(name)?
        };
        let mut pager = Pager {
            file: DbFile {
                fs,
                name: name.to_string(),
                ino: db_ino,
                page_size,
                stats: PagerStats::default(),
                recorder: Telemetry::disabled(),
                clock: None,
            },
            journal: Journal::Off(None),
            cache: HashMap::new(),
            // SQLite's default cache_size is ~2 MB; with the paper's 8 KB
            // pages that is 256 frames.
            cache_cap: 256,
            tick: 0,
            evicted: None,
            page_count: 1,
            freelist_head: 0,
            schema_root: 0,
            dirty_in_tx: HashSet::new(),
            tx_orig_page_count: 1,
            wal_autocheckpoint: 1000,
        };
        pager.journal = match mode {
            DbJournalMode::Rollback => Journal::Rollback(Finalize::Delete, None),
            DbJournalMode::RollbackTruncate => Journal::Rollback(Finalize::Truncate, None),
            DbJournalMode::RollbackPersist => Journal::Rollback(Finalize::Persist, None),
            // The newest header may live in the WAL: index it first.
            DbJournalMode::Wal => Journal::Wal(pager.wal_open()?),
            DbJournalMode::Off => Journal::Off(None),
        };
        if let Journal::Rollback(how, _) = pager.journal {
            pager.recover_hot_journal(how)?;
        }
        if existing {
            pager.load_header()?;
        } else {
            // Fresh database: header page 0.
            let mut hdr = vec![0u8; page_size];
            hdr[0..8].copy_from_slice(&DB_MAGIC.to_le_bytes());
            hdr[8..12].copy_from_slice(&1u32.to_le_bytes());
            pager.file.write_page(0, &hdr, None)?;
        }
        Ok(pager)
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.file.page_size
    }

    /// Pager statistics.
    pub fn stats(&self) -> &PagerStats {
        &self.file.stats
    }

    /// Resets statistics between experiment phases.
    pub fn reset_stats(&mut self) {
        self.file.stats = PagerStats::default();
    }

    /// Root page of the schema table (0 = not yet created).
    pub fn schema_root(&self) -> PageNo {
        self.schema_root
    }

    /// Records the schema root (dirties the header).
    pub fn set_schema_root(&mut self, pgno: PageNo) -> Result<()> {
        self.schema_root = pgno;
        self.write_header()
    }

    /// Shared file system handle.
    pub fn shared_fs(&self) -> SharedFs<D> {
        Rc::clone(&self.file.fs)
    }

    fn load_header(&mut self) -> Result<()> {
        let hdr = self.read_page_raw(0)?;
        let magic = get_u64(&hdr, 0);
        if magic == 0 {
            // The file was created but its header never reached storage
            // before a crash: treat as a fresh, empty database (SQLite
            // does the same for zero-length files).
            self.page_count = 1;
            self.freelist_head = 0;
            self.schema_root = 0;
            return Ok(());
        }
        if magic != DB_MAGIC {
            return Err(DbError::Corrupt("bad database header magic"));
        }
        self.page_count = get_u32(&hdr, 8);
        self.freelist_head = get_u32(&hdr, 12);
        self.schema_root = get_u32(&hdr, 16);
        Ok(())
    }

    /// The header triple (page_count, freelist_head, schema_root).
    fn header_fields(&self) -> (u32, u32, u32) {
        (self.page_count, self.freelist_head, self.schema_root)
    }

    fn write_header(&mut self) -> Result<()> {
        let fields = [self.page_count, self.freelist_head, self.schema_root];
        self.retaining_evicted(|pager| {
            pager.with_page(0, |_| ())?;
            pager.with_page_mut(0, |hdr| {
                hdr[0..8].copy_from_slice(&DB_MAGIC.to_le_bytes());
                for (i, v) in fields.iter().enumerate() {
                    hdr[8 + 4 * i..12 + 4 * i].copy_from_slice(&v.to_le_bytes());
                }
            })
        })
    }

    // --- transactions -------------------------------------------------------

    /// True if a transaction is open.
    pub fn in_tx(&self) -> bool {
        match &self.journal {
            Journal::Rollback(_, tx) => tx.is_some(),
            Journal::Wal(wal) => wal.tx_frames.is_some(),
            Journal::Off(tx) => tx.is_some(),
        }
    }

    /// Installs a telemetry handle and the simulated clock that
    /// timestamps its spans (pass clones of the stack-wide pair).
    pub fn set_recorder(&mut self, clock: SimClock, recorder: Telemetry) {
        self.file.clock = Some(clock);
        self.file.recorder = recorder;
    }

    pub(crate) fn span_start(&self) -> Option<Nanos> {
        self.file.span_start()
    }

    pub(crate) fn record_span(&self, op: OpClass, tid: u64, lpn: u64, t_start: Option<Nanos>) {
        self.file.record_span(op, tid, lpn, t_start);
    }

    /// Begins a transaction.
    pub fn begin(&mut self) -> Result<()> {
        if self.in_tx() {
            return Err(DbError::TxState("transaction already active"));
        }
        self.tx_orig_page_count = self.page_count;
        match &mut self.journal {
            Journal::Rollback(_, tx) => *tx = Some(RollbackTx::default()),
            Journal::Wal(wal) => wal.tx_frames = Some(Vec::new()),
            Journal::Off(tx) => {
                let tid = self.file.fs.borrow_mut().begin_tx();
                *tx = Some(OffTx {
                    tid,
                    snapshot: None,
                });
            }
        }
        Ok(())
    }

    /// Begins a snapshot (`BEGIN CONCURRENT`) transaction, `Off` mode
    /// only. The transaction reads the database as of this call; its
    /// writes validate first-committer-wins inside the device at commit,
    /// and a loser surfaces as [`DbError::Conflict`] already rolled back.
    /// The pager cache is cleared so every page is re-fetched under the
    /// snapshot — another connection on the same file system may have
    /// committed since the cache was filled.
    pub fn begin_concurrent(&mut self) -> Result<()> {
        match self.journal {
            Journal::Off(None) => {}
            Journal::Off(Some(_)) => return Err(DbError::TxState("transaction already active")),
            _ => return Err(DbError::TxState("BEGIN CONCURRENT needs journal mode Off")),
        }
        let tid = self.file.fs.borrow_mut().begin_tx_concurrent()?;
        self.journal = Journal::Off(Some(OffTx {
            tid,
            snapshot: Some(self.header_fields()),
        }));
        self.cache.clear();
        // Header fields re-read under the snapshot: a concurrent commit
        // by another connection must not bleed into this transaction.
        self.load_header()?;
        self.tx_orig_page_count = self.page_count;
        self.journal = Journal::Off(Some(OffTx {
            tid,
            snapshot: Some(self.header_fields()),
        }));
        Ok(())
    }

    /// Commits the open transaction using the mode's protocol.
    pub fn commit(&mut self) -> Result<()> {
        self.run_commit(|pager| match pager.journal {
            // Single fsync: force-write plus device commit (§4.3).
            Journal::Off(_) => pager.force_write_off(|fs, ino, tid| fs.fsync(ino, Some(tid))),
            _ => pager.write_header().and_then(|()| pager.commit_journaled()),
        })?;
        Ok(())
    }

    /// Runs `protocol`, the commit of the open transaction, timed as one
    /// pager flush. A transaction that wrote nothing skips it (`None`);
    /// a snapshot transaction that loses first-committer-wins is unwound.
    fn run_commit<T>(
        &mut self,
        protocol: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<Option<T>> {
        if !self.in_tx() {
            return Err(DbError::TxState("no transaction active"));
        }
        let journal_open = matches!(
            self.journal,
            Journal::Rollback(_, Some(RollbackTx { ino: Some(_), .. }))
        );
        if self.dirty_in_tx.is_empty() && !journal_open {
            // Read-only transaction: nothing to make durable — but a
            // snapshot transaction still holds device state to release.
            if let Journal::Off(Some(OffTx {
                tid,
                snapshot: Some(_),
            })) = self.journal
            {
                self.file.fs.borrow_mut().abort_tx(tid)?;
            }
            self.end_tx();
            return Ok(None);
        }
        let t0 = self.file.span_start();
        let out = match protocol(self) {
            Ok(out) => out,
            Err(e) => return Err(self.unwind_conflict(e)?),
        };
        self.file
            .record_span(OpClass::PagerFlush, self.current_tid().unwrap_or(0), 0, t0);
        self.end_tx();
        Ok(Some(out))
    }

    /// Conflict cleanup for a `BEGIN CONCURRENT` loser: the device and
    /// file system have already rolled the transaction back, so only the
    /// pager's own state needs unwinding. Maps the device error to
    /// [`DbError::Conflict`]; any other error passes through untouched.
    fn unwind_conflict(&mut self, e: DbError) -> Result<DbError> {
        let snapshot = self.off_tx().is_ok_and(|tx| tx.snapshot.is_some());
        if !(snapshot && e == DbError::Fs(FsError::Dev(xftl_ftl::DevError::Conflict))) {
            return Ok(e);
        }
        self.drop_dirty_cache();
        self.end_tx();
        self.load_header()?;
        Ok(DbError::Conflict)
    }

    /// Rolls the open transaction back.
    pub fn rollback(&mut self) -> Result<()> {
        if !self.in_tx() {
            return Err(DbError::TxState("no transaction active"));
        }
        self.drop_dirty_cache();
        match &mut self.journal {
            Journal::Rollback(..) => self.undo_from_journal()?,
            Journal::Wal(wal) => {
                // Frames spilled by this transaction are forgotten; index
                // entries they displaced come back, and the file tail is
                // rewound so the next transaction overwrites them.
                let frames = wal.tx_frames.as_mut().map(std::mem::take);
                for (pgno, prev) in frames.unwrap_or_default().into_iter().rev() {
                    match prev {
                        Some(off) => {
                            wal.index.insert(pgno, off);
                        }
                        None => {
                            wal.index.remove(&pgno);
                        }
                    }
                }
                wal.end = wal.last_commit_end;
            }
            Journal::Off(tx) => {
                if let Some(tx) = tx {
                    self.file.fs.borrow_mut().abort_tx(tx.tid)?;
                }
            }
        }
        self.page_count = self.tx_orig_page_count;
        self.load_header()?;
        self.end_tx();
        Ok(())
    }

    fn end_tx(&mut self) {
        match &mut self.journal {
            Journal::Rollback(_, tx) => *tx = None,
            Journal::Wal(wal) => wal.tx_frames = None,
            Journal::Off(tx) => {
                if tx.take().is_some_and(|tx| tx.snapshot.is_some()) {
                    // Pages fetched under the snapshot may trail commits
                    // made by other connections meanwhile; drop them so
                    // later reads refetch current state.
                    self.cache.clear();
                }
            }
        }
        self.dirty_in_tx.clear();
    }

    fn drop_dirty_cache(&mut self) {
        let dirty: Vec<PageNo> = std::mem::take(&mut self.dirty_in_tx).into_iter().collect();
        for pgno in dirty {
            self.cache.remove(&pgno);
        }
    }

    /// The journaled commit after the header write: a WAL appends the
    /// dirty pages as frames ending in a commit frame; a rollback journal
    /// forces the pages home and finalizes the journal.
    fn commit_journaled(&mut self) -> Result<()> {
        let Journal::Wal(wal) = &mut self.journal else {
            self.force_journaled_home()?;
            // Commit point: finalize the journal (delete / truncate / zero
            // per the mode), durably, so a stale journal can never roll the
            // transaction back after a crash.
            return self.finalize_journal();
        };
        let mut dirty: Vec<PageNo> = self.dirty_in_tx.iter().copied().collect();
        dirty.sort_unstable();
        let last = dirty.len().saturating_sub(1);
        for (i, &pgno) in dirty.iter().enumerate() {
            let commit_size = if i == last { self.page_count } else { 0 };
            let off = match self.cache.get_mut(&pgno) {
                Some(f) => {
                    f.dirty = false;
                    wal.append(&mut self.file, pgno, &f.data, commit_size)?
                }
                None => {
                    // A spilled page already has an (uncommitted) frame;
                    // re-read it so the final, commit-flagged frame
                    // sequence stays intact.
                    let data = self.file.read_page(pgno, Some(wal), None)?;
                    wal.append(&mut self.file, pgno, &data, commit_size)?
                }
            };
            wal.index.insert(pgno, off);
        }
        self.file.fs.borrow_mut().fsync(wal.ino, None)?;
        self.file.stats.fsyncs += 1;
        wal.last_commit_end = wal.end;
        if wal.frames >= self.wal_autocheckpoint {
            self.wal_checkpoint()?;
        }
        Ok(())
    }

    // --- rollback-journal protocol -------------------------------------------

    /// Copies the pre-transaction image of `pgno` into the rollback
    /// journal (once per page per transaction, *before* the page is
    /// modified). A no-op outside a rollback-journal transaction.
    fn journal_original(&mut self, pgno: PageNo) -> Result<()> {
        let Journal::Rollback(_, Some(tx)) = &mut self.journal else {
            return Ok(());
        };
        if self.dirty_in_tx.contains(&pgno)
            || tx.journaled_set.contains(&pgno)
            || pgno >= self.tx_orig_page_count
        {
            return Ok(()); // already saved, or the page is new in this tx
        }
        let original = match self.cache.get(&pgno) {
            Some(f) if !f.dirty => f.data.clone(),
            // Uncached: a dirty frame is in `dirty_in_tx`, checked above.
            _ => self.file.read_page(pgno, None, None)?,
        };
        let ino = match tx.ino {
            Some(ino) => ino,
            None => {
                // DELETE mode creates the journal per transaction (Figure
                // 1); TRUNCATE/PERSIST reuse the file left by the previous
                // commit. Only a missing file falls through to create — a
                // device failure must propagate, not silently spawn a
                // fresh journal.
                let name = self.file.journal_name();
                let existing = self.file.fs.borrow().open(&name);
                let ino = match existing {
                    Ok(ino) => ino,
                    Err(FsError::NotFound) => self.file.fs.borrow_mut().create(&name)?,
                    Err(e) => return Err(e.into()),
                };
                // Header placeholder (record count 0) fills the first page.
                let hdr = tx.header(self.file.page_size, self.tx_orig_page_count, 0);
                self.file.fs.borrow_mut().write(ino, 0, &hdr, None)?;
                self.file.stats.journal_writes += 1;
                tx.ino = Some(ino);
                ino
            }
        };
        let off = (1 + tx.journaled.len() as u64) * self.file.page_size as u64;
        self.file.fs.borrow_mut().write(ino, off, &original, None)?;
        self.file.stats.journal_writes += 1;
        tx.journaled.push(pgno);
        tx.journaled_set.insert(pgno);
        Ok(())
    }

    /// Syncs the rollback journal so far (records + header), if one is
    /// open. Needed before any uncommitted page may spill to the DB file,
    /// and at commit.
    fn sync_journal(&mut self) -> Result<()> {
        let Journal::Rollback(_, Some(tx)) = &mut self.journal else {
            return Ok(());
        };
        let Some(ino) = tx.ino else {
            return Ok(());
        };
        // fsync #1: the record pages.
        self.file.fs.borrow_mut().fsync(ino, None)?;
        self.file.stats.fsyncs += 1;
        // Header with the final record count, then fsync #2.
        let records = tx.journaled.len() as u32;
        let hdr = tx.header(self.file.page_size, self.tx_orig_page_count, records);
        self.file.fs.borrow_mut().write(ino, 0, &hdr, None)?;
        self.file.stats.journal_writes += 1;
        self.file.fs.borrow_mut().fsync(ino, None)?;
        self.file.stats.fsyncs += 1;
        tx.synced_records = records;
        Ok(())
    }

    /// The rollback-journal commit up to its commit point: syncs the
    /// journal, then forces every dirty page to the database file.
    fn force_journaled_home(&mut self) -> Result<()> {
        self.sync_journal()?;
        self.write_dirty_home(None)?;
        self.file.sync()
    }

    /// Takes the open transaction's journal file, with how to finalize it.
    fn take_journal_file(&mut self) -> Option<(Finalize, Ino)> {
        match &mut self.journal {
            Journal::Rollback(how, Some(tx)) => Some((*how, tx.ino.take()?)),
            _ => None,
        }
    }

    /// Finalizes the open transaction's journal, if it has one.
    fn finalize_journal(&mut self) -> Result<()> {
        match self.take_journal_file() {
            Some((how, ino)) => self.file.finalize_journal(how, ino),
            None => Ok(()),
        }
    }

    /// Force-writes the transaction's cached dirty pages to the database
    /// file in page order, straight from their cache frames. Pages spilled
    /// under cache pressure are already home (under `tid` in `Off` mode).
    fn write_dirty_home(&mut self, tid: Option<Tid>) -> Result<()> {
        let mut dirty: Vec<PageNo> = self.dirty_in_tx.iter().copied().collect();
        dirty.sort_unstable();
        for pgno in dirty {
            let Some(frame) = self.cache.get_mut(&pgno) else {
                continue;
            };
            frame.dirty = false;
            self.file.write_page(pgno, &frame.data, tid)?;
        }
        Ok(())
    }

    /// Undoes spilled pages from the rollback journal, if one is open.
    fn undo_from_journal(&mut self) -> Result<()> {
        let Journal::Rollback(
            _,
            Some(RollbackTx {
                ino: Some(ino),
                journaled,
                ..
            }),
        ) = &self.journal
        else {
            return Ok(());
        };
        // Only records already synced could have mattered; restoring all
        // journaled originals is always safe.
        for (i, &pgno) in journaled.iter().enumerate() {
            let mut buf = vec![0u8; self.file.page_size];
            let off = (1 + i as u64) * self.file.page_size as u64;
            self.file.fs.borrow_mut().read(*ino, off, &mut buf, None)?;
            self.file.write_page(pgno, &buf, None)?;
        }
        self.file.sync()?;
        self.finalize_journal()
    }

    /// Open-time hot-journal recovery (§6.4: copy originals back, delete
    /// the journal).
    fn recover_hot_journal(&mut self, how: Finalize) -> Result<()> {
        let jname = self.file.journal_name();
        let Ok(ino) = self.file.fs.borrow().open(&jname) else {
            return Ok(());
        };
        let mut hdr = vec![0u8; self.file.page_size];
        let n = self.file.fs.borrow_mut().read(ino, 0, &mut hdr, None)?;
        let valid = n == self.file.page_size && get_u64(&hdr, 0) == RJ_MAGIC;
        if valid {
            // A journal naming a master is hot only while the master file
            // exists; a missing master means the group transaction already
            // committed (the master's deletion is the group commit point).
            if let Some(master) = decode_master_name(&hdr) {
                if !self.file.fs.borrow().exists(&master) {
                    return self.file.finalize_journal(Finalize::Delete, ino);
                }
            }
            let records = get_u32(&hdr, 8);
            for i in 0..records {
                let pgno = get_u32(&hdr, 16 + (i as usize) * 4);
                let mut buf = vec![0u8; self.file.page_size];
                let foff = (1 + i as u64) * self.file.page_size as u64;
                self.file.fs.borrow_mut().read(ino, foff, &mut buf, None)?;
                self.file.write_page(pgno, &buf, None)?;
            }
            if records > 0 {
                self.file.sync()?;
            }
        }
        self.file.finalize_journal(how, ino)
    }

    // --- WAL protocol ---------------------------------------------------------

    /// Opens (or creates) the WAL and rebuilds the in-RAM index from the
    /// committed frames (§6.4's WAL recovery path when the file is found
    /// after a crash).
    fn wal_open(&mut self) -> Result<Wal> {
        let fs = &self.file.fs;
        let wname = format!("{}-wal", self.file.name);
        let exists = fs.borrow().exists(&wname);
        let ino = if exists {
            fs.borrow().open(&wname)?
        } else {
            let ino = fs.borrow_mut().create(&wname)?;
            let mut hdr = vec![0u8; WAL_FRAME_HDR as usize];
            hdr[0..8].copy_from_slice(&WAL_MAGIC.to_le_bytes());
            fs.borrow_mut().write(ino, 0, &hdr, None)?;
            ino
        };
        let mut wal = Wal {
            ino,
            index: HashMap::new(),
            end: WAL_FRAME_HDR,
            frames: 0,
            last_commit_end: WAL_FRAME_HDR,
            tx_frames: None,
        };
        if !exists {
            return Ok(wal);
        }
        // Scan committed frames.
        let size = fs.borrow().size(ino)?;
        let frame_len = WAL_FRAME_HDR + self.file.page_size as u64;
        let mut off = WAL_FRAME_HDR;
        let mut pending: Vec<(PageNo, u64)> = Vec::new();
        while off + frame_len <= size {
            let mut fh = vec![0u8; WAL_FRAME_HDR as usize];
            fs.borrow_mut().read(ino, off, &mut fh, None)?;
            let pgno = get_u32(&fh, 0);
            let commit_size = get_u32(&fh, 4);
            let magic_ok = get_u64(&fh, 8) == WAL_MAGIC;
            if !magic_ok {
                break;
            }
            pending.push((pgno, off + WAL_FRAME_HDR));
            wal.frames += 1;
            off += frame_len;
            if commit_size != 0 {
                // Commit frame: everything pending becomes visible.
                for (p, o) in pending.drain(..) {
                    wal.index.insert(p, o);
                }
                self.page_count = self.page_count.max(commit_size);
                wal.end = off;
                wal.last_commit_end = off;
            }
        }
        Ok(wal)
    }

    /// Copies the newest version of every WAL-resident page into the
    /// database file and resets the log (SQLite's checkpoint). A no-op in
    /// the other journal modes.
    pub fn wal_checkpoint(&mut self) -> Result<()> {
        let Journal::Wal(wal) = &mut self.journal else {
            return Ok(());
        };
        if wal.index.is_empty() {
            return Ok(());
        }
        self.file.stats.checkpoints += 1;
        let mut entries: Vec<(PageNo, u64)> = wal.index.iter().map(|(&p, &o)| (p, o)).collect();
        entries.sort_unstable();
        for (pgno, off) in entries {
            let mut buf = vec![0u8; self.file.page_size];
            self.file
                .fs
                .borrow_mut()
                .read(wal.ino, off, &mut buf, None)?;
            self.file.write_page(pgno, &buf, None)?;
        }
        self.file.sync()?;
        self.file.fs.borrow_mut().truncate(wal.ino, WAL_FRAME_HDR)?;
        wal.index.clear();
        wal.frames = 0;
        wal.end = WAL_FRAME_HDR;
        wal.last_commit_end = WAL_FRAME_HDR;
        Ok(())
    }

    // --- Off (X-FTL) protocol ---------------------------------------------------

    /// The open `Off`-mode transaction.
    fn off_tx(&self) -> Result<OffTx> {
        match self.journal {
            Journal::Off(Some(tx)) => Ok(tx),
            _ => Err(DbError::TxState("no Off-mode transaction active")),
        }
    }

    /// The `Off`-mode commit shared by the blocking, split-phase and
    /// deferred (multi-file) commits: force-writes the header and the
    /// dirty pages under the transaction's tid, then `sync` hands the file
    /// to the file system — `fsync(tid)`, `fsync_submit` or
    /// `fsync_defer_commit`.
    fn force_write_off<T>(
        &mut self,
        sync: impl FnOnce(&mut FileSystem<D>, Ino, Tid) -> xftl_fs::Result<T>,
    ) -> Result<T> {
        let tx = self.off_tx()?;
        // A snapshot transaction skips the header force-write when nothing
        // in it changed: otherwise every pair of writers would collide on
        // page 0 and first-committer-wins would serialize them all. (Real
        // `BEGIN CONCURRENT` has the same page-1 hotspot.)
        if tx.snapshot != Some(self.header_fields()) {
            self.write_header()?;
        }
        self.write_dirty_home(Some(tx.tid))?;
        let out = sync(&mut self.file.fs.borrow_mut(), self.file.ino, tx.tid)?;
        self.file.stats.fsyncs += 1;
        Ok(out)
    }

    /// Split-phase commit. In `Off` mode the force-write ends with a
    /// `commit_submit` instead of the blocking commit: the transaction is
    /// visible once this returns, and the ticket names the device group
    /// flush that will make it durable. The caller keeps issuing the next
    /// transaction's writes while this one's commit is in flight, redeeming
    /// tickets with [`Pager::commit_wait`] (a queue-depth > 1 commit
    /// pipeline). Journal modes have no split phase — they commit blocking
    /// here and hand back an already-durable ticket.
    pub fn commit_submit(&mut self) -> Result<CommitTicket> {
        if !matches!(self.journal, Journal::Off(_)) {
            self.commit()?;
            return Ok(CommitTicket::immediate(0));
        }
        let ticket = self.run_commit(|pager| pager.force_write_off(FileSystem::fsync_submit))?;
        Ok(ticket.unwrap_or(CommitTicket::immediate(0)))
    }

    /// Blocks until the commit named by `ticket` is durable. Tickets from
    /// the journal-mode fallback (or an empty transaction) are already
    /// durable and return immediately.
    pub fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        if ticket.is_immediate() {
            return Ok(());
        }
        self.file.fs.borrow_mut().fsync_wait(ticket)?;
        Ok(())
    }

    // --- multi-file transactions (§4.3) ---------------------------------------

    /// Name of this database's rollback journal file.
    pub fn journal_file_name(&self) -> String {
        self.file.journal_name()
    }

    /// Journal mode of this pager.
    pub fn mode(&self) -> DbJournalMode {
        match self.journal {
            Journal::Rollback(Finalize::Delete, _) => DbJournalMode::Rollback,
            Journal::Rollback(Finalize::Truncate, _) => DbJournalMode::RollbackTruncate,
            Journal::Rollback(Finalize::Persist, _) => DbJournalMode::RollbackPersist,
            Journal::Wal(_) => DbJournalMode::Wal,
            Journal::Off(_) => DbJournalMode::Off,
        }
    }

    /// The device transaction id of the open transaction (Off mode).
    pub fn current_tid(&self) -> Option<Tid> {
        self.off_tx().ok().map(|tx| tx.tid)
    }

    /// Begins a transaction that shares `tid` with other databases on the
    /// same file system (`Off` mode only): all of their updates commit
    /// atomically with one device `commit(tid)`.
    pub fn begin_with_tid(&mut self, tid: Tid) -> Result<()> {
        let Journal::Off(tx) = &mut self.journal else {
            return Err(DbError::TxState("shared-tid transactions need Off mode"));
        };
        if tx.is_some() {
            return Err(DbError::TxState("transaction already active"));
        }
        *tx = Some(OffTx {
            tid,
            snapshot: None,
        });
        self.tx_orig_page_count = self.page_count;
        Ok(())
    }

    /// Multi-file commit, `Off` mode: flushes this database's pages under
    /// the shared tid without the device commit (the coordinator issues it
    /// once for the whole group).
    pub fn commit_off_deferred(&mut self) -> Result<()> {
        if !self.in_tx() {
            return Err(DbError::TxState("no transaction active"));
        }
        self.force_write_off(FileSystem::fsync_defer_commit)?;
        self.end_tx();
        Ok(())
    }

    /// Multi-file commit, rollback mode, phase 1: records the master
    /// journal name in this database's journal header, syncs the journal,
    /// and force-writes the database pages — but keeps the journal, so the
    /// transaction stays revocable until the master is deleted.
    pub fn master_commit_prepare(&mut self, master: &str) -> Result<()> {
        match &mut self.journal {
            Journal::Rollback(_, Some(tx)) => tx.master_name = Some(master.to_string()),
            Journal::Rollback(_, None) => return Err(DbError::TxState("no transaction active")),
            _ => return Err(DbError::TxState("master journals need rollback mode")),
        }
        // The header write journals page 0, so every participant has a
        // journal to name the master in.
        self.write_header()?;
        self.force_journaled_home()
    }

    /// Multi-file commit, rollback mode, phase 2 (after the master journal
    /// has been deleted): removes this database's journal and ends the
    /// transaction.
    pub fn master_commit_cleanup(&mut self) -> Result<()> {
        if let Some((_, ino)) = self.take_journal_file() {
            self.file.finalize_journal(Finalize::Delete, ino)?;
        }
        self.end_tx();
        Ok(())
    }

    // --- page access ---------------------------------------------------------

    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Reads a page bypassing the pager cache (recovery paths): the open
    /// WAL's newest frame, else the database file under the `Off`-mode
    /// tid.
    fn read_page_raw(&mut self, pgno: PageNo) -> Result<Vec<u8>> {
        let (wal, tid) = match &self.journal {
            Journal::Wal(wal) => (Some(wal), None),
            Journal::Off(tx) => (None, tx.map(|tx| tx.tid)),
            Journal::Rollback(..) => (None, None),
        };
        self.file.read_page(pgno, wal, tid)
    }
    /// Runs `f` on page `pgno` where it sits in the cache, fetching it on
    /// a miss. Counts as one access for LRU order.
    pub fn with_page<R>(&mut self, pgno: PageNo, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        if let Some(frame) = self.cache.get_mut(&pgno) {
            self.tick += 1;
            frame.tick = self.tick;
            return Ok(f(&frame.data));
        }
        let data = self.read_page_raw(pgno)?;
        let out = f(&data);
        let tick = self.touch();
        self.cache.insert(
            pgno,
            Frame {
                data,
                dirty: false,
                tick,
            },
        );
        self.evict_if_needed()?;
        Ok(out)
    }

    /// Modifies page `pgno` in place (transaction required): the write
    /// counterpart of [`Pager::with_page`], with exactly the journaling,
    /// dirty marking and LRU effect of a [`Pager::put`] of the patched
    /// page. Meant for a page the caller has just read; if it has left the
    /// cache since, its image comes from the eviction stash of
    /// [`Pager::retaining_evicted`], or failing that from storage.
    pub fn with_page_mut<R>(&mut self, pgno: PageNo, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        if !self.in_tx() {
            return Err(DbError::TxState("page write outside a transaction"));
        }
        self.journal_original(pgno)?;
        let image = if self.cache.contains_key(&pgno) {
            None
        } else {
            Some(self.evicted_image(pgno)?)
        };
        let tick = self.touch();
        let frame = self.cache.entry(pgno).or_insert_with(|| Frame {
            data: image.unwrap_or_default(),
            dirty: true,
            tick,
        });
        frame.dirty = true;
        frame.tick = tick;
        let out = f(&mut frame.data);
        self.dirty_in_tx.insert(pgno);
        self.evict_if_needed()?;
        Ok(out)
    }

    /// Runs `f` on the current image of page `pgno` without counting an
    /// access: for a B-tree operation returning to a page it read on the
    /// way down. Served from the cache or the eviction stash; storage is
    /// read only if the page was never seen.
    pub(crate) fn peek<R>(&mut self, pgno: PageNo, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        if let Some(frame) = self.cache.get(&pgno) {
            return Ok(f(&frame.data));
        }
        if let Some(data) = self.evicted.as_ref().and_then(|m| m.get(&pgno)) {
            return Ok(f(data));
        }
        let data = self.read_page_raw(pgno)?;
        Ok(f(&data))
    }

    /// Takes the stashed image of an evicted page, or reads it.
    fn evicted_image(&mut self, pgno: PageNo) -> Result<Vec<u8>> {
        match self.evicted.as_mut().and_then(|m| m.remove(&pgno)) {
            Some(data) => Ok(data),
            None => self.read_page_raw(pgno),
        }
    }

    /// Runs one B-tree operation with evicted frames stashed instead of
    /// dropped, so [`Pager::peek`] and [`Pager::with_page_mut`] can return
    /// to a page read earlier in the operation without an I/O the
    /// operation would not otherwise issue. Eviction order is unchanged;
    /// the stash is dropped when `op` returns.
    pub(crate) fn retaining_evicted<R>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<R>,
    ) -> Result<R> {
        if self.evicted.is_some() {
            return op(self);
        }
        self.evicted = Some(HashMap::new());
        let out = op(self);
        self.evicted = None;
        out
    }

    /// Writes page `pgno` whole (transaction required; `data` must be one
    /// page long). In rollback mode the original is journaled first.
    pub fn put(&mut self, pgno: PageNo, data: Vec<u8>) -> Result<()> {
        if data.len() != self.file.page_size {
            return Err(DbError::Corrupt("page image is not one page long"));
        }
        if !self.in_tx() {
            return Err(DbError::TxState("page write outside a transaction"));
        }
        self.journal_original(pgno)?;
        let tick = self.touch();
        self.cache.insert(
            pgno,
            Frame {
                data,
                dirty: true,
                tick,
            },
        );
        self.dirty_in_tx.insert(pgno);
        self.evict_if_needed()?;
        Ok(())
    }

    /// Allocates a page (freelist first, then file growth).
    pub fn alloc_page(&mut self) -> Result<PageNo> {
        if self.freelist_head != 0 {
            let pgno = self.freelist_head;
            self.freelist_head = self.with_page(pgno, |page| get_u32(page, 0))?;
            self.write_header()?;
            return Ok(pgno);
        }
        let pgno = self.page_count;
        self.page_count += 1;
        self.write_header()?;
        // Materialize the new page so reads within the tx see zeros.
        self.put(pgno, vec![0u8; self.file.page_size])?;
        Ok(pgno)
    }

    /// Returns a page to the freelist.
    pub fn free_page(&mut self, pgno: PageNo) -> Result<()> {
        let mut page = vec![0u8; self.file.page_size];
        page[0..4].copy_from_slice(&self.freelist_head.to_le_bytes());
        self.put(pgno, page)?;
        self.freelist_head = pgno;
        self.write_header()
    }

    /// Number of pages in the database file.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    fn evict_if_needed(&mut self) -> Result<()> {
        while self.cache.len() > self.cache_cap {
            // Prefer clean victims, then the least recently used.
            let victim = self
                .cache
                .iter()
                .min_by_key(|(_, f)| (f.dirty, f.tick))
                .map(|(&p, _)| p);
            let Some((pgno, frame)) = victim.and_then(|p| self.cache.remove_entry(&p)) else {
                break;
            };
            if frame.dirty {
                self.spill(pgno, &frame.data)?;
            }
            if let Some(stash) = self.evicted.as_mut() {
                stash.insert(pgno, frame.data);
            }
        }
        Ok(())
    }

    /// Steal: writes an uncommitted page out of the cache early.
    fn spill(&mut self, pgno: PageNo, data: &[u8]) -> Result<()> {
        self.file.stats.spills += 1;
        match &mut self.journal {
            Journal::Rollback(_, tx) => {
                // The original must be durably journaled before the DB
                // file may be overwritten.
                if tx
                    .as_ref()
                    .is_some_and(|tx| (tx.synced_records as usize) < tx.journaled.len())
                {
                    self.sync_journal()?;
                }
                self.file.write_page(pgno, data, None)?;
            }
            Journal::Wal(wal) => {
                let off = wal.append(&mut self.file, pgno, data, 0)?;
                let prev = wal.index.insert(pgno, off);
                if let Some(frames) = wal.tx_frames.as_mut() {
                    frames.push((pgno, prev));
                }
            }
            Journal::Off(tx) => {
                let tid = tx.map(|tx| tx.tid);
                self.file.write_page(pgno, data, tid)?;
            }
        }
        Ok(())
    }

    /// Shrinks the pager cache (tests exercise the steal path with this).
    pub fn set_cache_capacity(&mut self, pages: usize) {
        self.cache_cap = pages.max(4);
    }
}
