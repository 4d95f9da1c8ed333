//! The SQL workloads: the paper's partsupp table driven through
//! `db::Connection`, in X-FTL mode (`sql_update_xftl`) or WAL mode
//! (`sql_mix_wal`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xftl_core::XFtl;
use xftl_db::{Connection, DbJournalMode, SharedFs, Value};
use xftl_flash::{FlashChip, FlashConfigBuilder, SimClock};
use xftl_fs::{FileSystem, FsConfig, JournalMode};
use xftl_ftl::{BlockDevice, LinkConfig, PageMappedFtl};
use xftl_trace::Telemetry;
use xftl_workloads::synthetic::{load_partsupply, SyntheticConfig};
use xftl_workloads::tpcc::CPU_STMT_NS;

use crate::measure::{Ack, Counters, Failure, Kind, Recovery, Workload};
use crate::stack::{self, Dev, DevSpec, Personality};
use crate::timed::{host_ns, host_origin, CutAt, DbTrace, TraceSwitch};

/// Flash blocks of the device.
const BLOCKS: usize = 64;

/// Point read-modify-writes per update transaction (the paper's five).
const UPDATES_PER_TXN: usize = 5;

const DB_NAME: &str = "partsupp.db";

/// How a personality's file system and database are set up: X-FTL runs
/// with file-system and SQLite journaling off, the page-mapping FTL under
/// ext4-ordered journaling and SQLite's WAL.
pub trait SqlStack: Personality {
    const DB_MODE: DbJournalMode;
    /// Where the power cut lands in a commit.
    const CUT_AT: CutAt;
    fn mkfs(dev: Dev<Self>, cfg: FsConfig) -> xftl_fs::Result<FileSystem<Dev<Self>>>;
    fn mount(dev: Dev<Self>, cache_pages: usize) -> xftl_fs::Result<FileSystem<Dev<Self>>>;
}

impl SqlStack for XFtl {
    const DB_MODE: DbJournalMode = DbJournalMode::Off;
    const CUT_AT: CutAt = CutAt::Commit;
    fn mkfs(dev: Dev<Self>, cfg: FsConfig) -> xftl_fs::Result<FileSystem<Dev<Self>>> {
        FileSystem::mkfs_tx(dev, JournalMode::Off, cfg)
    }
    fn mount(dev: Dev<Self>, cache_pages: usize) -> xftl_fs::Result<FileSystem<Dev<Self>>> {
        FileSystem::mount_tx(dev, JournalMode::Off, cache_pages)
    }
}

impl SqlStack for PageMappedFtl {
    const DB_MODE: DbJournalMode = DbJournalMode::Wal;
    const CUT_AT: CutAt = CutAt::Flush;
    fn mkfs(dev: Dev<Self>, cfg: FsConfig) -> xftl_fs::Result<FileSystem<Dev<Self>>> {
        FileSystem::mkfs(dev, JournalMode::Ordered, cfg)
    }
    fn mount(dev: Dev<Self>, cache_pages: usize) -> xftl_fs::Result<FileSystem<Dev<Self>>> {
        FileSystem::mount(dev, JournalMode::Ordered, cache_pages)
    }
}

/// Sizes of a SQL workload.
#[derive(Debug, Clone, Copy)]
pub struct SqlScale {
    pub logical_pages: u64,
    /// Share of the logical space filled with cold data before mkfs.
    pub cold_fill: f64,
    pub fs_cache_pages: usize,
    pub tuples: usize,
    /// Share of transactions that are read-only range scans.
    pub read_share: f64,
    pub scan_rows: usize,
}

impl SqlScale {
    pub fn spec(&self) -> DevSpec {
        DevSpec {
            flash: FlashConfigBuilder::openssd().blocks(BLOCKS).build(),
            link: LinkConfig::SATA2,
            logical_pages: self.logical_pages,
            map_budget: None,
        }
    }

    fn fs_config(&self) -> FsConfig {
        FsConfig {
            inode_count: 256,
            journal_pages: 256,
            cache_pages: self.fs_cache_pages,
        }
    }
}

/// The cut: the flash image, the acknowledged table, and the writes of
/// the transaction whose commit was in flight.
#[derive(Debug)]
struct Cut {
    image: FlashChip,
    acked: Vec<f64>,
    in_flight: BTreeMap<i64, f64>,
}

pub struct SqlWorkload<F: SqlStack> {
    scale: SqlScale,
    clock: SimClock,
    switch: TraceSwitch,
    fs: SharedFs<Dev<F>>,
    conn: Connection<Dev<F>>,
    rng: StdRng,
    /// `ps_supplycost` of every row as of the last acknowledged commit,
    /// indexed by `ps_id` (slot 0 unused).
    model: Vec<f64>,
    db: DbTrace,
    issued: u64,
    mismatches: u64,
    cut_armed: bool,
    cut: Option<Cut>,
}

impl<F: SqlStack> SqlWorkload<F> {
    /// Formats and ages the device, makes the file system and loads the
    /// table, reading it back once to seed the model.
    pub fn build(scale: SqlScale, seed: u64, switch: &TraceSwitch) -> Result<Self, Failure> {
        let clock = SimClock::new();
        let spec = scale.spec();
        let mut dev = stack::format::<F>(&spec, &clock, switch)?;
        // Cold data at the top of the logical space, which the file system
        // allocates last: it stays valid and sets the GC victims' validity.
        let ps = dev.page_size();
        let cold = (scale.logical_pages as f64 * scale.cold_fill) as u64;
        for lpn in scale.logical_pages - cold..scale.logical_pages {
            dev.write(lpn, &vec![lpn as u8; ps])?;
        }
        dev.flush()?;
        let mut fs = F::mkfs(dev, scale.fs_config())?;
        let telemetry = stack::telemetry(fs.device());
        fs.set_recorder(clock.clone(), telemetry.clone());
        let fs = Rc::new(RefCell::new(fs));
        let mut conn = Connection::open(Rc::clone(&fs), DB_NAME, F::DB_MODE)?;
        conn.set_recorder(clock.clone(), telemetry);
        let cfg = SyntheticConfig {
            tuples: scale.tuples,
            tuple_bytes: 220,
            updates_per_txn: UPDATES_PER_TXN,
            txns: 0,
            seed,
        };
        load_partsupply(&mut conn, &cfg)?;
        let mut model = vec![0.0; scale.tuples + 1];
        let rows = conn.query("SELECT ps_id, ps_supplycost FROM partsupp")?;
        if rows.len() != scale.tuples {
            return Err(Failure(format!(
                "loaded {} of {} rows",
                rows.len(),
                scale.tuples
            )));
        }
        for (i, row) in rows.iter().enumerate() {
            match (row.first(), row.get(1).and_then(Value::as_f64)) {
                (Some(&Value::Int(id)), Some(cost)) if id == i as i64 + 1 => {
                    model[i + 1] = cost;
                }
                _ => return Err(Failure(format!("unexpected row {row:?}"))),
            }
        }
        Ok(SqlWorkload {
            scale,
            clock,
            switch: switch.clone(),
            fs,
            conn,
            rng: StdRng::seed_from_u64(seed ^ 0x5851_F42D),
            model,
            db: DbTrace::default(),
            issued: 0,
            mismatches: 0,
            cut_armed: false,
            cut: None,
        })
    }

    /// Host time of the device wrapper so far (traced spans only).
    fn dev_host_ns(&self) -> u64 {
        self.fs.borrow().device().trace().host_ns
    }

    /// Runs one statement after charging its simulated CPU time, as the
    /// synthetic workload does.
    fn execute(&mut self, sql: &str, params: &[Value]) -> xftl_db::Result<Vec<Vec<Value>>> {
        self.clock.advance(CPU_STMT_NS);
        if !self.switch.is_on() {
            return self.conn.query_with(sql, params);
        }
        let d0 = self.dev_host_ns();
        let h0 = self.switch.now();
        let out = self.conn.query_with(sql, params);
        self.db.host_ns += self.switch.now() - h0;
        self.db.nested_dev_ns += self.dev_host_ns() - d0;
        out
    }

    fn cost_of(row: Option<&Vec<Value>>) -> Option<f64> {
        row.and_then(|r| r.last()).and_then(Value::as_f64)
    }

    /// Five point read-modify-writes of `ps_supplycost`, then COMMIT.
    fn update_txn(&mut self, n: u64) -> Result<Ack, Failure> {
        let start = self.clock.now();
        self.execute("BEGIN", &[])?;
        let mut writes: BTreeMap<i64, f64> = BTreeMap::new();
        let mut read_ns = 0;
        for _ in 0..UPDATES_PER_TXN {
            let key = self.rng.gen_range(1..=self.scale.tuples as i64);
            let r0 = self.clock.now();
            let rows = self.execute(
                "SELECT ps_supplycost FROM partsupp WHERE ps_id = ?",
                &[Value::Int(key)],
            )?;
            read_ns += self.clock.now() - r0;
            let expect = writes
                .get(&key)
                .copied()
                .unwrap_or(self.model[key as usize]);
            if rows.len() != 1 || Self::cost_of(rows.first()) != Some(expect) {
                self.mismatches += 1;
            }
            let cost = (expect + 1.0) % 1_000.0;
            self.execute(
                "UPDATE partsupp SET ps_supplycost = ? WHERE ps_id = ?",
                &[Value::Real(cost), Value::Int(key)],
            )?;
            writes.insert(key, cost);
        }
        let armed = std::mem::take(&mut self.cut_armed);
        let acked = armed.then(|| self.model.clone());
        if armed {
            self.fs.borrow_mut().device_mut().arm_cut(F::CUT_AT);
        }
        self.execute("COMMIT", &[])?;
        if let Some(acked) = acked {
            let image = self
                .fs
                .borrow_mut()
                .device_mut()
                .take_image()
                .ok_or_else(|| Failure("the commit reached no power-cut point".into()))?;
            self.cut = Some(Cut {
                image,
                acked,
                in_flight: writes.clone(),
            });
        }
        for (key, cost) in writes {
            self.model[key as usize] = cost;
        }
        Ok(Ack {
            n,
            kind: Kind::Update,
            sim_ns: self.clock.now() - start,
            read_sim_ns: (self.scale.read_share == 0.0).then_some(read_ns),
        })
    }

    /// A read-only range scan of `scan_rows` consecutive rows.
    fn scan_txn(&mut self, n: u64) -> Result<Ack, Failure> {
        let len = self.scale.scan_rows as i64;
        let lo = self
            .rng
            .gen_range(1..=(self.scale.tuples as i64 - len + 1).max(1));
        let hi = lo + len - 1;
        let start = self.clock.now();
        self.execute("BEGIN", &[])?;
        let rows = self.execute(
            "SELECT ps_id, ps_supplycost FROM partsupp WHERE ps_id >= ? AND ps_id <= ?",
            &[Value::Int(lo), Value::Int(hi)],
        )?;
        self.execute("COMMIT", &[])?;
        let ok = rows.len() as i64 == hi - lo + 1
            && rows.iter().zip(lo..).all(|(row, id)| {
                row.first() == Some(&Value::Int(id))
                    && Self::cost_of(Some(row)) == Some(self.model[id as usize])
            });
        if !ok {
            self.mismatches += 1;
        }
        let sim_ns = self.clock.now() - start;
        Ok(Ack {
            n,
            kind: Kind::Read,
            sim_ns,
            read_sim_ns: Some(sim_ns),
        })
    }

    /// Corrupts one model entry, so a test can see the audit count it.
    #[cfg(test)]
    pub fn corrupt_model(&mut self, id: usize) {
        self.model[id] += 0.5;
    }
}

impl<F: SqlStack> Workload for SqlWorkload<F> {
    fn step(&mut self, acks: &mut Vec<Ack>) -> Result<Kind, Failure> {
        let n = self.issued;
        self.issued += 1;
        let read_only =
            self.scale.read_share > 0.0 && self.rng.gen_range(0.0..1.0) < self.scale.read_share;
        let ack = if read_only {
            self.scan_txn(n)?
        } else {
            self.update_txn(n)?
        };
        acks.push(ack);
        Ok(ack.kind)
    }

    fn issued(&self) -> u64 {
        self.issued
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }

    fn counters(&self) -> Counters {
        let fs = self.fs.borrow();
        Counters {
            ftl: stack::ftl_stats(fs.device()),
            flash: stack::flash_stats(fs.device()),
            fs: *fs.stats(),
            pager: *self.conn.pager_stats(),
            dev: fs.device().trace(),
            db: self.db,
            sim_ns: self.clock.now(),
            channels: stack::channels(fs.device()),
        }
    }

    fn telemetry(&self) -> Telemetry {
        stack::telemetry(self.fs.borrow().device())
    }

    fn switch(&self) -> &TraceSwitch {
        &self.switch
    }

    fn arm_cut(&mut self) {
        self.cut_armed = true;
    }

    fn audit_size(&self) -> u64 {
        self.scale.tuples as u64
    }

    /// Recovers the FTL from the cut, mounts the file system, opens the
    /// database, and scans the whole table. Every row must hold its
    /// acknowledged value, except that the in-flight transaction may have
    /// landed, whole or not at all.
    fn recover_cut(&mut self) -> Result<Option<Recovery>, Failure> {
        let Some(cut) = self.cut.take() else {
            return Ok(None);
        };
        let origin = host_origin();
        let t0 = self.clock.now();
        let dev = stack::recover::<F>(cut.image, &self.scale.spec(), &self.clock, &self.switch)
            .map_err(|e| Failure::from(e).at("FTL recover"))?;
        let (t1, h1) = (self.clock.now(), host_ns(origin));
        let telemetry = stack::telemetry(&dev);
        let mut fs = F::mount(dev, self.scale.fs_cache_pages)
            .map_err(|e| Failure::from(e).at("FS mount"))?;
        fs.set_recorder(self.clock.clone(), telemetry.clone());
        let fs = Rc::new(RefCell::new(fs));
        let (t2, h2) = (self.clock.now(), host_ns(origin));
        let mut conn = Connection::open(Rc::clone(&fs), DB_NAME, F::DB_MODE)
            .map_err(|e| Failure::from(e).at("database open"))?;
        conn.set_recorder(self.clock.clone(), telemetry);
        let (t3, h3) = (self.clock.now(), host_ns(origin));
        let rows = conn
            .query("SELECT ps_id, ps_supplycost FROM partsupp")
            .map_err(|e| Failure::from(e).at("table scan"))?;
        let mut lost = self.scale.tuples.abs_diff(rows.len()) as u64;
        let (mut landed, mut missing) = (0u64, 0u64);
        for row in &rows {
            let (Some(&Value::Int(id)), Some(cost)) = (row.first(), Self::cost_of(Some(row)))
            else {
                lost += 1;
                continue;
            };
            let Some(&acked) = usize::try_from(id).ok().and_then(|i| cut.acked.get(i)) else {
                lost += 1;
                continue;
            };
            match cut.in_flight.get(&id) {
                Some(&new) if cost == new => landed += 1,
                Some(_) if cost == acked => missing += 1,
                None if cost == acked => {}
                _ => lost += 1,
            }
        }
        // All or nothing: a half-applied transaction loses the smaller part.
        lost += landed.min(missing);
        Ok(Some(Recovery {
            dev_sim_ns: t1 - t0,
            fs_sim_ns: t2 - t1,
            db_sim_ns: t3 - t2,
            dev_host_ns: h1,
            fs_host_ns: h2 - h1,
            db_host_ns: h3 - h2,
            audited: self.scale.tuples as u64,
            lost,
        }))
    }
}
