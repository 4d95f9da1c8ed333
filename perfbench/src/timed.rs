//! The benchmark's own spans: a host clock, a device wrapper that times
//! every call into the device layer, and a span timer for calls into the
//! database layer.
//!
//! Untraced, the wrapper counts calls and their simulated time; traced, it
//! also reads the host clock around each call. Device calls never nest
//! inside one another, so the summed span time is the device layer's time.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant; // xftl-analyze: allow(sim-clock): the benchmark measures host time by design

use xftl_flash::{FlashChip, Nanos, SimClock};
use xftl_ftl::{
    BlockDevice, CmdId, CommitTicket, DevCounters, IoCmd, Lpn, Result, Tid, TxBlockDevice,
};

/// Host nanoseconds since `origin`. The one place the benchmark reads the
/// host clock.
pub fn host_ns(origin: Instant) -> u64 {
    // xftl-analyze: allow(sim-clock): host time is the measurand of the host metrics
    let elapsed = Instant::now().duration_since(origin);
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// The host clock's origin for one process.
pub fn host_origin() -> Instant {
    Instant::now() // xftl-analyze: allow(sim-clock): origin of the host-time measurements
}

/// Whether spans are taken, shared by every timer of one stack.
#[derive(Debug, Clone)]
pub struct TraceSwitch {
    on: Rc<Cell<bool>>,
    origin: Instant,
}

impl TraceSwitch {
    pub fn new(origin: Instant) -> Self {
        TraceSwitch {
            on: Rc::new(Cell::new(false)),
            origin,
        }
    }

    pub fn set(&self, on: bool) {
        self.on.set(on);
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    pub fn now(&self) -> u64 {
        host_ns(self.origin)
    }
}

/// Calls and span totals of the device layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DevTrace {
    pub reads: u64,
    pub writes: u64,
    pub commits: u64,
    pub flushes: u64,
    /// Host time inside device calls, traced spans only.
    pub host_ns: u64,
    /// Simulated time inside device calls.
    pub sim_ns: Nanos,
    /// Simulated time inside `commit_wait` (or a blocking `commit`).
    pub commit_wait_sim_ns: Nanos,
}

impl std::ops::Sub for DevTrace {
    type Output = DevTrace;
    fn sub(self, o: DevTrace) -> DevTrace {
        DevTrace {
            reads: self.reads - o.reads,
            writes: self.writes - o.writes,
            commits: self.commits - o.commits,
            flushes: self.flushes - o.flushes,
            host_ns: self.host_ns - o.host_ns,
            sim_ns: self.sim_ns - o.sim_ns,
            commit_wait_sim_ns: self.commit_wait_sim_ns - o.commit_wait_sim_ns,
        }
    }
}

impl std::ops::Add for DevTrace {
    type Output = DevTrace;
    fn add(self, o: DevTrace) -> DevTrace {
        DevTrace {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            commits: self.commits + o.commits,
            flushes: self.flushes + o.flushes,
            host_ns: self.host_ns + o.host_ns,
            sim_ns: self.sim_ns + o.sim_ns,
            commit_wait_sim_ns: self.commit_wait_sim_ns + o.commit_wait_sim_ns,
        }
    }
}

/// Access to the flash array behind a device, for taking a power-cut image.
pub trait FlashImage {
    /// A copy of the flash array as it stands: what survives a power cut
    /// at this instant.
    fn flash_image(&self) -> FlashChip;
}

/// Where an armed power cut lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutAt {
    /// Just before the next device commit (`commit_submit` or `commit`):
    /// the transaction's pages are on flash, its commit is not.
    Commit,
    /// Just before the next device flush: the commit's writes are issued,
    /// the barrier that makes them durable is not.
    Flush,
}

/// A timing wrapper between the host-interface link and whatever drives
/// it (the file system, or the device workload's client loop).
#[derive(Debug)]
pub struct Timed<D> {
    inner: D,
    clock: SimClock,
    switch: TraceSwitch,
    trace: DevTrace,
    cut_at: Option<CutAt>,
    image: Option<FlashChip>,
}

impl<D> Timed<D> {
    pub fn new(inner: D, clock: SimClock, switch: TraceSwitch) -> Self {
        Timed {
            inner,
            clock,
            switch,
            trace: DevTrace::default(),
            cut_at: None,
            image: None,
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn trace(&self) -> DevTrace {
        self.trace
    }

    /// Arms a power cut at the next call of the given kind.
    pub fn arm_cut(&mut self, at: CutAt) {
        self.cut_at = Some(at);
    }

    /// The flash image an armed cut captured, if it has fired.
    pub fn take_image(&mut self) -> Option<FlashChip> {
        self.image.take()
    }

    /// Forwards one call. The simulated clock is read around every call;
    /// the host clock only while tracing.
    fn span<R>(&mut self, f: impl FnOnce(&mut D) -> R) -> R {
        let s0 = self.clock.now();
        let out = if self.switch.is_on() {
            let h0 = self.switch.now();
            let out = f(&mut self.inner);
            self.trace.host_ns += self.switch.now() - h0;
            out
        } else {
            f(&mut self.inner)
        };
        self.trace.sim_ns += self.clock.now() - s0;
        out
    }
}

impl<D: FlashImage> Timed<D> {
    fn maybe_cut(&mut self, at: CutAt) {
        if self.cut_at == Some(at) {
            self.cut_at = None;
            self.image = Some(self.inner.flash_image());
        }
    }
}

impl<D: BlockDevice + FlashImage> BlockDevice for Timed<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.trace.reads += 1;
        self.span(|d| d.read(lpn, buf))
    }

    fn write(&mut self, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.trace.writes += 1;
        self.span(|d| d.write(lpn, buf))
    }

    fn trim(&mut self, lpn: Lpn) -> Result<()> {
        self.span(|d| d.trim(lpn))
    }

    fn flush(&mut self) -> Result<()> {
        self.maybe_cut(CutAt::Flush);
        self.trace.flushes += 1;
        self.span(BlockDevice::flush)
    }

    fn counters(&self) -> DevCounters {
        self.inner.counters()
    }

    fn submit(&mut self, cmds: &[IoCmd<'_>]) -> Result<CmdId> {
        let writes = cmds
            .iter()
            .filter(|c| matches!(c, IoCmd::Write { .. }))
            .count();
        self.trace.writes += writes as u64;
        self.span(|d| d.submit(cmds))
    }

    fn complete_until(&mut self, barrier: CmdId) -> Result<()> {
        self.span(|d| d.complete_until(barrier))
    }
}

impl<D: TxBlockDevice + FlashImage> TxBlockDevice for Timed<D> {
    fn begin(&mut self, tid: Tid) -> Result<()> {
        self.span(|d| d.begin(tid))
    }

    fn read_tx(&mut self, tid: Tid, lpn: Lpn, buf: &mut [u8]) -> Result<()> {
        self.trace.reads += 1;
        self.span(|d| d.read_tx(tid, lpn, buf))
    }

    fn write_tx(&mut self, tid: Tid, lpn: Lpn, buf: &[u8]) -> Result<()> {
        self.trace.writes += 1;
        self.span(|d| d.write_tx(tid, lpn, buf))
    }

    fn commit_submit(&mut self, tid: Tid) -> Result<CommitTicket> {
        self.maybe_cut(CutAt::Commit);
        self.trace.commits += 1;
        self.span(|d| d.commit_submit(tid))
    }

    fn commit_wait(&mut self, ticket: CommitTicket) -> Result<()> {
        let s0 = self.trace.sim_ns;
        let out = self.span(|d| d.commit_wait(ticket));
        self.trace.commit_wait_sim_ns += self.trace.sim_ns - s0;
        out
    }

    fn commit(&mut self, tid: Tid) -> Result<()> {
        self.maybe_cut(CutAt::Commit);
        self.trace.commits += 1;
        // The blocking commit is submit and wait in one call; the host
        // waits for all of it.
        let s0 = self.trace.sim_ns;
        let out = self.span(|d| d.commit(tid));
        self.trace.commit_wait_sim_ns += self.trace.sim_ns - s0;
        out
    }

    fn abort(&mut self, tid: Tid) -> Result<()> {
        self.span(|d| d.abort(tid))
    }

    fn submit_tx(&mut self, tid: Tid, pages: &[(Lpn, &[u8])]) -> Result<CmdId> {
        self.trace.writes += pages.len() as u64;
        self.span(|d| d.submit_tx(tid, pages))
    }
}

/// Span timer for calls into the database layer. The device time those
/// calls contain is read off the device wrapper, so the database layer's
/// self time is its span time minus the nested device time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DbTrace {
    /// Host time inside `Connection` calls.
    pub host_ns: u64,
    /// Device host time nested inside those calls.
    pub nested_dev_ns: u64,
}

impl std::ops::Sub for DbTrace {
    type Output = DbTrace;
    fn sub(self, o: DbTrace) -> DbTrace {
        DbTrace {
            host_ns: self.host_ns - o.host_ns,
            nested_dev_ns: self.nested_dev_ns - o.nested_dev_ns,
        }
    }
}

impl std::ops::Add for DbTrace {
    type Output = DbTrace;
    fn add(self, o: DbTrace) -> DbTrace {
        DbTrace {
            host_ns: self.host_ns + o.host_ns,
            nested_dev_ns: self.nested_dev_ns + o.nested_dev_ns,
        }
    }
}

/// The CPUs this process may run on, and a way to move it between them.
///
/// On a virtual machine the CPUs need not run at one speed: a vCPU whose
/// physical core is shared runs everything slower. The harness therefore
/// measures host time on every allowed CPU in turn and averages the
/// per-CPU results, so a run measures the same thing wherever the
/// scheduler would have placed it. Moving uses the `taskset` utility;
/// where it is missing, nothing moves and every round counts as CPU 0.
#[derive(Debug, Clone)]
pub struct Cpus {
    list: Vec<usize>,
}

impl Cpus {
    /// The allowed CPUs, from `Cpus_allowed_list` in `/proc/self/status`.
    pub fn allowed() -> Self {
        let list = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|v| parse_cpu_list(v.trim()))
            })
            .filter(|l| !l.is_empty())
            .unwrap_or_else(|| vec![0]);
        Cpus { list }
    }

    pub fn count(&self) -> usize {
        self.list.len()
    }

    /// Moves this process onto the `i`-th allowed CPU (modulo their
    /// number) and returns the slot it measures under: `i % count`, or 0
    /// when the move failed.
    pub fn pin(&self, i: usize) -> usize {
        if self.list.len() < 2 {
            return 0;
        }
        let slot = i % self.list.len();
        let moved = std::process::Command::new("taskset")
            .args(["-p", "-c", &self.list[slot].to_string()])
            .arg(std::process::id().to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if moved {
            slot
        } else {
            0
        }
    }
}

/// Parses a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(s: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let mut ends = part.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => out.push(a),
            (Some(Ok(a)), Some(Ok(b))) if a <= b && b - a < 4096 => out.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    out
}

/// Host time of the warm calibration pass on the reference machine (a
/// 2-vCPU x86-64 VM at its usual speed).
pub const CAL_REF_NS: f64 = 1_200_000.0;

/// A fixed piece of host work resembling the simulator's: 8 KiB page
/// copies across an 8 MiB working set, plus ordered-map updates. It shares
/// no code with the program under test. Each sample runs the loop once
/// untimed and times a second pass, so the caches are warm with the
/// loop's own data and the time measures the CPU's speed rather than what
/// the program's last window left in the caches. Host times measured next
/// to it are scaled by `CAL_REF_NS / loop time`, so a machine that runs
/// slower for a while, from load elsewhere, reports about what it reports
/// when idle.
#[derive(Debug)]
pub struct Calibrator {
    origin: Instant,
    pages: Vec<u8>,
    map: std::collections::BTreeMap<u64, u64>,
    x: u64,
}

impl Calibrator {
    const WORKING_SET: usize = 8 << 20;
    const PAGE: usize = 8192;

    pub fn new(origin: Instant) -> Self {
        Calibrator {
            origin,
            pages: vec![1; Self::WORKING_SET],
            map: std::collections::BTreeMap::new(),
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs the loop twice and returns the host time of the second, warm
    /// pass in nanoseconds.
    pub fn sample(&mut self) -> u64 {
        self.pass();
        let t0 = host_ns(self.origin);
        self.pass();
        host_ns(self.origin) - t0
    }

    fn pass(&mut self) {
        let mut page = vec![0u8; Self::PAGE];
        let span = Self::WORKING_SET - Self::PAGE;
        for _ in 0..400 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let from = (self.x as usize % span) & !63;
            page.copy_from_slice(&self.pages[from..from + Self::PAGE]);
            page[0] = page[0].wrapping_add(1);
            let to = ((self.x >> 20) as usize % span) & !63;
            self.pages[to..to + Self::PAGE].copy_from_slice(&page);
            for k in 0..8 {
                let key = (self.x >> k) % 50_000;
                *self.map.entry(key).or_insert(0) += 1;
                if self.map.len() > 20_000 {
                    self.map.remove(&key);
                }
            }
        }
        std::hint::black_box(&page);
    }

    /// The factor that scales host times to the reference machine, from
    /// `n` fresh samples.
    pub fn speed(&mut self, n: usize) -> f64 {
        let total: u64 = (0..n.max(1)).map(|_| self.sample()).sum();
        speed_of(total as f64 / n.max(1) as f64)
    }
}

/// The factor that scales host times to the reference machine, given the
/// mean calibration loop time measured alongside them.
pub fn speed_of(mean_cal_ns: f64) -> f64 {
    if mean_cal_ns > 0.0 {
        CAL_REF_NS / mean_cal_ns
    } else {
        1.0
    }
}
