//! `dev_zipf_xftl`: transactional read-modify-write of five pages drawn
//! Zipfian, straight on an X-FTL device, with up to eight split-phase
//! commits in flight. No SQL and no file system: the FTL's GC and
//! demand-paged mapping, X-FTL's X-L2P and group commit, and the flash
//! channels are all that runs.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;
use xftl_bench::experiments::concurrent_exp::Zipf;
use xftl_core::XFtl;
use xftl_flash::{FlashChip, FlashConfigBuilder, Nanos, SimClock};
use xftl_ftl::{BlockDevice, CommitTicket, LinkConfig, Lpn, TxBlockDevice};
use xftl_trace::Telemetry;

use crate::measure::{Ack, Counters, Failure, Kind, Recovery, Workload};
use crate::stack::{self, Dev, DevSpec};
use crate::timed::{host_ns, host_origin, CutAt, TraceSwitch};

/// Zipfian skew of the page stream.
const THETA: f64 = 0.9;

/// Flash channels of the device.
const CHANNELS: u32 = 8;

/// Distinct pages each transaction reads and rewrites.
const PAGES_PER_TXN: usize = 5;

/// Commits submitted and not yet waited on, at most.
const DEPTH: usize = 8;

/// Sizes of the device workload.
#[derive(Debug, Clone, Copy)]
pub struct DevScale {
    pub blocks: usize,
    pub logical_pages: u64,
    /// Mapping-cache budget in slabs (one slab maps 1,024 pages).
    pub map_budget: usize,
}

impl DevScale {
    pub fn spec(&self) -> DevSpec {
        DevSpec {
            flash: FlashConfigBuilder::s830()
                .blocks(self.blocks)
                .channels(CHANNELS)
                .build(),
            link: LinkConfig::SATA3,
            logical_pages: self.logical_pages,
            map_budget: Some(self.map_budget),
        }
    }
}

/// A submitted, unacknowledged transaction.
#[derive(Debug)]
struct InFlight {
    n: u64,
    ticket: CommitTicket,
    start: Nanos,
    read_ns: Nanos,
    /// Pages written, with the version each now holds.
    writes: Vec<(Lpn, u32)>,
}

/// The power cut: the flash image and what was acknowledged or in flight
/// when it was taken.
#[derive(Debug)]
struct Cut {
    image: FlashChip,
    acked: Vec<u32>,
    in_flight: Vec<Vec<(Lpn, u32)>>,
}

pub struct DevWorkload {
    scale: DevScale,
    seed: u64,
    clock: SimClock,
    switch: TraceSwitch,
    dev: Dev<XFtl>,
    rng: StdRng,
    zipf: Zipf,
    /// Version of each page as readers see it (includes staged commits).
    latest: Vec<u32>,
    /// Version of each page as of the last acknowledged commit.
    acked: Vec<u32>,
    in_flight: VecDeque<InFlight>,
    issued: u64,
    mismatches: u64,
    cut_armed: bool,
    cut: Option<Cut>,
    buf: Vec<u8>,
}

/// The byte a page of `lpn` at `version` is filled with. Pages are one
/// repeated byte so the chip stores them compressed. The byte is never 0,
/// and any 255 consecutive versions of a page get distinct bytes, so a
/// page read back zeroed or as a recent older version never passes for
/// the version expected.
fn tag(seed: u64, lpn: Lpn, version: u32) -> u8 {
    let mut x = seed ^ lpn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    1 + ((x % 255 + u64::from(version) % 255) % 255) as u8
}

impl DevWorkload {
    /// Formats the device, fills every page, then overwrites under the
    /// Zipfian stream to age it.
    pub fn build(scale: DevScale, seed: u64, switch: &TraceSwitch) -> Result<Self, Failure> {
        let clock = SimClock::new();
        let mut dev = stack::format::<XFtl>(&scale.spec(), &clock, switch)?;
        let ps = dev.page_size();
        let mut buf = vec![0u8; ps];
        for lpn in 0..scale.logical_pages {
            buf.fill(tag(seed, lpn, 0));
            dev.write(lpn, &buf)?;
        }
        let mut w = DevWorkload {
            scale,
            seed,
            clock,
            switch: switch.clone(),
            dev,
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(scale.logical_pages, THETA),
            latest: vec![0; scale.logical_pages as usize],
            acked: vec![0; scale.logical_pages as usize],
            in_flight: VecDeque::new(),
            issued: 0,
            mismatches: 0,
            cut_armed: false,
            cut: None,
            buf,
        };
        // One Zipfian overwrite per logical page before the warm-up starts.
        for _ in 0..scale.logical_pages {
            let lpn = w.zipf.sample(&mut w.rng);
            let v = w.latest[lpn as usize] + 1;
            w.latest[lpn as usize] = v;
            w.acked[lpn as usize] = v;
            w.buf.fill(tag(seed, lpn, v));
            w.dev.write(lpn, &w.buf)?;
        }
        w.dev.flush()?;
        Ok(w)
    }

    fn draw_pages(&mut self) -> Vec<Lpn> {
        let mut pages = Vec::with_capacity(PAGES_PER_TXN);
        while pages.len() < PAGES_PER_TXN {
            let lpn = self.zipf.sample(&mut self.rng);
            if !pages.contains(&lpn) {
                pages.push(lpn);
            }
        }
        pages
    }

    fn check(&mut self, lpn: Lpn, version: u32) {
        let t = tag(self.seed, lpn, version);
        if self.buf.iter().any(|&b| b != t) {
            self.mismatches += 1;
        }
    }

    /// Waits for the oldest commit; its group flush makes every staged
    /// commit durable, so every ticket of that group is acknowledged.
    fn retire_oldest(&mut self, acks: &mut Vec<Ack>) -> Result<(), Failure> {
        let Some(group) = self.in_flight.front().map(|f| f.ticket.group()) else {
            return Ok(());
        };
        while let Some(f) = self.in_flight.front() {
            if f.ticket.group() > group {
                break;
            }
            let Some(f) = self.in_flight.pop_front() else {
                break;
            };
            self.dev.commit_wait(f.ticket)?;
            for &(lpn, v) in &f.writes {
                self.acked[lpn as usize] = v;
            }
            acks.push(Ack {
                n: f.n,
                kind: Kind::Update,
                sim_ns: self.clock.now() - f.start,
                read_sim_ns: Some(f.read_ns),
            });
        }
        Ok(())
    }
}

impl Workload for DevWorkload {
    fn step(&mut self, acks: &mut Vec<Ack>) -> Result<Kind, Failure> {
        let n = self.issued;
        self.issued += 1;
        let tid = n + 1;
        let pages = self.draw_pages();
        let start = self.clock.now();
        for &lpn in &pages {
            self.dev.read_tx(tid, lpn, &mut self.buf)?;
            self.check(lpn, self.latest[lpn as usize]);
        }
        let read_ns = self.clock.now() - start;
        let mut writes = Vec::with_capacity(pages.len());
        for &lpn in &pages {
            let v = self.latest[lpn as usize] + 1;
            self.buf.fill(tag(self.seed, lpn, v));
            self.dev.write_tx(tid, lpn, &self.buf)?;
            writes.push((lpn, v));
        }
        if self.cut_armed {
            self.cut_armed = false;
            self.dev.arm_cut(CutAt::Commit);
        }
        let ticket = self.dev.commit_submit(tid)?;
        if let Some(image) = self.dev.take_image() {
            self.cut = Some(Cut {
                image,
                acked: self.acked.clone(),
                in_flight: self.in_flight.iter().map(|f| f.writes.clone()).collect(),
            });
        }
        for &(lpn, v) in &writes {
            self.latest[lpn as usize] = v;
        }
        self.in_flight.push_back(InFlight {
            n,
            ticket,
            start,
            read_ns,
            writes,
        });
        if self.in_flight.len() >= DEPTH {
            self.retire_oldest(acks)?;
        }
        Ok(Kind::Update)
    }

    fn issued(&self) -> u64 {
        self.issued
    }

    fn mismatches(&self) -> u64 {
        self.mismatches
    }

    fn counters(&self) -> Counters {
        Counters {
            ftl: stack::ftl_stats(&self.dev),
            flash: stack::flash_stats(&self.dev),
            dev: self.dev.trace(),
            sim_ns: self.clock.now(),
            channels: stack::channels(&self.dev),
            ..Counters::default()
        }
    }

    fn telemetry(&self) -> Telemetry {
        stack::telemetry(&self.dev)
    }

    fn switch(&self) -> &TraceSwitch {
        &self.switch
    }

    fn arm_cut(&mut self) {
        self.cut_armed = true;
    }

    fn audit_size(&self) -> u64 {
        self.scale.logical_pages
    }

    /// Recovers the device from the cut and reads every page. Pages no
    /// in-flight commit touched must hold their acknowledged version; the
    /// in-flight commits must have landed as a prefix of their submission
    /// order (a group flush persists all staged commits at once), each one
    /// whole or not at all. The transaction being written at the cut never
    /// committed and must not show.
    fn recover_cut(&mut self) -> Result<Option<Recovery>, Failure> {
        let Some(cut) = self.cut.take() else {
            return Ok(None);
        };
        let origin = host_origin();
        let s0 = self.clock.now();
        let mut dev =
            stack::recover::<XFtl>(cut.image, &self.scale.spec(), &self.clock, &self.switch)?;
        let dev_sim_ns = self.clock.now() - s0;
        let dev_host_ns = host_ns(origin);
        let mut found = vec![0u8; self.scale.logical_pages as usize];
        for (lpn, slot) in found.iter_mut().enumerate() {
            dev.read(lpn as Lpn, &mut self.buf)?;
            let first = self.buf[0];
            // A page that is not one repeated byte matches no version.
            *slot = if self.buf.iter().all(|&b| b == first) {
                first
            } else {
                !tag(self.seed, lpn as Lpn, cut.acked[lpn])
            };
        }
        let mismatches_at = |k: usize| -> u64 {
            let mut expect = cut.acked.clone();
            for txn in &cut.in_flight[..k] {
                for &(lpn, v) in txn {
                    expect[lpn as usize] = v;
                }
            }
            found
                .iter()
                .enumerate()
                .filter(|&(lpn, &b)| b != tag(self.seed, lpn as Lpn, expect[lpn]))
                .count() as u64
        };
        let lost = (0..=cut.in_flight.len())
            .map(mismatches_at)
            .min()
            .unwrap_or(u64::MAX);
        Ok(Some(Recovery {
            dev_sim_ns,
            dev_host_ns,
            audited: self.scale.logical_pages,
            lost,
            ..Recovery::default()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::tag;

    #[test]
    fn recent_versions_and_the_zero_fill_have_distinct_tags() {
        for lpn in 0..64 {
            for v0 in [0u32, 1, 300, u32::MAX - 300] {
                let mut seen: Vec<u8> = (v0..v0 + 255).map(|v| tag(7, lpn, v)).collect();
                assert!(!seen.contains(&0));
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), 255);
            }
        }
    }
}
