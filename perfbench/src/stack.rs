//! Assembling the stack from the layers' public constructors, the way the
//! experiment rig does: flash → FTL personality → SATA link → timing
//! wrapper, and rebuilding it from a flash image after a power cut.

use xftl_core::XFtl;
use xftl_flash::{FlashChip, FlashConfig, FlashStats, SimClock};
use xftl_ftl::{BlockDevice, FtlBase, FtlStats, LinkConfig, PageMappedFtl, Result, SataLink};
use xftl_trace::Telemetry;

use crate::timed::{FlashImage, Timed, TraceSwitch};

/// X-L2P capacity of the X-FTL devices (the paper's small configuration).
pub const XL2P_CAPACITY: usize = 500;

/// The FTL personalities the workloads run on.
pub trait Personality: BlockDevice + Sized {
    fn format(chip: FlashChip, logical_pages: u64) -> Result<Self>;
    fn recover(chip: FlashChip) -> Result<Self>;
    fn base(&self) -> &FtlBase;
    fn base_mut(&mut self) -> &mut FtlBase;
}

impl Personality for XFtl {
    fn format(chip: FlashChip, logical_pages: u64) -> Result<Self> {
        XFtl::format_with_capacity(chip, logical_pages, XL2P_CAPACITY)
    }
    fn recover(chip: FlashChip) -> Result<Self> {
        XFtl::recover_with_capacity(chip, XL2P_CAPACITY)
    }
    fn base(&self) -> &FtlBase {
        XFtl::base(self)
    }
    fn base_mut(&mut self) -> &mut FtlBase {
        XFtl::base_mut(self)
    }
}

impl Personality for PageMappedFtl {
    fn format(chip: FlashChip, logical_pages: u64) -> Result<Self> {
        PageMappedFtl::format(chip, logical_pages)
    }
    fn recover(chip: FlashChip) -> Result<Self> {
        PageMappedFtl::recover(chip)
    }
    fn base(&self) -> &FtlBase {
        PageMappedFtl::base(self)
    }
    fn base_mut(&mut self) -> &mut FtlBase {
        PageMappedFtl::base_mut(self)
    }
}

impl<F: Personality> FlashImage for SataLink<F> {
    fn flash_image(&self) -> FlashChip {
        self.inner().base().chip().clone()
    }
}

/// The device the upper layers see.
pub type Dev<F> = Timed<SataLink<F>>;

/// Device parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct DevSpec {
    pub flash: FlashConfig,
    pub link: LinkConfig,
    pub logical_pages: u64,
    /// Mapping-cache budget in resident slabs (`None` = unbounded).
    pub map_budget: Option<usize>,
}

/// The mapping-cache budget lives in FTL RAM, so it is re-installed
/// after every power cycle. GC stays the FTL's default, greedy.
fn configure<F: Personality>(ftl: &mut F, spec: &DevSpec) -> Result<()> {
    ftl.base_mut().set_map_cache_budget(spec.map_budget)
}

/// Formats a fresh device with the stack-wide telemetry installed on its
/// chip, as the rig does.
pub fn format<F: Personality>(
    spec: &DevSpec,
    clock: &SimClock,
    switch: &TraceSwitch,
) -> Result<Dev<F>> {
    let mut chip = FlashChip::new(spec.flash, clock.clone());
    chip.set_recorder(Telemetry::new());
    let mut ftl = F::format(chip, spec.logical_pages)?;
    configure(&mut ftl, spec)?;
    Ok(Timed::new(
        SataLink::new(ftl, spec.link, clock.clone()),
        clock.clone(),
        switch.clone(),
    ))
}

/// Rebuilds the device from a flash image: the FTL's power-on recovery.
pub fn recover<F: Personality>(
    image: FlashChip,
    spec: &DevSpec,
    clock: &SimClock,
    switch: &TraceSwitch,
) -> Result<Dev<F>> {
    let mut ftl = F::recover(image)?;
    configure(&mut ftl, spec)?;
    Ok(Timed::new(
        SataLink::new(ftl, spec.link, clock.clone()),
        clock.clone(),
        switch.clone(),
    ))
}

/// The counters the device keeps, read through its public accessors.
pub fn ftl_stats<F: Personality>(dev: &Dev<F>) -> FtlStats {
    *dev.inner().inner().base().stats()
}

pub fn flash_stats<F: Personality>(dev: &Dev<F>) -> FlashStats {
    dev.inner().inner().base().flash_stats()
}

pub fn telemetry<F: Personality>(dev: &Dev<F>) -> Telemetry {
    dev.inner().inner().base().recorder().clone()
}

pub fn channels<F: Personality>(dev: &Dev<F>) -> u32 {
    dev.inner().inner().base().chip().config().geometry.channels
}
