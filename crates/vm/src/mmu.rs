//! The per-hardware-thread memory management unit.
//!
//! An [`Mmu`] combines the [`Tlb`](crate::tlb::Tlb) and the
//! [`PageTableWalker`](crate::walker::PageTableWalker) behind a single
//! [`translate`](Mmu::translate) entry point. Faults are *reported*, not
//! handled: the MEMIF raises them to the delegate thread, the OS services
//! them, and the access is retried — the paper's SVM execution model.

use svmsyn_mem::{FabricPort, MasterId, MemorySystem, PhysAddr, VirtAddr};
use svmsyn_sim::{Cycle, StatSet};

use crate::tlb::{Asid, Tlb, TlbConfig};
use crate::walker::{PageTableWalker, WalkError, WalkerConfig};

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl std::fmt::Display for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
        }
    }
}

/// A translation fault that must be serviced by the OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmFault {
    /// No valid mapping for the page (demand-paging fault).
    NotMapped {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The access that faulted.
        access: Access,
    },
    /// The mapping exists but forbids the access (e.g. write to read-only).
    Protection {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The access that faulted.
        access: Access,
    },
}

impl VmFault {
    /// The faulting virtual address.
    pub fn va(&self) -> VirtAddr {
        match self {
            VmFault::NotMapped { va, .. } | VmFault::Protection { va, .. } => *va,
        }
    }

    /// The access kind that faulted.
    pub fn access(&self) -> Access {
        match self {
            VmFault::NotMapped { access, .. } | VmFault::Protection { access, .. } => *access,
        }
    }
}

impl std::fmt::Display for VmFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmFault::NotMapped { va, access } => write!(f, "page not mapped: {access} at {va}"),
            VmFault::Protection { va, access } => {
                write!(f, "protection violation: {access} at {va}")
            }
        }
    }
}

impl std::error::Error for VmFault {}

/// MMU configuration: TLB geometry plus walker options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct MmuConfig {
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Walker options.
    pub walker: WalkerConfig,
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translated {
    /// The physical address.
    pub paddr: PhysAddr,
    /// When the translation completed.
    pub done: Cycle,
    /// Whether it was served from the TLB.
    pub tlb_hit: bool,
}

/// A failed translation, with the time spent discovering the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultedTranslation {
    /// The fault to raise to the OS.
    pub fault: VmFault,
    /// When fault detection completed.
    pub done: Cycle,
}

/// The per-thread MMU.
///
/// # Example
///
/// ```
/// use svmsyn_mem::{MasterId, MemConfig, MemorySystem, PhysAddr, VirtAddr};
/// use svmsyn_sim::Cycle;
/// use svmsyn_vm::mmu::{Access, Mmu, MmuConfig};
/// use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};
/// use svmsyn_vm::tlb::Asid;
///
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let root = PhysAddr::from_frame(10);
/// mem.poke_u32(root, DirEntry::table(11).encode());
/// let flags = PteFlags { writable: true, user: true, ..PteFlags::default() };
/// mem.poke_u32(PhysAddr::from_frame(11), Pte::leaf(0x55, flags).encode());
///
/// let mut mmu = Mmu::new(MmuConfig::default(), MasterId(1));
/// mmu.set_context(Asid(3), root);
/// let t = mmu.translate(&mut mem, VirtAddr(0x10), Access::Read, Cycle(0)).unwrap();
/// assert_eq!(t.paddr, PhysAddr::from_frame(0x55).offset(0x10));
/// assert!(!t.tlb_hit);
/// let t2 = mmu.translate(&mut mem, VirtAddr(0x20), Access::Read, t.done).unwrap();
/// assert!(t2.tlb_hit);
/// ```
#[derive(Debug, Clone)]
pub struct Mmu {
    cfg: MmuConfig,
    tlb: Tlb,
    walker: PageTableWalker,
    port: FabricPort,
    context: Option<(Asid, PhysAddr)>,
    translations: u64,
    faults: u64,
}

impl Mmu {
    /// Creates an MMU with a cold TLB, acting as bus master `master` for its
    /// page-table walks.
    pub fn new(cfg: MmuConfig, master: MasterId) -> Self {
        Mmu {
            cfg,
            tlb: Tlb::new(cfg.tlb),
            walker: PageTableWalker::new(cfg.walker),
            port: FabricPort::new(master),
            context: None,
            translations: 0,
            faults: 0,
        }
    }

    /// The configuration this MMU was built with.
    pub fn config(&self) -> &MmuConfig {
        &self.cfg
    }

    /// The bus master id used for walks.
    pub fn master(&self) -> MasterId {
        self.port.master()
    }

    /// The fabric port the walker issues its read transactions through.
    pub fn port(&self) -> FabricPort {
        self.port
    }

    /// Binds the MMU to an address space: the ASID and the physical address
    /// of the first-level table.
    pub fn set_context(&mut self, asid: Asid, root: PhysAddr) {
        self.context = Some((asid, root));
    }

    /// The currently bound `(asid, root)`, if any.
    pub fn context(&self) -> Option<(Asid, PhysAddr)> {
        self.context
    }

    /// Read-only TLB view.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// Read-only walker view (conformance checking reads its predicted bus
    /// counts and per-level hit counters).
    pub fn walker(&self) -> &PageTableWalker {
        &self.walker
    }

    /// Invalidates one page translation (after the OS unmaps or remaps it).
    /// Precise on both the TLB and the walk caches: other pages' cached
    /// state stays warm.
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr) {
        self.tlb.invalidate_page(asid, va.vpn());
        self.walker.invalidate_page(asid, va);
    }

    /// Full shootdown (context destruction).
    pub fn invalidate_all(&mut self) {
        self.tlb.invalidate_all();
        self.walker.invalidate_cache();
    }

    /// Translates `va` for `access` starting at `now`.
    ///
    /// On success the accessed (and, for writes, dirty) bits of the leaf PTE
    /// are updated in memory functionally — the cost is folded into the walk
    /// itself, matching hardware that sets status bits during the walk.
    ///
    /// # Errors
    ///
    /// Returns [`FaultedTranslation`] when the page is unmapped, the walk
    /// finds no table, or permissions forbid the access. The caller (MEMIF)
    /// raises the fault to the OS and retries after service.
    ///
    /// # Panics
    ///
    /// Panics if no context has been bound via [`set_context`](Self::set_context).
    pub fn translate(
        &mut self,
        mem: &mut MemorySystem,
        va: VirtAddr,
        access: Access,
        now: Cycle,
    ) -> Result<Translated, FaultedTranslation> {
        let (asid, root) = self.context.expect("MMU used without a bound context");
        self.translations += 1;
        let hit_cost = self.cfg.tlb.hit_cycles;

        if let Some(hit) = self.tlb.lookup(asid, va.vpn()) {
            let done = now + hit_cost;
            if access == Access::Write && !hit.flags.writable {
                self.faults += 1;
                return Err(FaultedTranslation {
                    fault: VmFault::Protection { va, access },
                    done,
                });
            }
            return Ok(Translated {
                paddr: PhysAddr::from_frame(hit.pfn).offset(va.page_offset()),
                done,
                tlb_hit: true,
            });
        }

        // TLB miss: walk after the (failed) lookup cost.
        let walk = self
            .walker
            .walk(mem, self.port, root, asid, va, now + hit_cost);
        match walk.outcome {
            Ok(out) => self.admit_walk(mem, asid, va, access, out),
            Err(WalkError::NoTable { .. }) | Err(WalkError::NotPresent { .. }) => {
                self.faults += 1;
                Err(FaultedTranslation {
                    fault: VmFault::NotMapped { va, access },
                    done: walk.done,
                })
            }
        }
    }

    /// Checks permissions for a successful walk/TLB hit and finishes the
    /// translation bookkeeping (status-bit write-back, TLB fill).
    fn admit_walk(
        &mut self,
        mem: &mut MemorySystem,
        asid: Asid,
        va: VirtAddr,
        access: Access,
        out: crate::walker::WalkOutcome,
    ) -> Result<Translated, FaultedTranslation> {
        let flags = out.pte.flags();
        if !flags.user || (access == Access::Write && !flags.writable) {
            self.faults += 1;
            return Err(FaultedTranslation {
                fault: VmFault::Protection { va, access },
                done: out.done,
            });
        }
        // Status-bit write-back, folded into the walk cost.
        let mut updated = out.pte.with_accessed();
        if access == Access::Write {
            updated = updated.with_dirty();
        }
        if updated != out.pte {
            mem.poke_u32(out.pte_addr, updated.encode());
        }
        self.tlb.insert(asid, va.vpn(), out.pte.pfn(), flags);
        Ok(Translated {
            paddr: PhysAddr::from_frame(out.pte.pfn()).offset(va.page_offset()),
            done: out.done,
            tlb_hit: false,
        })
    }

    /// Translates a batch of accesses that are all outstanding at `now` (a
    /// page-crossing access, or several hardware threads' misses gathered in
    /// one epoch). TLB hits resolve per entry; the misses go to the walker's
    /// batched [`walk_many`](crate::walker::PageTableWalker::walk_many)
    /// entry point, which coalesces reads to the same directory line.
    ///
    /// Results come back in request order; each is exactly what
    /// [`translate`](Self::translate) would return for that request, modulo
    /// the shared walk timing. Requests resolve *independently*: a batch
    /// with several faulting requests counts (and reports) each fault —
    /// unlike a serial chunk loop, which would stop at the first one. This
    /// is the hardware semantics of concurrent outstanding misses; callers
    /// that model one logical access (MEMIF's page-crossing path) surface
    /// only the earliest fault and retry the whole access.
    ///
    /// # Panics
    ///
    /// Panics if no context has been bound via [`set_context`](Self::set_context).
    pub fn translate_many(
        &mut self,
        mem: &mut MemorySystem,
        accesses: &[(VirtAddr, Access)],
        now: Cycle,
    ) -> Vec<Result<Translated, FaultedTranslation>> {
        let (asid, root) = self.context.expect("MMU used without a bound context");
        let hit_cost = self.cfg.tlb.hit_cycles;
        self.translations += accesses.len() as u64;

        // TLB probes happen in parallel across the batch; collect the misses.
        let mut results: Vec<Option<Result<Translated, FaultedTranslation>>> =
            Vec::with_capacity(accesses.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        let mut miss_vas: Vec<VirtAddr> = Vec::new();
        for (i, &(va, access)) in accesses.iter().enumerate() {
            match self.tlb.lookup(asid, va.vpn()) {
                Some(hit) => {
                    let done = now + hit_cost;
                    if access == Access::Write && !hit.flags.writable {
                        self.faults += 1;
                        results.push(Some(Err(FaultedTranslation {
                            fault: VmFault::Protection { va, access },
                            done,
                        })));
                    } else {
                        results.push(Some(Ok(Translated {
                            paddr: PhysAddr::from_frame(hit.pfn).offset(va.page_offset()),
                            done,
                            tlb_hit: true,
                        })));
                    }
                }
                None => {
                    results.push(None);
                    miss_idx.push(i);
                    miss_vas.push(va);
                }
            }
        }

        if !miss_vas.is_empty() {
            let walks =
                self.walker
                    .walk_many(mem, self.port, root, asid, &miss_vas, now + hit_cost);
            for (&i, walk) in miss_idx.iter().zip(walks) {
                let (va, access) = accesses[i];
                let r = match walk.outcome {
                    Ok(out) => self.admit_walk(mem, asid, va, access, out),
                    Err(WalkError::NoTable { .. }) | Err(WalkError::NotPresent { .. }) => {
                        self.faults += 1;
                        Err(FaultedTranslation {
                            fault: VmFault::NotMapped { va, access },
                            done: walk.done,
                        })
                    }
                };
                results[i] = Some(r);
            }
        }

        results
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }

    /// Counter snapshot, absorbing TLB and walker sub-stats.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.put("translations", self.translations as f64);
        s.put("faults", self.faults as f64);
        s.absorb("tlb", self.tlb.stats());
        s.absorb("walker", self.walker.stats());
        s
    }
}

// ----------------------------------------------------------------------
// Checkpoint serialization.
// ----------------------------------------------------------------------

impl Mmu {
    /// Serializes the TLB, the walker, the bound context and the counters.
    /// The config and the fabric master id are design-side and re-supplied
    /// at restore.
    pub fn save_state(&self, w: &mut svmsyn_snap::SnapWriter) {
        use svmsyn_snap::Snap;
        self.tlb.save_state(w);
        self.walker.save_state(w);
        match self.context {
            None => w.put_bool(false),
            Some((asid, root)) => {
                w.put_bool(true);
                asid.save(w);
                w.put_u64(root.0);
            }
        }
        w.put_u64(self.translations);
        w.put_u64(self.faults);
    }

    /// Rebuilds an MMU captured by [`save_state`](Self::save_state) under
    /// the design's `cfg`, acting as bus master `master`.
    pub fn restore_state(
        cfg: MmuConfig,
        master: MasterId,
        r: &mut svmsyn_snap::SnapReader<'_>,
    ) -> Result<Self, svmsyn_snap::SnapError> {
        use svmsyn_snap::Snap;
        let mut m = Mmu::new(cfg, master);
        m.tlb = Tlb::restore_state(cfg.tlb, r)?;
        m.walker = PageTableWalker::restore_state(cfg.walker, r)?;
        m.context = if r.take_bool()? {
            Some((Asid::load(r)?, PhysAddr(r.take_u64()?)))
        } else {
            None
        };
        m.translations = r.take_u64()?;
        m.faults = r.take_u64()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::{DirEntry, Pte, PteFlags};
    use svmsyn_mem::MemConfig;

    fn user_rw() -> PteFlags {
        PteFlags {
            writable: true,
            user: true,
            ..PteFlags::default()
        }
    }

    fn setup(flags: PteFlags) -> (MemorySystem, Mmu) {
        let mut mem = MemorySystem::new(MemConfig::default());
        let root = PhysAddr::from_frame(10);
        mem.poke_u32(root, DirEntry::table(11).encode());
        mem.poke_u32(PhysAddr::from_frame(11), Pte::leaf(0x77, flags).encode());
        let mut mmu = Mmu::new(MmuConfig::default(), MasterId(1));
        mmu.set_context(Asid(1), root);
        (mem, mmu)
    }

    #[test]
    fn miss_walks_then_hit_is_fast() {
        let (mut mem, mut mmu) = setup(user_rw());
        let t1 = mmu
            .translate(&mut mem, VirtAddr(0x8), Access::Read, Cycle(0))
            .unwrap();
        assert!(!t1.tlb_hit);
        let t2 = mmu
            .translate(&mut mem, VirtAddr(0x10), Access::Read, t1.done)
            .unwrap();
        assert!(t2.tlb_hit);
        assert_eq!((t2.done - t1.done).0, mmu.config().tlb.hit_cycles);
        assert!((t1.done - Cycle(0)).0 > mmu.config().tlb.hit_cycles);
    }

    #[test]
    fn unmapped_page_reports_not_mapped() {
        let (mut mem, mut mmu) = setup(user_rw());
        let va = VirtAddr(5 << 22);
        let err = mmu
            .translate(&mut mem, va, Access::Write, Cycle(0))
            .unwrap_err();
        assert_eq!(
            err.fault,
            VmFault::NotMapped {
                va,
                access: Access::Write
            }
        );
        assert!(err.done > Cycle(0), "fault discovery takes time");
        assert_eq!(err.fault.va(), va);
        assert_eq!(err.fault.access(), Access::Write);
    }

    #[test]
    fn write_to_readonly_is_protection_fault() {
        let flags = PteFlags {
            user: true,
            ..PteFlags::default()
        };
        let (mut mem, mut mmu) = setup(flags);
        // Read is fine.
        mmu.translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0))
            .unwrap();
        // Write faults even on the now-cached entry.
        let err = mmu
            .translate(&mut mem, VirtAddr(0), Access::Write, Cycle(100))
            .unwrap_err();
        assert!(matches!(err.fault, VmFault::Protection { .. }));
    }

    #[test]
    fn kernel_page_is_protected_from_user_access() {
        let flags = PteFlags {
            writable: true,
            ..PteFlags::default() // user = false
        };
        let (mut mem, mut mmu) = setup(flags);
        let err = mmu
            .translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0))
            .unwrap_err();
        assert!(matches!(err.fault, VmFault::Protection { .. }));
    }

    #[test]
    fn status_bits_written_back() {
        let (mut mem, mut mmu) = setup(user_rw());
        mmu.translate(&mut mem, VirtAddr(0), Access::Write, Cycle(0))
            .unwrap();
        let pte = Pte::decode(mem.peek_u32(PhysAddr::from_frame(11)));
        assert!(pte.flags().accessed);
        assert!(pte.flags().dirty);
    }

    #[test]
    fn read_sets_accessed_not_dirty() {
        let (mut mem, mut mmu) = setup(user_rw());
        mmu.translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0))
            .unwrap();
        let pte = Pte::decode(mem.peek_u32(PhysAddr::from_frame(11)));
        assert!(pte.flags().accessed);
        assert!(!pte.flags().dirty);
    }

    #[test]
    fn invalidate_page_forces_rewalk() {
        let (mut mem, mut mmu) = setup(user_rw());
        let t = mmu
            .translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0))
            .unwrap();
        mmu.invalidate_page(Asid(1), VirtAddr(0));
        let t2 = mmu
            .translate(&mut mem, VirtAddr(0), Access::Read, t.done)
            .unwrap();
        assert!(!t2.tlb_hit);
    }

    #[test]
    #[should_panic(expected = "without a bound context")]
    fn translate_without_context_panics() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut mmu = Mmu::new(MmuConfig::default(), MasterId(0));
        let _ = mmu.translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0));
    }

    #[test]
    fn stats_absorbed() {
        let (mut mem, mut mmu) = setup(user_rw());
        mmu.translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0))
            .unwrap();
        let s = mmu.stats();
        assert_eq!(s.get("translations"), Some(1.0));
        assert_eq!(s.get("tlb.misses"), Some(1.0));
        assert_eq!(s.get("walker.walks"), Some(1.0));
    }

    #[test]
    fn translate_many_matches_translate() {
        let (mut mem, mut mmu) = setup(user_rw());
        // Second page mapped too, third unmapped.
        mem.poke_u32(
            PhysAddr::from_frame(11).offset(4),
            Pte::leaf(0x78, user_rw()).encode(),
        );
        let accesses = [
            (VirtAddr(0x8), Access::Read),
            (VirtAddr(0x1004), Access::Write),
            (VirtAddr(5 << 22), Access::Read),
        ];
        let batch = mmu.translate_many(&mut mem, &accesses, Cycle(0));
        assert_eq!(batch.len(), 3);
        assert_eq!(
            batch[0].as_ref().unwrap().paddr,
            PhysAddr::from_frame(0x77).offset(0x8)
        );
        assert_eq!(
            batch[1].as_ref().unwrap().paddr,
            PhysAddr::from_frame(0x78).offset(0x4)
        );
        assert!(matches!(
            batch[2].as_ref().unwrap_err().fault,
            VmFault::NotMapped { .. }
        ));
        // A reference MMU translating serially agrees on every outcome.
        let (mut mem2, mut ref_mmu) = setup(user_rw());
        mem2.poke_u32(
            PhysAddr::from_frame(11).offset(4),
            Pte::leaf(0x78, user_rw()).encode(),
        );
        for (&(va, access), got) in accesses.iter().zip(&batch) {
            match (ref_mmu.translate(&mut mem2, va, access, Cycle(0)), got) {
                (Ok(a), Ok(b)) => assert_eq!(a.paddr, b.paddr),
                (Err(a), Err(b)) => assert_eq!(a.fault, b.fault),
                (a, b) => panic!("batched/serial diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn translate_many_uses_tlb_for_hot_entries() {
        let (mut mem, mut mmu) = setup(user_rw());
        let t = mmu
            .translate(&mut mem, VirtAddr(0), Access::Read, Cycle(0))
            .unwrap();
        let batch = mmu.translate_many(&mut mem, &[(VirtAddr(0x10), Access::Read)], t.done);
        assert!(batch[0].as_ref().unwrap().tlb_hit);
    }

    #[test]
    fn fault_display() {
        let f = VmFault::NotMapped {
            va: VirtAddr(0x1000),
            access: Access::Write,
        };
        assert!(f.to_string().contains("not mapped"));
        let p = VmFault::Protection {
            va: VirtAddr(0x1000),
            access: Access::Read,
        };
        assert!(p.to_string().contains("protection"));
    }
}
