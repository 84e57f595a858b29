//! The cycle-exact tick allocates nothing once its buffers have grown.
//!
//! A counting global allocator (the shape of `benchmark/src/traced.rs`)
//! lives here, in an integration test, because it needs `unsafe` and the
//! library forbids it. The count is per thread, so the test harness's own
//! threads never show up in it.
//!
//! Its own binary, not a module of `tests/it`: a `#[global_allocator]`
//! serves the whole binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lbp_kernels::matmul::{Matmul, Version};
use lbp_sim::{FastEngine, FastStop, LbpConfig, Machine};
use lbp_testutil::harness::assemble;

thread_local! {
    /// Requests for new memory made by this thread. `const` and without a
    /// destructor, so reading it from the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every request for new memory.
struct Counting;

fn count() {
    // A thread being torn down may have lost its slot; nothing to count.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`, because
        // every allocation of this allocator is one of `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `m` to cycle `warm_up`, then up to 10,000 cycles further (or to
/// exit), and returns the allocations and cycles of that second leg.
fn allocations_after(m: &mut Machine, warm_up: u64) -> (u64, u64) {
    allocations_between(m, warm_up, warm_up + 10_000)
}

/// The allocations and cycles of the leg from cycle `warm_up` to cycle
/// `end` (or to exit).
fn allocations_between(m: &mut Machine, warm_up: u64, end: u64) -> (u64, u64) {
    m.run_to(warm_up).expect("warm-up runs");
    let from = m.stats().cycles;
    let before = ALLOCS.with(Cell::get);
    m.run_to(end).expect("measured leg runs");
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, m.stats().cycles - from)
}

#[test]
fn fork2_ticks_without_allocating() {
    let src = include_str!("../../../examples/asm/fork2.s");
    let mut m = Machine::new(LbpConfig::cores(4), &assemble(src)).unwrap();
    let (allocs, cycles) = allocations_after(&mut m, 40);
    assert!(
        m.exited() && cycles > 0,
        "the measured leg ends the program"
    );
    assert_eq!(allocs, 0, "over {cycles} cycles");
}

#[test]
fn tiled_matmul_ticks_without_allocating() {
    let mut m = Matmul::new(16, Version::Tiled).machine().unwrap();
    let (allocs, cycles) = allocations_after(&mut m, 2_000);
    assert_eq!(cycles, 10_000, "the guest outlasts the measured leg");
    assert_eq!(allocs, 0, "over {cycles} cycles");
}

/// The profiler's per-pc counters are a table over the code bank, sized
/// when profiling is turned on: charging a pc for the first time, which
/// this leg still does, is an indexed add like any other. The team is
/// forked by cycle 1,200 and its first member ends after cycle 11,000; in
/// between no hart starts or ends, so the timeline, the one list the
/// collector grows, stays as it is.
#[test]
fn profiled_ticks_do_not_allocate_for_a_pc_they_have_not_seen() {
    let mut m = Matmul::new(16, Version::Tiled).machine().unwrap();
    m.enable_profiling();
    let seen = |m: &Machine| {
        let prof = m.profile().unwrap();
        let pcs = (0..4).map(|core| prof.per_pc(core).count()).sum::<usize>();
        (pcs, prof.timeline().len())
    };
    m.run_to(2_000).unwrap();
    let (pcs, events) = seen(&m);
    let (allocs, cycles) = allocations_between(&mut m, 2_000, 10_000);
    assert_eq!(cycles, 8_000, "the guest outlasts the measured leg");
    let (pcs_after, events_after) = seen(&m);
    assert!(pcs_after > pcs, "{pcs} pcs charged before and after");
    assert_eq!(events_after, events, "a hart started or ended");
    assert_eq!(allocs, 0, "over {cycles} cycles");
}

/// The guest of `cx_idle`, smaller: an empty fork-join team. Most of its
/// cycles retire nothing anywhere, so every one past the eighth asks the
/// deadlock detector, which must answer without building its report.
#[test]
fn quiet_cycles_do_not_allocate() {
    let image = lbp_omp::DetOmp::new(64)
        .function("empty", "p_ret")
        .parallel_for("empty")
        .build()
        .unwrap();
    let mut m = Machine::new(LbpConfig::cores(16), &image).unwrap();
    let (allocs, cycles) = allocations_after(&mut m, 300);
    assert!(cycles > 1_000, "{cycles} cycles measured");
    assert_eq!(allocs, 0, "over {cycles} cycles");
}

/// The guest of `cx_idle` itself, to its exit: cores go to sleep, are
/// woken by the fork request that reaches them, sleep again, and are all
/// settled when the run returns.
#[test]
fn sleeping_waking_and_settling_do_not_allocate() {
    let image = lbp_omp::DetOmp::new(256)
        .function("empty", "p_ret")
        .parallel_for("empty")
        .build()
        .unwrap();
    let mut m = Machine::new(LbpConfig::cores(64), &image).unwrap();
    let (allocs, cycles) = allocations_between(&mut m, 500, u64::MAX);
    assert!(m.exited() && cycles > 14_000, "{cycles} cycles measured");
    assert_eq!(allocs, 0, "over {cycles} cycles");
    let woken = (0..64).filter(|&c| m.stats().retired_by_core(c) > 0);
    assert_eq!(woken.count(), 64, "every core had its turn");
}

/// Base matmul on 16 harts from its warm-up to its exit: cores sleep with
/// live harts (core 0 waits for the join through cycles 4,632-5,639), are
/// woken by the message they wait for, and sleep again.
#[test]
fn blocked_cores_sleep_and_wake_without_allocating() {
    let mut m = Matmul::new(16, Version::Base).machine().unwrap();
    let (allocs, cycles) = allocations_between(&mut m, 2_000, u64::MAX);
    assert!(m.exited() && cycles > 3_000, "{cycles} cycles measured");
    assert_eq!(allocs, 0, "over {cycles} cycles");
}

/// One hart keeps its local port and its shared-slice port busy for
/// 500 iterations, then stores to a shared page nothing wrote before.
const FRESH_PAGE: &str = "
main:
    li   t1, 500
    la   s0, word
    addi sp, sp, -4
loop:
    sw   t1, 0(sp)
    lw   t2, 0(s0)
    addi t1, t1, -1
    bnez t1, loop
    li   t3, 0x80008000
    sw   t3, 0(t3)
    li   t0, -1
    li   ra, 0
    p_ret
.data
word: .word 7
";

/// The page the guest above writes last, and what it writes there.
const FRESH: u32 = 0x8000_8000;

/// Runs `m`, built at some cycle of [`FRESH_PAGE`] that the loop has not
/// left, 300 cycles on and then to its exit, which writes a fresh page:
/// the second leg must not allocate.
fn first_write_to_a_fresh_page_does_not_allocate(m: &mut Machine) {
    let warm_up = m.stats().cycles + 300;
    m.run_to(warm_up).expect("warm-up runs");
    assert_eq!(m.peek_shared(FRESH).unwrap(), 0, "the page is still fresh");
    let (allocs, cycles) = allocations_between(m, warm_up, u64::MAX);
    assert!(m.exited(), "the measured leg ends the program");
    assert_eq!(m.peek_shared(FRESH).unwrap(), FRESH, "the leg wrote it");
    assert_eq!(allocs, 0, "over {cycles} cycles");
}

/// The hybrid handoff copies the functional engine's banks: the copy
/// holds every page too, written or not.
#[test]
fn a_materialized_machine_writes_a_fresh_page_without_allocating() {
    let image = assemble(FRESH_PAGE);
    let mut fast = FastEngine::new(LbpConfig::cores(1), &image).unwrap();
    fast.run(FastStop::Retired(400), u64::MAX).unwrap();
    let mut m = fast.materialize(&image).unwrap();
    first_write_to_a_fresh_page_does_not_allocate(&mut m);
}

/// A restored machine's banks are built from the snapshot's pages: they
/// hold every page as well.
#[test]
fn a_restored_machine_writes_a_fresh_page_without_allocating() {
    let mut m = Machine::new(LbpConfig::cores(1), &assemble(FRESH_PAGE)).unwrap();
    m.run_to(500).unwrap();
    let mut m = Machine::restore(&m.snapshot()).unwrap();
    first_write_to_a_fresh_page_does_not_allocate(&mut m);
}
