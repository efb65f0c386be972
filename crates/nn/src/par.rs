//! Intra-plan parallelism: idle-core accounting and the row-range driver.
//!
//! A dense attention head is a regular kernel whose output rows are
//! independent: row `i` of `softmax(q·kᵀ)·v` reads row `i` of `q` and all
//! of `k`/`v`, nothing else. [`run_row_lanes`] cuts the query rows into
//! fixed [`L1_TILE`]-row tiles (a multiple of the fused head's query
//! tile, so a cut never splits one), gives
//! contiguous tile ranges to *lanes* (the caller is lane 0, the others
//! are `std::thread::scope` threads) and hands each lane its row range,
//! its rows of the output and its own scratch. Where a cut falls
//! changes which thread computes a row, never the arithmetic of that
//! row, so the output is bit-identical for every lane count.
//!
//! How many lanes a call gets is decided here, not configured: a
//! [`Budget`] keeps one count of threads inside a forward pass plus
//! lanes lent out, and a call borrows only the cores that count leaves
//! idle. A lone Medium plan on a two-core host gets the second core; two
//! plans in flight get nothing and run exactly the serial path. Calls
//! below [`PAR_MIN_SCORES`] never ask.
//!
//! Atomic orderings: every atomic in this file is `Relaxed`. The busy
//! count is advisory — it decides how many threads to start, and
//! publishes no data (the rows a helper lane writes reach the caller
//! through `thread::scope`'s join, which is the synchronization edge).
//! A stale read can at worst over- or under-subscribe one call by a
//! lane; it can never change a result. The other atomics are monotone
//! statistics.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

use crate::kernels::L1_TILE;

/// Work cutover: an attention call with fewer than this many score
/// elements (`m·n`) runs on the calling thread alone. Starting and
/// joining one scoped thread costs 60–75 µs on the two-core reference
/// host; a fused head at the cutover (512 × 512, head width 12, one
/// lane) costs ~1.8 ms in f64 (~1.0 ms in f32). With row classes, a
/// Medium f64 plan's laned head call takes ≈ 2.1 ms, not the 23–35 ms
/// the whole VM self-attention head once took: the helper starts
/// 59–79 µs late and the scope returns 30–150 µs after its last row, so
/// a lane loses 0.18–0.23 ms, about a tenth of the call.
/// Small sessions (250² ≈ 62 k) and ~150-PM fleet shards (≈ 400² = 160 k)
/// stay below it; Medium VM self-attention and VM→PM cross attention
/// (2000 × 280 = 560 k) are above.
pub const PAR_MIN_SCORES: usize = 1 << 18;

/// Per-call scratch of the fused attention head, owned by the forward
/// context so a steady-state pass does not allocate: one key-major tile
/// per lane (`n × QT` scores, reserved for the attended keys).
#[derive(Debug, Default)]
pub struct AttnScratch<T> {
    pub(crate) tiles: Vec<Vec<T>>,
}

impl<T> AttnScratch<T> {
    /// Elements currently reserved across all buffers (arena-growth
    /// checks).
    pub fn capacity(&self) -> usize {
        self.tiles.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// What every lane of one fused attention head reads: the distinct keys
/// and their values (both `n × dh`, row-major), the attended sequence as
/// a key → distinct-row map (`None`: the `n` rows as they are) and the
/// shapes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeadInputs<'a, T> {
    pub(crate) k: &'a [T],
    pub(crate) v: &'a [T],
    pub(crate) key_class: Option<&'a [u32]>,
    pub(crate) n: usize,
    pub(crate) dh: usize,
    pub(crate) scale: T,
}

/// Counters of a [`Budget`], as published by `serve`'s `metrics` op
/// (`nn_par_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Calls that ran on more than one lane.
    pub parallel_calls: u64,
    /// Helper lanes lent out, summed over those calls.
    pub lanes_granted: u64,
    /// Calls above the cutover that got no helper because no core was
    /// idle.
    pub denied: u64,
    /// Calls below [`PAR_MIN_SCORES`] (serial by construction).
    pub under_cutover: u64,
}

/// The idle-core ledger: `busy` counts threads inside a forward pass
/// plus helper lanes lent out, against a fixed number of cores.
#[derive(Debug)]
pub struct Budget {
    cores: usize,
    busy: AtomicUsize,
    parallel_calls: AtomicU64,
    lanes_granted: AtomicU64,
    denied: AtomicU64,
    under_cutover: AtomicU64,
}

impl Budget {
    /// A ledger over `cores` cores (at least one).
    pub const fn new(cores: usize) -> Self {
        Budget {
            cores: if cores == 0 { 1 } else { cores },
            busy: AtomicUsize::new(0),
            parallel_calls: AtomicU64::new(0),
            lanes_granted: AtomicU64::new(0),
            denied: AtomicU64::new(0),
            under_cutover: AtomicU64::new(0),
        }
    }

    /// Cores this ledger divides.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Threads inside a forward pass plus lanes lent out, right now.
    pub fn busy(&self) -> usize {
        self.busy.load(Relaxed)
    }

    /// Marks one thread as inside a forward pass until the guard drops.
    pub fn enter(&self) -> Lease<'_> {
        self.busy.fetch_add(1, Relaxed);
        Lease { budget: self, held: 1 }
    }

    /// Borrows up to `want` idle cores. Never blocks: the grant is what
    /// `cores − busy` leaves, possibly zero, and is returned when the
    /// lease drops (also on unwind).
    pub fn borrow(&self, want: usize) -> Lease<'_> {
        let mut granted = 0;
        // `fetch_update` retries on contention; the closure is pure.
        let _ = self.busy.fetch_update(Relaxed, Relaxed, |busy| {
            granted = want.min(self.cores.saturating_sub(busy));
            (granted > 0).then_some(busy + granted)
        });
        Lease { budget: self, held: granted }
    }

    /// The lease of an attention call with `m` query rows over `n` keys:
    /// nothing below the cutover, otherwise up to one helper per further
    /// row tile and core. The caller must already be counted busy (see
    /// [`forward`]).
    pub fn lanes_for(&self, m: usize, n: usize) -> Lease<'_> {
        if m.saturating_mul(n) < PAR_MIN_SCORES {
            self.under_cutover.fetch_add(1, Relaxed);
            return Lease { budget: self, held: 0 };
        }
        let lease = self.borrow(m.div_ceil(L1_TILE).min(self.cores).saturating_sub(1));
        if lease.held > 0 {
            self.parallel_calls.fetch_add(1, Relaxed);
            self.lanes_granted.fetch_add(lease.held as u64, Relaxed);
        } else {
            self.denied.fetch_add(1, Relaxed);
        }
        lease
    }

    /// The counters so far.
    pub fn stats(&self) -> ParStats {
        ParStats {
            parallel_calls: self.parallel_calls.load(Relaxed),
            lanes_granted: self.lanes_granted.load(Relaxed),
            denied: self.denied.load(Relaxed),
            under_cutover: self.under_cutover.load(Relaxed),
        }
    }
}

/// Cores held against a [`Budget`]; dropping it gives them back.
#[derive(Debug)]
pub struct Lease<'a> {
    budget: &'a Budget,
    held: usize,
}

impl Lease<'_> {
    /// Helper lanes this lease pays for (0 = run serial).
    pub fn helpers(&self) -> usize {
        self.held
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if self.held > 0 {
            self.budget.busy.fetch_sub(self.held, Relaxed);
        }
    }
}

/// The process-wide ledger over `available_parallelism()` cores.
pub fn global() -> &'static Budget {
    static GLOBAL: OnceLock<Budget> = OnceLock::new();
    GLOBAL.get_or_init(|| Budget::new(std::thread::available_parallelism().map_or(1, |n| n.get())))
}

thread_local! {
    /// Nesting depth of [`forward`] guards on this thread.
    static FORWARD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Marks the current thread as inside a forward pass on the [`global`]
/// ledger until the guard drops. Re-entrant: a plan loop holds one for
/// the whole plan so concurrent plans see each other between kernels,
/// and every attention call takes one so a bare caller is counted too;
/// only the outermost guard of a thread moves the count.
pub fn forward() -> Forward {
    let depth = FORWARD_DEPTH.get();
    FORWARD_DEPTH.set(depth + 1);
    Forward { outer: (depth == 0).then(|| global().enter()), not_send: PhantomData }
}

/// Guard returned by [`forward`]; tied to the thread that took it.
#[derive(Debug)]
pub struct Forward {
    outer: Option<Lease<'static>>,
    not_send: PhantomData<*const ()>,
}

impl Drop for Forward {
    fn drop(&mut self) {
        FORWARD_DEPTH.set(FORWARD_DEPTH.get().saturating_sub(1));
        drop(self.outer.take());
    }
}

/// Runs `body` over the `rows` rows of a row-major output `cols` wide,
/// split across lanes — the row-range driver behind the fused attention
/// head (both precisions), its one user.
///
/// `scratch` yields one item per lane and so fixes the lane count
/// (clamped to the number of [`L1_TILE`]-row tiles). Lanes own
/// contiguous tile ranges: lane `l` of `L` gets tiles
/// `l·T/L .. (l+1)·T/L`. `body` receives the lane's row range, the
/// matching rows of `out` and the lane's scratch. The caller runs lane
/// 0; with one lane no thread is started and `body` sees the full range,
/// exactly as a serial kernel.
///
/// A panicking lane propagates out of the scope after all lanes joined.
pub fn run_row_lanes<T, S, I, F>(rows: usize, out: &mut [T], cols: usize, scratch: I, body: F)
where
    T: Send,
    S: Send,
    I: IntoIterator<Item = S>,
    I::IntoIter: ExactSizeIterator,
    F: Fn(Range<usize>, &mut [T], S) + Sync,
{
    let mut scratch = scratch.into_iter();
    let tiles = rows.div_ceil(L1_TILE);
    let lanes = scratch.len().min(tiles).max(1);
    let mut rest = out;
    let mut take = |len: usize| -> &mut [T] {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len * cols);
        rest = tail;
        head
    };
    let mut next_scratch = || scratch.next().expect("one scratch item per lane");
    if lanes == 1 {
        return body(0..rows, take(rows), next_scratch());
    }
    let bound = |lane: usize| (lane * tiles / lanes * L1_TILE).min(rows);
    let own = (take(bound(1)), next_scratch());
    std::thread::scope(|scope| {
        let body = &body;
        for lane in 1..lanes {
            let range = bound(lane)..bound(lane + 1);
            let (chunk, s) = (take(range.len()), next_scratch());
            scope.spawn(move || body(range, chunk, s));
        }
        body(0..bound(1), own.0, own.1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_never_exceed_idle_cores() {
        let b = Budget::new(4);
        let me = b.enter();
        assert_eq!(b.busy(), 1);
        let first = b.borrow(2);
        assert_eq!((first.helpers(), b.busy()), (2, 3));
        let second = b.borrow(5);
        assert_eq!((second.helpers(), b.busy()), (1, 4), "only one core was left");
        assert_eq!(b.borrow(1).helpers(), 0, "a full ledger lends nothing");
        drop(first);
        assert_eq!(b.busy(), 2);
        drop((second, me));
        assert_eq!(b.busy(), 0);
    }

    #[test]
    fn under_the_cutover_nothing_is_asked() {
        let b = Budget::new(8);
        let _me = b.enter();
        let lease = b.lanes_for(400, 400);
        assert_eq!((lease.helpers(), b.busy()), (0, 1));
        assert_eq!(b.stats(), ParStats { under_cutover: 1, ..ParStats::default() });
    }

    #[test]
    fn a_lone_forward_borrows_one_helper_per_tile_and_core() {
        let b = Budget::new(4);
        let _me = b.enter();
        let lease = b.lanes_for(2000, 2000);
        assert_eq!((lease.helpers(), b.busy()), (3, 4));
        drop(lease);
        // Two row tiles support one helper, whatever the core count.
        let lease = b.lanes_for(2 * L1_TILE, PAR_MIN_SCORES);
        assert_eq!(lease.helpers(), 1);
        drop(lease);
        assert_eq!(
            b.stats(),
            ParStats { parallel_calls: 2, lanes_granted: 4, ..ParStats::default() }
        );
    }

    /// Two plans in flight on a two-core host: a barrier holds both
    /// threads after their forward mark until each has entered, and again
    /// until each has asked, so both ask while the other is still inside
    /// its forward — both are denied and run the serial path.
    #[test]
    fn two_concurrent_forwards_on_two_cores_get_no_helpers() {
        let b = Budget::new(2);
        let both = std::sync::Barrier::new(2);
        let helpers: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let _me = b.enter();
                        both.wait();
                        let helpers = b.lanes_for(2000, 2000).helpers();
                        both.wait();
                        helpers
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        assert_eq!(helpers, [0, 0]);
        assert_eq!(b.stats(), ParStats { denied: 2, ..ParStats::default() });
        assert_eq!(b.busy(), 0);
    }

    #[test]
    fn lease_is_released_when_a_lane_panics() {
        static B: Budget = Budget::new(2);
        let result = std::panic::catch_unwind(|| {
            let _me = B.enter();
            let lease = B.lanes_for(4 * L1_TILE, PAR_MIN_SCORES);
            assert_eq!((lease.helpers(), B.busy()), (1, 2));
            let mut out = vec![0.0f64; 4 * L1_TILE];
            run_row_lanes(4 * L1_TILE, &mut out, 1, 0..lease.helpers() + 1, |rows, _, _| {
                if rows.start > 0 {
                    panic!("helper lane fails");
                }
            });
        });
        assert!(result.is_err(), "the lane's panic reaches the caller");
        assert_eq!(B.busy(), 0, "unwinding dropped the lease and the forward mark");
    }

    #[test]
    fn forward_guard_counts_a_thread_once() {
        std::thread::spawn(|| {
            // The global ledger is shared with whatever else this test
            // process runs; only this thread's own contribution is
            // checked, through the nesting depth.
            let outer = forward();
            assert!(outer.outer.is_some());
            let inner = forward();
            assert!(inner.outer.is_none(), "nested guard does not count again");
            drop(inner);
            drop(outer);
            assert!(forward().outer.is_some(), "depth returned to zero");
        })
        .join()
        .expect("guard thread");
    }

    #[test]
    fn row_lanes_cover_every_row_once_on_tile_boundaries() {
        for (rows, lanes) in [(0, 3), (1, 4), (31, 2), (32, 2), (33, 2), (100, 3), (257, 8)] {
            let mut a = vec![0u32; rows * 3];
            let mut seen = vec![Vec::new(); lanes];
            run_row_lanes(
                rows,
                &mut a,
                3,
                seen.iter_mut(),
                |range, a, seen: &mut Vec<Range<usize>>| {
                    assert_eq!(a.len(), range.len() * 3);
                    for (i, r) in range.clone().enumerate() {
                        a[i * 3..(i + 1) * 3].iter_mut().for_each(|x| *x += r as u32 + 1);
                    }
                    seen.push(range);
                },
            );
            assert!(a.chunks(3).enumerate().all(|(r, c)| c == [r as u32 + 1; 3]), "{rows}/{lanes}");
            let ranges: Vec<_> = seen.into_iter().flatten().collect();
            assert_eq!(ranges.len(), lanes.min(rows.div_ceil(L1_TILE)).max(1));
            for r in &ranges {
                assert!(r.start % L1_TILE == 0 && (r.end % L1_TILE == 0 || r.end == rows));
            }
        }
    }
}
