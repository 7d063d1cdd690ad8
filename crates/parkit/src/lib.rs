//! `parkit` — a small deterministic execution layer over
//! [`std::thread::scope`].
//!
//! Every hot path in this workspace (GBDT split finding, k-fold CV,
//! threshold sweeps, trace generation) is embarrassingly parallel, but
//! parallelism is only admissible here if it cannot change results: the
//! repro claim rests on bit-for-bit determinism. `parkit` therefore
//! provides *order-preserving* primitives only:
//!
//! * [`par_map`] / [`par_map_indexed`] — map over a slice on worker
//!   threads; the output `Vec` is in input order regardless of thread
//!   scheduling. Work is handed out in chunks from an atomic cursor, so
//!   imbalanced items still load-balance.
//! * [`try_par_map`] / [`try_par_map_indexed`] — fallible variants with
//!   **first-error propagation**: the returned error is the one produced
//!   at the *lowest input index*, exactly what a serial loop would
//!   return. (Later items may still be evaluated — callers must not rely
//!   on short-circuiting for side effects.)
//! * [`par_apply_chunks`] — in-place parallel mutation of disjoint
//!   contiguous chunks (static partition, deterministic by
//!   construction).
//!
//! The [`Threads`] policy picks the worker count, and the calling thread
//! is always one of the workers: [`Threads::Serial`] runs inline on it
//! (no pool, no spawn), and `Fixed(n)` spawns `n - 1` scoped threads
//! beside it. A `Serial` run and an N-thread run of any `parkit`
//! primitive are bit-for-bit identical as long as the mapped function
//! is pure. The `SBE_THREADS` environment variable overrides
//! [`Threads::Auto`]; it is read on every call, while the core count
//! `Auto` falls back to is read once per process.
//!
//! # Work and grain
//!
//! A scoped spawn and join costs tens of microseconds of CPU, so a job
//! too small to pay for one runs faster on the calling thread alone.
//! [`Threads::for_work`] is that rule, shared by every caller: the
//! caller counts its job in `work` units of its own and names the
//! `grain`, in the same unit, that one spawned worker needs to pay for
//! itself. Below one grain the job runs on the calling thread; at or
//! above it the caller's policy applies unchanged, so the policy stays
//! the ceiling. Each caller keeps its grain in a constant of its own,
//! sized so that one grain of work costs at least about 40 times a
//! spawn and join.
//!
//! ```
//! use parkit::{par_map, Threads};
//!
//! let squares = par_map(Threads::Fixed(4), &[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker-count policy for `parkit` primitives.
///
/// Serialization note: structs embedding a `Threads` mark the field
/// `#[serde(skip)]` — the thread policy is an execution detail and must
/// not leak into serialized artifacts (the parallel-equivalence tests
/// compare serialized outputs across policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Threads {
    /// Run inline on the calling thread; never spawns.
    Serial,
    /// Exactly this many workers, the calling thread included (clamped
    /// to at least 1).
    Fixed(usize),
    /// `SBE_THREADS` if set and valid, else all available cores.
    #[default]
    Auto,
}

impl Threads {
    /// The effective worker count for this policy.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Serial => 1,
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => match env_override() {
                Some(n) => n,
                None => cores(),
            },
        }
    }

    /// Whether this policy runs strictly inline.
    pub fn is_serial(self) -> bool {
        self.resolve() <= 1
    }

    /// This policy for a job of `work` units, where one spawned worker
    /// needs `grain` units to pay for its spawn and join:
    /// [`Threads::Serial`] below one grain, `self` at or above it (see
    /// the module docs). The choice is scheduling only; results are the
    /// same either way.
    ///
    /// ```
    /// use parkit::Threads;
    ///
    /// assert_eq!(Threads::Fixed(8).for_work(100, 4_096), Threads::Serial);
    /// assert_eq!(Threads::Fixed(8).for_work(4_096, 4_096), Threads::Fixed(8));
    /// ```
    pub fn for_work(self, work: usize, grain: usize) -> Threads {
        if work < grain {
            Threads::Serial
        } else {
            self
        }
    }
}

/// The cores this process may run on, read once: the query costs
/// microseconds of CPU, and `Threads::Auto` resolves on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        // detlint: allow(D008) reason=thread-count selection only; par_map merges per-index results in fixed order, so output is thread-count invariant
        std::thread::available_parallelism().map_or(1, usize::from)
    })
}

/// Parses `SBE_THREADS`; `0`, empty, or garbage means "not set".
fn env_override() -> Option<usize> {
    std::env::var("SBE_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Order-preserving parallel map.
pub fn par_map<T, U, F>(threads: Threads, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(threads, items, |_, t| f(t))
}

/// Order-preserving parallel map with the item index.
pub fn par_map_indexed<T, U, F>(threads: Threads, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    // Infallible: route through the fallible core with an uninhabited
    // error type so there is exactly one execution path to test.
    match try_par_map_indexed(threads, items, |i, t| Ok::<U, Never>(f(i, t))) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

enum Never {}

/// Fallible order-preserving parallel map. See [`try_par_map_indexed`].
///
/// # Errors
///
/// Returns the error produced at the lowest failing input index.
pub fn try_par_map<T, U, E, F>(threads: Threads, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    try_par_map_indexed(threads, items, |_, t| f(t))
}

/// Fallible order-preserving parallel map with the item index.
///
/// Results come back in input order. On failure the error returned is
/// the one at the lowest failing index — identical to what a serial
/// `for` loop over the same pure function would surface — regardless of
/// which worker hit it first. Chunk size is picked automatically; use
/// [`try_par_map_chunked`] to pin it.
///
/// # Errors
///
/// Returns the error produced at the lowest failing input index.
pub fn try_par_map_indexed<T, U, E, F>(threads: Threads, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    // Four chunks per worker amortises the atomic cursor while keeping
    // tail imbalance low.
    let workers = threads.resolve().min(items.len().max(1));
    let chunk = items.len().div_ceil(workers.max(1) * 4).max(1);
    map_chunked(workers, chunk, items, f)
}

/// [`try_par_map_indexed`] with an explicit chunk size (the unit of work
/// handed to a worker at a time). Output is identical for every chunk
/// size; only scheduling granularity changes.
///
/// # Errors
///
/// Returns the error produced at the lowest failing input index.
///
/// # Panics
///
/// Re-raises panics from worker threads on the calling thread.
pub fn try_par_map_chunked<T, U, E, F>(
    threads: Threads,
    chunk: usize,
    items: &[T],
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    map_chunked(threads.resolve(), chunk, items, f)
}

/// [`try_par_map_chunked`] over an already resolved worker count.
fn map_chunked<T, U, E, F>(workers: usize, chunk: usize, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = chunk.max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    // One worker's loop: take chunks off the shared cursor until none is
    // left. It captures only references, so every worker gets a copy.
    let work = move || {
        let mut local = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for (k, item) in items[start..end].iter().enumerate() {
                let i = start + k;
                local.push((i, f(i, item)));
            }
        }
        local
    };

    // The calling thread is one of the workers, so only `workers - 1`
    // threads are spawned.
    let locals: Vec<Vec<(usize, Result<U, E>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut locals = vec![work()];
        for h in handles {
            match h.join() {
                Ok(local) => locals.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        locals
    });

    let mut out: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut first_err: Option<(usize, E)> = None;
    for local in locals {
        for (i, r) in local {
            match r {
                Ok(v) => out[i] = Some(v),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok(out
        .into_iter()
        // detlint: allow(D004) reason=infallible by construction: the chunk cursor hands out each index exactly once, proven by the equivalence suite
        .map(|slot| slot.expect("parkit: every index visited exactly once"))
        .collect())
}

/// Applies `f` to disjoint contiguous chunks of `data` in parallel.
///
/// `f` receives the chunk's starting offset into `data` and the mutable
/// chunk itself. The partition is static (one contiguous region per
/// worker, the first worked by the calling thread), so for a
/// pure-per-element `f` the result is identical to a serial pass.
pub fn par_apply_chunks<T, F>(threads: Threads, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let workers = threads.resolve().min(n);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let chunk_len = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let (first, rest) = data.split_at_mut(chunk_len);
        for (k, chunk) in rest.chunks_mut(chunk_len).enumerate() {
            scope.spawn(move || f((k + 1) * chunk_len, chunk));
        }
        f(0, first);
    });
}

/// Sums float results of a parallel map in their original slice order.
///
/// Float addition is not associative, so reducing `par_map` output with
/// an order that depends on the thread schedule would make results vary
/// across thread counts. This helper fixes the reduction order to the
/// input order: the sum is bit-identical for every [`Threads`] policy.
pub fn sum_in_order(values: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &v in values {
        acc += v;
    }
    acc
}

/// Folds values in their original slice order with an explicit
/// accumulator — the general-purpose sibling of [`sum_in_order`] for
/// non-additive reductions (products, running maxima with tie rules,
/// compensated sums). The fold is strictly left-to-right, so the result
/// is independent of how the values were produced in parallel.
pub fn fold_in_order<T, A, F>(values: &[T], init: A, mut f: F) -> A
where
    F: FnMut(A, &T) -> A,
{
    let mut acc = init;
    for v in values {
        acc = f(acc, v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_policies() {
        assert_eq!(Threads::Serial.resolve(), 1);
        assert_eq!(Threads::Fixed(3).resolve(), 3);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert!(Threads::Auto.resolve() >= 1);
        assert!(Threads::Serial.is_serial());
    }

    #[test]
    fn in_order_reductions_match_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let mapped = par_map(Threads::Fixed(8), &items, |&x| (x as f64) * 0.1);
        let serial: f64 = items.iter().map(|&x| (x as f64) * 0.1).sum();
        assert_eq!(sum_in_order(&mapped).to_bits(), serial.to_bits());
        let folded = fold_in_order(&mapped, 0.0f64, |acc, &v| acc + v);
        assert_eq!(folded.to_bits(), serial.to_bits());
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
            let out = par_map(threads, &items, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let items = vec!["a"; 257];
        let out = par_map_indexed(Threads::Fixed(4), &items, |i, _| i);
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn first_error_wins_regardless_of_schedule() {
        let items: Vec<u32> = (0..500).collect();
        for threads in [Threads::Serial, Threads::Fixed(8)] {
            let res: Result<Vec<u32>, String> = try_par_map(threads, &items, |&x| {
                if x >= 123 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(res.unwrap_err(), "bad 123");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_map(Threads::Fixed(8), &[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn chunked_variants_agree() {
        let items: Vec<i64> = (0..97).map(|i| i * 7 - 300).collect();
        let serial: Vec<i64> = items.iter().map(|x| x.wrapping_mul(11)).collect();
        for chunk in [1, 2, 3, 16, 97, 1000] {
            let out = try_par_map_chunked(Threads::Fixed(5), chunk, &items, |_, x| {
                Ok::<i64, ()>(x.wrapping_mul(11))
            })
            .unwrap();
            assert_eq!(out, serial, "chunk={chunk}");
        }
    }

    #[test]
    fn apply_chunks_matches_serial() {
        let mut par: Vec<u64> = (0..1003).collect();
        let mut ser = par.clone();
        par_apply_chunks(Threads::Fixed(7), &mut par, |offset, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (*v).wrapping_mul((offset + k) as u64 + 1);
            }
        });
        par_apply_chunks(Threads::Serial, &mut ser, |offset, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (*v).wrapping_mul((offset + k) as u64 + 1);
            }
        });
        assert_eq!(par, ser);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map(Threads::Fixed(4), &[1u8, 2, 3, 4, 5, 6, 7, 8], |&x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
        // Item 0 is the calling thread's first chunk unless a spawned
        // worker beats it to the cursor; either way the panic surfaces.
        let result = std::panic::catch_unwind(|| {
            par_map(Threads::Fixed(2), &[0u8, 1, 2, 3], |&x| {
                assert!(x != 0, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn apply_chunks_runs_chunk_zero_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let mut data = vec![0u8; 64];
        par_apply_chunks(Threads::Fixed(4), &mut data, |offset, _| {
            let id = std::thread::current().id();
            seen.lock().unwrap().push((offset, id));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(offset, _)| offset);
        let offsets: Vec<usize> = seen.iter().map(|&(offset, _)| offset).collect();
        assert_eq!(offsets, vec![0, 16, 32, 48]);
        assert_eq!(seen[0].1, caller);
        assert!(seen[1..].iter().all(|&(_, id)| id != caller));
    }

    /// Holds each thread at its first item until `parties` threads have
    /// arrived, or a generous timeout has passed, so that every worker
    /// of a `Fixed(parties)` pool takes a chunk.
    struct Rendezvous {
        seen: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        all_in: std::sync::Condvar,
        parties: usize,
    }

    impl Rendezvous {
        fn new(parties: usize) -> Rendezvous {
            Rendezvous {
                seen: std::sync::Mutex::new(Vec::new()),
                all_in: std::sync::Condvar::new(),
                parties,
            }
        }

        /// Records the calling thread; waits on its first arrival only.
        fn arrive(&self) -> std::thread::ThreadId {
            let id = std::thread::current().id();
            let mut seen = self.seen.lock().unwrap();
            if !seen.contains(&id) {
                seen.push(id);
                self.all_in.notify_all();
                let timeout = std::time::Duration::from_secs(10);
                let (_seen, _) = self
                    .all_in
                    .wait_timeout_while(seen, timeout, |seen| seen.len() < self.parties)
                    .unwrap();
            }
            id
        }

        fn threads(self) -> Vec<std::thread::ThreadId> {
            self.seen.into_inner().unwrap()
        }
    }

    #[test]
    fn below_one_grain_every_item_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let threads = Threads::Fixed(8).for_work(4_095, 4_096);
        assert_eq!(threads, Threads::Serial);
        let items: Vec<u32> = (0..64).collect();

        let ids = try_par_map(threads, &items, |_| {
            Ok::<_, ()>(std::thread::current().id())
        })
        .unwrap();
        assert!(ids.iter().all(|&id| id == caller));

        let ids = par_map_indexed(threads, &items, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));

        let mut data = vec![caller; 64];
        par_apply_chunks(threads, &mut data, |_, chunk| {
            chunk.fill(std::thread::current().id());
        });
        assert!(data.iter().all(|&id| id == caller));
    }

    #[test]
    fn at_or_above_one_grain_the_policy_applies() {
        assert_eq!(Threads::Auto.for_work(4_096, 4_096), Threads::Auto);
        assert_eq!(Threads::Serial.for_work(usize::MAX, 1), Threads::Serial);
        // A zero grain never holds a job back.
        assert_eq!(Threads::Fixed(3).for_work(0, 0), Threads::Fixed(3));
        let caller = std::thread::current().id();
        for n in [2usize, 3, 5] {
            let threads = Threads::Fixed(n).for_work(4_097, 4_096);
            assert_eq!(threads, Threads::Fixed(n));
            let items: Vec<u32> = (0..64).collect();
            let rendezvous = Rendezvous::new(n);
            let out =
                try_par_map(threads, &items, |&x| Ok::<_, ()>((x, rendezvous.arrive()))).unwrap();
            assert!(out.iter().enumerate().all(|(i, &(x, _))| x as usize == i));
            let ids = rendezvous.threads();
            assert_eq!(ids.len(), n, "Fixed({n}) ran on {} threads", ids.len());
            assert!(ids.contains(&caller));
        }
    }

    #[test]
    fn fixed_n_spawns_at_most_n_minus_one_threads() {
        let caller = std::thread::current().id();
        for n in [2usize, 3, 5] {
            let items: Vec<u32> = (0..64).collect();
            let out = try_par_map(Threads::Fixed(n), &items, |&x| {
                // Long enough that every worker takes a chunk.
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok::<_, ()>((x, std::thread::current().id()))
            })
            .unwrap();
            let mut others = Vec::new();
            for (i, &(x, id)) in out.iter().enumerate() {
                assert_eq!(x as usize, i);
                if id != caller && !others.contains(&id) {
                    others.push(id);
                }
            }
            assert!(
                others.len() < n,
                "{} threads besides the caller at Fixed({n})",
                others.len()
            );
        }
    }
}
