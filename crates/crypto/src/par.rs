//! Deterministic data-parallel mapping over scoped threads, and how many threads a party
//! may use for it.
//!
//! [`par_map`] is the one parallel primitive the intra-query fan-out is built on: it
//! applies a pure function to every item of a slice across up to `workers` threads and
//! returns the results **in input order**.  Because the function is pure (no RNG, no
//! ledger, no pool access — callers pre-draw any randomness serially first), the output
//! is byte-identical to a serial map regardless of worker count or scheduling.  That is
//! the "parallel compute, serial commit" contract the protocol layers rely on to keep
//! transports and leakage ledgers deterministic while a single query scales with cores.
//!
//! A party that was given no explicit worker count uses [`share`] of the machine's
//! [`cores`]: the cores divided among the parties that may compute at the same time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Apply `f` to every item of `items` using up to `workers` threads (the caller's among
/// them), returning the results in input order.  `workers <= 1` (or a short input) runs
/// serially on the caller's thread — the parallel path introduces no other observable
/// difference.
///
/// Items are claimed one at a time from a shared index, so a thread that drew cheap
/// items takes more of them and none sits idle while another works through an expensive
/// stretch.  A panic in `f` reaches the caller with its own payload.
pub fn par_map<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let at = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(at) else { return done };
            done.push((at, f(item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        done
    });
    done.sort_unstable_by_key(|&(at, _)| at);
    done.into_iter().map(|(_, result)| result).collect()
}

/// The number of threads this process can run at once, read once.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A party's default worker count: `cores` divided evenly among the `parties` that may
/// compute at the same time, itself included — at least one.
pub fn share(cores: usize, parties: usize) -> usize {
    (cores / parties.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_serial_map_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [0usize, 1, 2, 3, 4, 8, 97, 200] {
            assert_eq!(par_map(workers, &items, |x| x * x + 1), expected, "workers = {workers}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u64> = vec![];
        assert!(par_map(4, &empty, |x| *x).is_empty());
        assert_eq!(par_map(4, &[42u64], |x| *x), vec![42]);
    }

    /// A pure function whose cost is `cost` rounds of mixing.
    fn mix(value: u64, cost: u64) -> u64 {
        (0..cost * 50).fold(value, |acc, i| std::hint::black_box(acc.rotate_left(7) ^ i))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn equals_a_serial_map_whatever_the_item_costs(
            items in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..200),
            workers in 0usize..9
        ) {
            // Every item costs 1 or 100 rounds: claiming must not reorder results.
            let f = |&(value, heavy): &(u64, bool)| mix(value, if heavy { 100 } else { 1 });
            let serial: Vec<u64> = items.iter().map(f).collect();
            prop_assert_eq!(par_map(workers, &items, f), serial);
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_with_its_own_message() {
        let items: Vec<u64> = (0..16).collect();
        for workers in [1usize, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(workers, &items, |&x| if x == 7 { panic!("item 7") } else { x })
            });
            let payload = caught.expect_err("item 7 panics");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("item 7"), "workers = {workers}");
        }
    }

    #[test]
    fn the_share_rule() {
        // (cores, parties) → threads per party.
        let table = [
            (1, 0, 1),
            (1, 1, 1),
            (1, 4, 1),
            (2, 0, 2),
            (2, 1, 2),
            (2, 2, 1),
            (2, 3, 1),
            (4, 3, 1),
            (8, 3, 2),
            (16, 4, 4),
            (16, 32, 1),
        ];
        for (cores, parties, threads) in table {
            assert_eq!(share(cores, parties), threads, "{cores} cores, {parties} parties");
        }
    }
}
