//! Deterministic data-parallel mapping on long-lived helper threads, and how many threads
//! a party may use for it.
//!
//! [`par_map`] is the one parallel primitive the intra-query fan-out is built on: it
//! applies a pure function to every item of a list across up to `workers` threads and
//! returns the results **in input order**.  Because the function is pure (no RNG, no
//! ledger, no pool access — callers draw their local streams serially first, and a
//! nonce's exponent is read by its address, [`crate::pool`]), the output is
//! byte-identical to a serial map regardless of worker count or scheduling.  That is
//! the "parallel compute, serial commit" contract the protocol layers rely on to keep
//! transports and leakage ledgers deterministic while a single query scales with cores.
//!
//! The threads beside the caller's are *helpers*: one process-wide set, spawned on first
//! need, that grows to the largest `workers − 1` any call has asked for and never beyond.
//! A call costs a queue push and a wake-up, not a thread spawn and join.  Every crate
//! forbids `unsafe`, so a helper cannot borrow its caller's stack: [`par_map`] takes its
//! items by value and a `'static` function, and a call's state lives in one [`Arc`] its
//! caller and helpers share.  The caller claims items too, and once none is left it
//! revokes the jobs no helper has started instead of waiting for them, so a nested call,
//! or more callers than helpers, never waits behind a busy helper.
//!
//! A helper with no job runs *idle work*: a source registered with [`register_idle`]
//! (held weakly, so the registry keeps no source alive) is asked for one short
//! [`IdleWork::step`] at a time, and the helper looks at its job queue again after each,
//! so a call's jobs always come first and the revoke rule is unchanged.  A helper sleeps
//! only when no source has a step to give; [`wake_idle`] rouses it when one has again.
//! The nonce pools ([`crate::pool`]) fill ahead of need this way, on cores a party left
//! idle while it waits for its peer.
//!
//! A party that was given no explicit worker count uses [`share`] of the machine's
//! [`cores`]: the cores divided among the parties that may compute at the same time.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// The process-wide helpers every [`par_map`] call and idle-work source shares.
static HELPERS: Helpers = Helpers::new();

/// Apply `f` to every item of `items` using up to `workers` threads (the caller's among
/// them), returning the results in input order.  `workers <= 1` (or a short input) runs
/// serially on the caller's thread — the parallel path introduces no other observable
/// difference.
///
/// Items are claimed one at a time from a shared index, so a thread that drew cheap
/// items takes more of them and none sits idle while another works through an expensive
/// stretch.  A panic in `f` reaches the caller with its own payload.
pub fn par_map<T, U, F>(workers: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send + Sync + 'static,
    U: Send + 'static,
    F: Fn(&T) -> U + Send + Sync + 'static,
{
    HELPERS.map(workers, items, f)
}

/// Work a helper may do while it has no job, one short step at a time.
pub trait IdleWork: Send + Sync {
    /// Do one step if there is one to do; `false` when there is none.  A step that
    /// panics loses no helper: the panic is caught and dropped, so the source must leave
    /// whatever the step abandoned to its owner.
    fn step(&self) -> bool;
}

/// Let the helpers run `work`'s steps while they have no job, until it is withdrawn
/// with [`withdraw_idle`] or dropped.
pub fn register_idle(work: Weak<dyn IdleWork>) {
    lock(&HELPERS.idle).push(work);
}

/// Take `work` out of the idle registry.  A helper in the middle of one of its steps
/// finishes that step.
pub fn withdraw_idle(work: &Weak<dyn IdleWork>) {
    lock(&HELPERS.idle).retain(|other| !other.ptr_eq(work));
}

/// Wake every sleeping helper to look for idle work: a registered source has a step to
/// give again.
pub fn wake_idle() {
    HELPERS.wake();
}

/// The number of registered idle-work sources.
pub fn idle_sources() -> usize {
    lock(&HELPERS.idle).len()
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

/// What a panic unwinds with, carried from the thread that panicked to the caller.
type Payload = Box<dyn Any + Send>;

/// One helper's part in one call.
type Job = Box<dyn FnOnce() + Send>;

/// A set of helper threads, the jobs waiting for one and the idle work beside them.
struct Helpers {
    queue: Mutex<Queue>,
    /// Signalled once per queued job, and to every helper on a wake-up.
    ready: Condvar,
    /// Idle-work sources in registration order; a dropped one is skipped until it is
    /// withdrawn.
    idle: Mutex<Vec<Weak<dyn IdleWork>>>,
}

struct Queue {
    /// Jobs no helper has started, each under the number of its call.
    jobs: VecDeque<(u64, Job)>,
    /// Helpers spawned so far.  None is joined: each lives as long as the process, and
    /// catches every panic of the jobs it runs, so no panic goes unseen.
    spawned: usize,
    /// The number the next call is queued under.
    calls: u64,
    /// Wake-ups so far: a helper that saw this number before it looked for idle work
    /// sleeps only if it has not moved since.
    wakes: u64,
}

impl Helpers {
    const fn new() -> Self {
        let queue = Queue { jobs: VecDeque::new(), spawned: 0, calls: 0, wakes: 0 };
        Helpers { queue: Mutex::new(queue), ready: Condvar::new(), idle: Mutex::new(Vec::new()) }
    }

    /// [`par_map`] on these helpers.
    fn map<T, U, F>(&'static self, workers: usize, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + Sync + 'static,
        U: Send + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let workers = workers.max(1).min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let joined = Joined { inside: 0, done: Vec::new(), panic: None };
        let call = Arc::new(Call {
            items,
            f,
            next: AtomicUsize::new(0),
            joined: Mutex::new(joined),
            left: Condvar::new(),
        });
        let id = self.post(workers - 1, || {
            let call = Arc::clone(&call);
            Box::new(move || call.help())
        });
        let own = call.claim();
        self.revoke(id);
        let (helped, helper_panic) = call.finish();
        let mut done = own.unwrap_or_else(|payload| panic::resume_unwind(payload));
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
        done.extend(helped);
        done.sort_unstable_by_key(|&(at, _)| at);
        done.into_iter().map(|(_, result)| result).collect()
    }

    /// Queue `count` jobs built by `job` under a fresh call number, spawning helpers
    /// until there are at least `count`; returns the call number.
    fn post(&'static self, count: usize, job: impl Fn() -> Job) -> u64 {
        let mut queue = lock(&self.queue);
        while queue.spawned < count {
            std::thread::Builder::new()
                .name(format!("par-helper-{}", queue.spawned))
                .spawn(move || self.serve())
                .expect("spawning a par_map helper thread");
            queue.spawned += 1;
        }
        let id = queue.calls;
        queue.calls += 1;
        queue.jobs.extend((0..count).map(|_| (id, job())));
        drop(queue);
        for _ in 0..count {
            self.ready.notify_one();
        }
        id
    }

    /// Drop call `id`'s jobs that no helper has started.  A job a helper took just
    /// before finds no item left and returns at once.
    fn revoke(&self, id: u64) {
        lock(&self.queue).jobs.retain(|&(of, _)| of != id);
    }

    /// A helper's life: run jobs as they are queued, and idle work while none is.
    fn serve(&self) {
        loop {
            let mut queue = lock(&self.queue);
            if let Some((_, job)) = queue.jobs.pop_front() {
                drop(queue);
                job();
                continue;
            }
            let wakes = queue.wakes;
            drop(queue);
            if !self.idle_step() {
                let queue = lock(&self.queue);
                let asleep =
                    self.ready.wait_while(queue, |q| q.jobs.is_empty() && q.wakes == wakes);
                drop(asleep.unwrap_or_else(PoisonError::into_inner));
            }
        }
    }

    /// Run one step of the first registered source that has one, starting one source
    /// further on each time so that every source gets its turn; `false` if none had one.
    fn idle_step(&self) -> bool {
        let sources: Vec<Arc<dyn IdleWork>> = {
            let mut idle = lock(&self.idle);
            if !idle.is_empty() {
                idle.rotate_left(1);
            }
            idle.iter().filter_map(Weak::upgrade).collect()
        };
        sources
            .iter()
            .any(|work| panic::catch_unwind(AssertUnwindSafe(|| work.step())).unwrap_or(true))
    }

    /// Wake every sleeping helper to look for idle work.
    fn wake(&self) {
        lock(&self.queue).wakes += 1;
        self.ready.notify_all();
    }
}

/// One call's state, shared by its caller and the helpers that join it.
struct Call<T, U, F> {
    items: Vec<T>,
    f: F,
    /// The index of the next unclaimed item.  It publishes no data, so it is `Relaxed`:
    /// helpers hand their results back under `joined`'s lock.
    next: AtomicUsize,
    joined: Mutex<Joined<U>>,
    /// Signalled when the last helper inside the call leaves it.
    left: Condvar,
}

/// What the helpers that joined a call hand back.
struct Joined<U> {
    /// Helpers still claiming items.
    inside: usize,
    /// `(index, result)` of every item a helper finished.
    done: Vec<(usize, U)>,
    /// The first panic a helper caught.
    panic: Option<Payload>,
}

impl<T, U, F: Fn(&T) -> U> Call<T, U, F> {
    /// Claim items one at a time until none is left, returning `(index, result)` pairs.
    /// A panic in `f` is returned, and leaves no item for anyone to claim.
    fn claim(&self) -> Result<Vec<(usize, U)>, Payload> {
        let mut done = Vec::new();
        panic::catch_unwind(AssertUnwindSafe(|| loop {
            let at = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(at) else { return };
            done.push((at, (self.f)(item)));
        }))
        .map(|()| done)
        .inspect_err(|_| self.next.store(self.items.len(), Ordering::Relaxed))
    }

    /// A helper's job: claim beside the caller, then hand the results back.
    fn help(&self) {
        lock(&self.joined).inside += 1;
        let claimed = self.claim();
        let mut joined = lock(&self.joined);
        match claimed {
            Ok(done) => joined.done.extend(done),
            Err(payload) => {
                joined.panic.get_or_insert(payload);
            }
        }
        joined.inside -= 1;
        if joined.inside == 0 {
            self.left.notify_one();
        }
    }

    /// Wait until no helper is inside the call, then take what they handed back.
    fn finish(&self) -> (Vec<(usize, U)>, Option<Payload>) {
        let joined = lock(&self.joined);
        let mut joined =
            self.left.wait_while(joined, |j| j.inside > 0).unwrap_or_else(PoisonError::into_inner);
        (std::mem::take(&mut joined.done), joined.panic.take())
    }
}

/// Lock `mutex`.  `f` never runs under these locks and every update under them leaves the
/// data valid, so a poisoned one is still sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
            let squares = par_map(workers, items.clone(), |x| x * x + 1);
            assert_eq!(squares, expected, "workers = {workers}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert!(par_map(4, Vec::<u64>::new(), |x| *x).is_empty());
        assert_eq!(par_map(4, vec![42u64], |x| *x), vec![42]);
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
            prop_assert_eq!(par_map(workers, items, f), serial);
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_with_its_own_message() {
        let items: Vec<u64> = (0..16).collect();
        for workers in [1usize, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(workers, items.clone(), |&x| if x == 7 { panic!("item 7") } else { x })
            });
            let payload = caught.expect_err("item 7 panics");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("item 7"), "workers = {workers}");
        }
    }

    /// A set of helpers of its own, so that no other test's calls grow or occupy it.
    fn own_helpers() -> &'static Helpers {
        Box::leak(Box::new(Helpers::new()))
    }

    #[test]
    fn calls_reuse_the_helpers_instead_of_spawning_threads() {
        let helpers = own_helpers();
        let run = || {
            helpers.map(3, (0..16).collect(), |&x: &u64| {
                std::hint::black_box(mix(x, 200));
                std::thread::current().id()
            })
        };
        run();
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        for _ in 0..200 {
            for id in run() {
                if id != caller && !seen.contains(&id) {
                    seen.push(id);
                }
            }
        }
        assert!(seen.len() <= 2, "items of 3-worker calls ran on {} other threads", seen.len());
        assert_eq!(lock(&helpers.queue).spawned, 2);
    }

    #[test]
    fn nested_calls_from_more_callers_than_helpers_do_not_deadlock() {
        let helpers = own_helpers();
        let inner = |x: u64| -> Vec<u64> { (0..8).map(|y| x * 8 + y).collect() };
        let row = |values: Vec<u64>| values.into_iter().fold(0, |acc, v| acc ^ v);
        let serial: Vec<u64> =
            (0..24).map(|x| row(inner(x).into_iter().map(|v| mix(v, 20)).collect())).collect();
        let callers: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    helpers.map(3, (0..24).collect(), move |&x: &u64| {
                        row(helpers.map(3, inner(x), |&v| mix(v, 20)))
                    })
                })
            })
            .collect();
        for caller in callers {
            assert_eq!(caller.join().expect("no caller panics"), serial);
        }
    }

    /// Poll `condition` until it holds (`true`) or ten seconds have passed (`false`).
    fn within_ten_seconds(condition: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !condition() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn a_panic_on_a_helper_loses_no_helper_and_strands_no_job() {
        let helpers = own_helpers();
        // The caller's item waits until the other item has panicked on a helper.
        let caller = std::thread::current().id();
        let panicked = Arc::new(AtomicUsize::new(0));
        let caught = std::panic::catch_unwind(|| {
            helpers.map(3, vec![(); 2], move |()| {
                if std::thread::current().id() != caller {
                    panicked.fetch_add(1, Ordering::SeqCst);
                    panic!("on a helper");
                }
                within_ten_seconds(|| panicked.load(Ordering::SeqCst) > 0)
            })
        });
        let payload = caught.expect_err("an item panics on a helper");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"on a helper"));

        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|&x| mix(x, 100)).collect();
        assert_eq!(helpers.map(3, items, |&x| mix(x, 100)), serial);
        assert!(lock(&helpers.queue).jobs.is_empty(), "a revoked job stayed queued");

        // Three items that each wait for all three to have started can only finish on
        // three threads at once: the caller and both helpers.
        let started = Arc::new(AtomicUsize::new(0));
        let met = helpers.map(3, vec![(); 3], move |()| {
            started.fetch_add(1, Ordering::SeqCst);
            within_ten_seconds(|| started.load(Ordering::SeqCst) == 3)
        });
        assert_eq!(met, vec![true; 3], "a helper was lost to the panic");
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
