//! The worker pool both pooled layers run on: FT-greedy's oracle decides
//! windows of candidate edges, and serving answers the chunks of route
//! batches. A pool of width `t` is the calling thread plus `t − 1`
//! helpers, spawned on first use (none at width 1), each keeping one
//! scratch `S` for its life. A batch has its own claim cursor and
//! completion count, and its caller claims items with its own scratch
//! like a helper. Helpers take the oldest batch with unclaimed items and
//! hand answers back once per batch, so batches several threads run at
//! once never interleave. A helper that unwinds fails its batch and marks
//! the pool dead, so that batch and every later one panic at once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A batch of independent items, each answered with a `T` by whichever
/// participant claims it, using that participant's scratch `S`.
pub trait Job<S, T>: Send + Sync {
    /// The number of items.
    fn items(&self) -> usize;

    /// Answers a share of the items through [`Share::answer_each`].
    fn work(&self, scratch: &mut S, share: &mut Share<'_, T>);

    /// Runs on a helper once per batch it answered items of, after its
    /// share: where per-helper counters are handed back.
    fn hand_back(&self, _helper: &mut S) {}
}

/// Answers tagged with their item index.
type Answers<T> = Vec<(usize, T)>;

/// One participant's share of a batch: the claim cursor, the item
/// count, and the participant's answers.
pub struct Share<'a, T>(&'a AtomicUsize, usize, &'a mut Answers<T>);

impl<T> Share<'_, T> {
    /// Claims items one at a time, each going to exactly one participant,
    /// and answers them until none is left.
    pub fn answer_each(&mut self, mut answer: impl FnMut(usize) -> T) {
        // Relaxed: the job reaches every participant through the queue's
        // mutex; atomicity alone makes each index go to one claimant.
        let (next, items) = (self.0, self.1);
        while let Some(index) = Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < items) {
            self.2.push((index, answer(index)));
        }
    }
}

/// A published job, its claim cursor and its progress.
struct Batch<S, T> {
    job: Arc<dyn Job<S, T>>,
    items: usize,
    next: AtomicUsize,
    progress: Mutex<Progress<T>>,
    /// Signalled when the last answer is in or a helper dies.
    finished: Condvar,
}

struct Progress<T> {
    /// Items answered so far, by anyone.
    done: usize,
    /// The helpers' answers.
    answers: Answers<T>,
    /// A helper died on the batch.
    failed: bool,
}

impl<S, T> Batch<S, T> {
    /// Works one participant's share into `answers`, which start empty.
    fn share(&self, scratch: &mut S, answers: &mut Answers<T>) {
        self.job
            .work(scratch, &mut Share(&self.next, self.items, answers));
    }
}

struct Queue<S, T> {
    state: Mutex<State<S, T>>,
    /// Signalled when a batch is published or the pool shuts down.
    published: Condvar,
}

struct State<S, T> {
    /// Batches with unclaimed items, oldest first.
    open: VecDeque<Arc<Batch<S, T>>>,
    /// A helper died: every later batch fails.
    dead: bool,
    shutdown: bool,
}

/// No job code runs under a pool lock, so poisoning breaks nothing.
fn lock<X>(mutex: &Mutex<X>) -> MutexGuard<'_, X> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, X>(on: &Condvar, guard: MutexGuard<'a, X>) -> MutexGuard<'a, X> {
    on.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A worker pool whose participants each keep a scratch `S` and answer
/// items with `T` (see the module docs).
pub struct Pool<S, T> {
    width: usize,
    queue: Arc<Queue<S, T>>,
    helpers: OnceLock<Vec<JoinHandle<()>>>,
}

impl<S: Default + Send + 'static, T: Send + 'static> Pool<S, T> {
    /// The caller plus `width − 1` helpers (`width` at least 1).
    pub fn new(width: usize) -> Self {
        Pool {
            width: width.max(1),
            queue: Arc::new(Queue {
                state: Mutex::new(State {
                    open: VecDeque::new(),
                    dead: false,
                    shutdown: false,
                }),
                published: Condvar::new(),
            }),
            helpers: OnceLock::new(),
        }
    }

    /// The number of threads a batch runs on, the caller included.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Spawns the helpers unless they are up; returns whether this call
    /// spawned any.
    pub fn spawn(&self) -> bool {
        let mut spawned = false;
        self.helpers.get_or_init(|| {
            spawned = self.width > 1;
            let helper = |_| {
                let queue = Arc::clone(&self.queue);
                std::thread::spawn(move || help(&queue))
            };
            (1..self.width).map(helper).collect()
        });
        spawned
    }

    /// Runs `job` on the caller, with `scratch`, and on the helpers;
    /// returns its answers in index order.
    ///
    /// # Panics
    ///
    /// Panics if an item panics, on whichever thread answered it, or if
    /// a helper died in this or an earlier batch.
    pub fn run<J: Job<S, T> + 'static>(&self, scratch: &mut S, job: Arc<J>) -> Vec<T> {
        self.spawn();
        let batch = Arc::new(Batch {
            items: job.items(),
            job,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                done: 0,
                answers: Vec::new(),
                failed: false,
            }),
            finished: Condvar::new(),
        });
        let mut state = lock(&self.queue.state);
        assert!(!state.dead, "a pool helper died in an earlier batch");
        state.open.push_back(Arc::clone(&batch));
        drop(state);
        let mut answers = Vec::with_capacity(batch.items);
        {
            let _withdraw = Withdraw(&self.queue, &batch);
            self.queue.published.notify_all();
            batch.share(scratch, &mut answers);
        }
        let mut progress = lock(&batch.progress);
        progress.done += answers.len();
        while progress.done < batch.items {
            assert!(!progress.failed, "a pool helper died mid-batch");
            progress = wait(&batch.finished, progress);
        }
        answers.append(&mut progress.answers);
        answers.sort_unstable_by_key(|&(index, _)| index);
        answers.into_iter().map(|(_, answer)| answer).collect()
    }
}

/// Takes a batch off the queue once its caller's share ends (every item
/// is claimed by then) or unwinds.
struct Withdraw<'a, S, T>(&'a Queue<S, T>, &'a Arc<Batch<S, T>>);

impl<S, T> Drop for Withdraw<'_, S, T> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.open.retain(|batch| !Arc::ptr_eq(batch, self.1));
    }
}

/// Fails a helper's batch and marks the pool dead if the helper unwinds
/// while working it.
struct DeathNotice<'a, S, T>(&'a Queue<S, T>, &'a Batch<S, T>);

impl<S, T> Drop for DeathNotice<'_, S, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.state).dead = true;
            lock(&self.1.progress).failed = true;
            self.1.finished.notify_all();
        }
    }
}

/// A helper's life: take the oldest batch with unclaimed items, answer
/// its share with the helper's one scratch, hand the answers back once,
/// repeat until shutdown.
fn help<S: Default, T>(queue: &Queue<S, T>) {
    let (mut scratch, mut answers) = (S::default(), Vec::new());
    loop {
        let mut state = lock(&queue.state);
        let batch = loop {
            if state.shutdown {
                return;
            }
            let unclaimed = |b: &&Arc<Batch<S, T>>| b.next.load(Ordering::Relaxed) < b.items;
            if let Some(batch) = state.open.iter().find(unclaimed) {
                break Arc::clone(batch);
            }
            state = wait(&queue.published, state);
        };
        drop(state);
        let _notice = DeathNotice(queue, &batch);
        batch.share(&mut scratch, &mut answers);
        if !answers.is_empty() {
            batch.job.hand_back(&mut scratch);
            let mut progress = lock(&batch.progress);
            progress.done += answers.len();
            progress.answers.append(&mut answers);
            if progress.done == batch.items {
                batch.finished.notify_all();
            }
        }
    }
}

impl<S, T> Drop for Pool<S, T> {
    fn drop(&mut self) {
        lock(&self.queue.state).shutdown = true;
        self.queue.published.notify_all();
        for helper in self.helpers.take().into_iter().flatten() {
            // A helper that panicked already failed its batch.
            let _ = helper.join();
        }
    }
}

impl<S, T> std::fmt::Debug for Pool<S, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("width", &self.width).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// Tells the caller's scratch from a helper's: helpers start from
    /// `Default`, the tests hand the caller `Who(true)`.
    #[derive(Default)]
    struct Who(bool);

    /// Which participants panic on the items they claim.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        Nobody,
        Everyone,
        Caller,
        Helpers,
    }

    /// `2 × width` items, each answered with its index, panicking on the
    /// items `fault` names. Above width 1 the caller and the helpers each
    /// hold the items they claim until the other side has claimed one too
    /// (or ten seconds pass), so both sides are sure to take part.
    struct Faulty {
        width: usize,
        fault: Fault,
        /// Whether the caller, and whether a helper, has claimed an item.
        claimed: [AtomicBool; 2],
    }

    impl Faulty {
        fn new(width: usize, fault: Fault) -> Arc<Self> {
            Arc::new(Faulty {
                width,
                fault,
                claimed: [AtomicBool::new(false), AtomicBool::new(false)],
            })
        }
    }

    impl Job<Who, usize> for Faulty {
        fn items(&self) -> usize {
            2 * self.width
        }

        fn work(&self, who: &mut Who, share: &mut Share<'_, usize>) {
            let (mine, theirs) = match who.0 {
                true => (&self.claimed[0], &self.claimed[1]),
                false => (&self.claimed[1], &self.claimed[0]),
            };
            share.answer_each(|index| {
                mine.store(true, Ordering::Relaxed);
                for _ in 0..1000 {
                    if self.width == 1 || theirs.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                match (self.fault, who.0) {
                    (Fault::Everyone, _) | (Fault::Caller, true) | (Fault::Helpers, false) => {
                        panic!("item {index} fails")
                    }
                    _ => index,
                }
            });
        }
    }

    /// Runs `body` on its own thread and fails unless it has finished,
    /// pool drop included, within 60 s. Returns whether it panicked.
    fn panics_within_deadline(what: String, body: impl FnOnce() + Send + 'static) -> bool {
        let thread = std::thread::spawn(body);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !thread.is_finished() {
            assert!(
                Instant::now() < deadline,
                "{what}: the batch or the pool's drop hung"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        thread.join().is_err()
    }

    #[test]
    fn panicking_job_fails_its_batch_at_every_width() {
        // Items the caller claims, items the helpers claim, or both
        // panic (at width 1 the caller is the only participant). The
        // batch must panic on the calling thread instead of waiting for
        // an answer that never comes, and the pool's drop must not hang.
        for width in [1usize, 2, 4] {
            for fault in [Fault::Everyone, Fault::Caller, Fault::Helpers] {
                if width == 1 && matches!(fault, Fault::Helpers) {
                    continue;
                }
                let panicked = panics_within_deadline(format!("{width} {fault:?}"), move || {
                    let pool = Pool::new(width);
                    pool.run(&mut Who(true), Faulty::new(width, fault));
                });
                assert!(
                    panicked,
                    "width {width}, {fault:?}: the batch did not panic"
                );
            }
        }
    }

    #[test]
    fn a_dead_helper_fails_every_later_batch_at_once() {
        for width in [2usize, 4] {
            let panicked = panics_within_deadline(format!("width {width}"), move || {
                let pool = Pool::new(width);
                let first = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(&mut Who(true), Faulty::new(width, Fault::Helpers))
                }));
                assert!(first.is_err(), "the batch that lost a helper succeeded");
                // A harmless batch on the same pool must panic rather than
                // wait for a helper that is gone.
                pool.run(&mut Who(true), Faulty::new(width, Fault::Nobody));
            });
            assert!(panicked, "width {width}: the later batch did not panic");
        }
    }

    #[test]
    fn a_caller_panic_fails_only_its_own_batch() {
        let pool = Pool::new(3);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut Who(true), Faulty::new(3, Fault::Caller))
        }));
        assert!(failed.is_err());
        let answers = pool.run(&mut Who(true), Faulty::new(3, Fault::Nobody));
        assert_eq!(answers, (0..6).collect::<Vec<_>>());
    }

    /// Answers `(batch, index)`, with a little work per item so that
    /// concurrent batches overlap.
    struct Tagged {
        batch: usize,
        len: usize,
    }

    impl Job<(), (usize, usize)> for Tagged {
        fn items(&self) -> usize {
            self.len
        }

        fn work(&self, _: &mut (), share: &mut Share<'_, (usize, usize)>) {
            share.answer_each(|index| {
                std::hint::black_box((0..200).sum::<usize>());
                (self.batch, index)
            });
        }
    }

    #[test]
    fn concurrent_batches_keep_their_answers_apart_and_in_order() {
        let pool = Pool::new(3);
        std::thread::scope(|scope| {
            for submitter in 0..2usize {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..300 {
                        let batch = 2 * round + submitter;
                        let len = 1 + (round * 7 + submitter) % 40;
                        let answers = pool.run(&mut (), Arc::new(Tagged { batch, len }));
                        let expected: Vec<_> = (0..len).map(|index| (batch, index)).collect();
                        assert_eq!(answers, expected, "submitter {submitter} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn width_one_spawns_nothing_and_helpers_spawn_once() {
        let single: Pool<(), (usize, usize)> = Pool::new(1);
        assert!(!single.spawn());
        let answers = single.run(&mut (), Arc::new(Tagged { batch: 0, len: 5 }));
        assert_eq!(answers.len(), 5);
        let pool: Pool<(), (usize, usize)> = Pool::new(2);
        assert!(pool.spawn());
        assert!(!pool.spawn());
        assert!(pool
            .run(&mut (), Arc::new(Tagged { batch: 0, len: 0 }))
            .is_empty());
    }
}
