//! Lazy task streams: the pull-based form of every benchmark generator.
//!
//! A [`TaskStream`] is a named, length-known iterator of
//! [`TaskSpec`]s carrying the workload-level
//! modelling knobs (locality benefit, duration jitter). Every Table II
//! generator produces one (e.g. [`crate::cholesky::stream`]), and
//! [`TaskStream::into_workload`] collects it into an eager workload, so the
//! two forms are task-for-task identical by construction.
//!
//! `TaskStream` implements [`TaskSource`], the driver-side trait, so it can
//! be fed straight to
//! [`simulate_stream`](tdm_runtime::exec::simulate_stream): tasks are then
//! generated on demand while the windowed master consumes them, and the full
//! task list never materialises — the property that lets the scaled-up
//! generators ([`crate::Benchmark::scaled_stream`]) drive million-task runs
//! in memory bounded by the window.
//!
//! Streams are deterministic: a freshly built stream always yields the same
//! task sequence (the Table II generators are closed-form loop nests; a
//! generator needing random content must carry its own seeded
//! [`SplitMix64`](tdm_sim::rng::SplitMix64) state in its iterator).
//!
//! # Example
//!
//! ```
//! use tdm_runtime::stream::TaskSource;
//! use tdm_workloads::cholesky;
//!
//! let mut stream = cholesky::stream(cholesky::Params { blocks: 8 });
//! assert_eq!(stream.len(), cholesky::task_count(8));
//! let first = stream.next_task().unwrap();
//! assert_eq!(first.kind, "spotrf");
//! // A fresh stream collected eagerly starts with the same task.
//! let eager = cholesky::stream(cholesky::Params { blocks: 8 }).into_workload();
//! assert_eq!(eager.tasks[0], first);
//! ```

use tdm_runtime::stream::TaskSource;
use tdm_runtime::task::{TaskSpec, Workload};

/// A lazily generated workload: name, exact task count, modelling knobs and
/// the boxed generator iterator.
///
/// The iterator is boxed with a `Send` bound, making the whole stream `Send`
/// (checked at compile time below): the parallel sweep runner builds streams
/// on — or hands them to — worker threads. Generators are closed-form loop
/// nests over plain data, so the bound costs them nothing.
pub struct TaskStream {
    name: String,
    remaining: usize,
    /// Tasks produced so far — the checkpoint cursor
    /// ([`TaskSource::checkpoint_cursor`]): a restored run rebuilds the
    /// stream and fast-forwards it here instead of storing generated tasks.
    produced: u64,
    locality_benefit: f64,
    duration_jitter: f64,
    iter: Box<dyn Iterator<Item = TaskSpec> + Send>,
}

// Compile-time half of the `TaskSource: Send` contract: if a generator ever
// captures a non-`Send` handle, the error points here instead of at a
// `thread::scope` call three crates up.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TaskStream>();
};

impl std::fmt::Debug for TaskStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskStream")
            .field("name", &self.name)
            .field("remaining", &self.remaining)
            .field("locality_benefit", &self.locality_benefit)
            .field("duration_jitter", &self.duration_jitter)
            .finish_non_exhaustive()
    }
}

impl TaskStream {
    /// Wraps a generator iterator that will produce exactly `len` tasks.
    ///
    /// The generators state their closed-form task counts here; the count is
    /// asserted during consumption (in debug builds) and by the calibration
    /// tests, which collect and measure every stream.
    pub fn new(
        name: impl Into<String>,
        len: usize,
        iter: impl Iterator<Item = TaskSpec> + Send + 'static,
    ) -> Self {
        TaskStream {
            name: name.into(),
            remaining: len,
            produced: 0,
            locality_benefit: 0.0,
            duration_jitter: tdm_runtime::task::DEFAULT_DURATION_JITTER,
            iter: Box::new(iter),
        }
    }

    /// Sets the locality-benefit knob (see `Workload::locality_benefit`).
    pub fn with_locality_benefit(mut self, benefit: f64) -> Self {
        self.locality_benefit = benefit;
        self
    }

    /// Sets the duration-jitter knob (see `Workload::duration_jitter`).
    pub fn with_duration_jitter(mut self, jitter: f64) -> Self {
        self.duration_jitter = jitter;
        self
    }

    /// Tasks still to be produced.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// True if the stream will produce no further tasks.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    /// Drains the stream into an eager [`Workload`], as
    /// [`Benchmark::software_workload`](crate::Benchmark::software_workload)
    /// and [`Benchmark::tdm_workload`](crate::Benchmark::tdm_workload) do.
    ///
    /// # Panics
    ///
    /// Panics if the generator produced a different number of tasks than the
    /// stream declared.
    pub fn into_workload(mut self) -> Workload {
        let declared = self.remaining;
        let mut tasks = Vec::with_capacity(declared);
        while let Some(spec) = self.next_task() {
            tasks.push(spec);
        }
        assert_eq!(
            tasks.len(),
            declared,
            "{}: generator produced {} tasks but declared {declared}",
            self.name,
            tasks.len()
        );
        let mut workload = Workload::new(self.name, tasks);
        workload.locality_benefit = self.locality_benefit;
        workload.duration_jitter = self.duration_jitter;
        workload
    }
}

impl TaskSource for TaskStream {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_task(&mut self) -> Option<TaskSpec> {
        let spec = self.iter.next();
        match &spec {
            Some(_) => {
                debug_assert!(
                    self.remaining > 0,
                    "{}: more tasks than declared",
                    self.name
                );
                self.remaining = self.remaining.saturating_sub(1);
                self.produced += 1;
            }
            None => debug_assert_eq!(
                self.remaining, 0,
                "{}: generator ended early ({} declared tasks missing)",
                self.name, self.remaining
            ),
        }
        spec
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }

    fn locality_benefit(&self) -> f64 {
        self.locality_benefit
    }

    fn duration_jitter(&self) -> f64 {
        self.duration_jitter
    }

    fn checkpoint_cursor(&self) -> Option<u64> {
        Some(self.produced)
    }

    // The default pull-and-discard fast-forward is already correct for a
    // deterministic generator; overriding it keeps the declared-length
    // bookkeeping (`remaining`/`produced`) exact without relying on the
    // trait's loop semantics.
    fn resume_at(&mut self, cursor: u64) {
        debug_assert_eq!(self.produced, 0, "resume_at on a consumed stream");
        for _ in 0..cursor {
            if self.next_task().is_none() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_runtime::task::DependenceSpec;
    use tdm_sim::clock::Cycle;

    fn three_tasks() -> impl Iterator<Item = TaskSpec> {
        (0..3).map(|i| {
            TaskSpec::new(
                "t",
                Cycle::new(1000 + i),
                vec![DependenceSpec::inout(0x1000, 64)],
            )
        })
    }

    #[test]
    fn stream_reports_remaining_and_knobs() {
        let mut s = TaskStream::new("s", 3, three_tasks())
            .with_locality_benefit(0.05)
            .with_duration_jitter(0.0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.locality_benefit(), 0.05);
        assert_eq!(s.duration_jitter(), 0.0);
        assert!(s.next_task().is_some());
        assert_eq!(s.len(), 2);
        assert_eq!(s.len_hint(), Some(2));
    }

    #[test]
    fn into_workload_preserves_everything() {
        let w = TaskStream::new("s", 3, three_tasks())
            .with_locality_benefit(0.05)
            .into_workload();
        assert_eq!(w.name, "s");
        assert_eq!(w.len(), 3);
        assert_eq!(w.locality_benefit, 0.05);
        assert_eq!(w.duration_jitter, 0.02);
        assert_eq!(w.tasks[2].duration, Cycle::new(1002));
    }

    #[test]
    #[should_panic(expected = "declared")]
    fn wrong_declared_length_panics_on_collect() {
        let _ = TaskStream::new("s", 5, three_tasks()).into_workload();
    }

    #[test]
    fn checkpoint_cursor_resumes_identically() {
        let mut original = TaskStream::new("s", 3, three_tasks());
        original.next_task();
        original.next_task();
        let cursor = original.checkpoint_cursor().unwrap();
        assert_eq!(cursor, 2);

        let mut resumed = TaskStream::new("s", 3, three_tasks());
        resumed.resume_at(cursor);
        assert_eq!(resumed.len_hint(), original.len_hint());
        assert_eq!(resumed.next_task(), original.next_task());
        assert_eq!(resumed.next_task(), None);
    }
}
