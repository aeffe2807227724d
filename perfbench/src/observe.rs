//! The benchmark's campaign observer: everything it reports about a
//! campaign it reads from `CampaignObserver` callbacks, their timestamps and
//! the calling worker's `std::thread::current().id()`.

use crate::instrument::{self, Tally};
use dup_tester::{CampaignObserver, CaseStatus, FailureReport, SearchRound, TestCase};
use dup_tester::{VersionId, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One worker thread's state.
struct Worker {
    /// Sum of its case spans, `on_case_start` to `on_case_done`.
    busy: Duration,
    /// `(from, workload)` of the last case it ran: the runner's one-entry
    /// prefix cache holds exactly this key.
    prefix: Option<(VersionId, WorkloadSpec)>,
    /// The case in flight: when it started, whether its prefix was warm,
    /// and the thread's instrument tally at its start.
    started: Instant,
    warm: bool,
    tally: Tally,
}

/// What one campaign looked like from outside.
#[derive(Default)]
pub struct Observed {
    /// First `on_case_start` and last `on_case_done`.
    pub first_start: Option<Instant>,
    pub last_done: Option<Instant>,
    /// Every case that ran, in completion order: its index, its wall time
    /// in ms, and whether it executed (passed or failed).
    pub ran_ms: Vec<(usize, f64, bool)>,
    /// The same, split by whether the case's prefix was warm.
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    /// Cases that ran (not pruned) and how many of them were warm.
    pub run: usize,
    pub run_warm: usize,
    /// Summed wall time of the cases that ran.
    pub run_wall: Duration,
    /// Cases by status: passed, failed, invalid, pruned, panicked, hung.
    pub status: [usize; 6],
    /// Per-thread busy time.
    pub busy: Vec<Duration>,
    /// Instrument tallies summed over the cases that ran.
    pub tally: Tally,
    /// First exposing case index of each distinct failure, in the order of
    /// the report's `failures`: `on_failure_found` fires once per entry, in
    /// that order.
    pub first_index: Vec<usize>,
    /// Search rounds, in callback order.
    pub rounds: Vec<SearchRound>,
}

fn slot(status: CaseStatus) -> usize {
    match status {
        CaseStatus::Passed => 0,
        CaseStatus::Failed => 1,
        CaseStatus::Invalid => 2,
        CaseStatus::Pruned => 3,
        CaseStatus::Panicked => 4,
        CaseStatus::Hung => 5,
    }
}

impl Observed {
    pub fn count(&self, status: CaseStatus) -> usize {
        self.status[slot(status)]
    }

    /// Passed plus failed cases: the executed upgrade cases.
    pub fn executed(&self) -> usize {
        self.count(CaseStatus::Passed) + self.count(CaseStatus::Failed)
    }
}

#[derive(Default)]
struct State {
    observed: Observed,
    workers: HashMap<ThreadId, Worker>,
}

/// Records one campaign; attach a fresh one per campaign run.
#[derive(Default)]
pub struct Observer(Mutex<State>);

impl Observer {
    /// Everything recorded, once the campaign has returned.
    pub fn finish(&self) -> Observed {
        let mut state = self.0.lock().expect("observer lock poisoned by a panic");
        let mut observed = std::mem::take(&mut state.observed);
        observed.busy = state.workers.values().map(|w| w.busy).collect();
        observed
    }
}

impl CampaignObserver for Observer {
    fn on_case_start(&self, _index: usize, case: &TestCase) {
        let now = Instant::now();
        let mut state = self.0.lock().expect("observer lock poisoned by a panic");
        state.observed.first_start.get_or_insert(now);
        let worker = state
            .workers
            .entry(std::thread::current().id())
            .or_insert_with(|| Worker {
                busy: Duration::ZERO,
                prefix: None,
                started: now,
                warm: false,
                tally: Tally::default(),
            });
        worker.started = now;
        worker.warm = worker
            .prefix
            .as_ref()
            .is_some_and(|(from, workload)| *from == case.from && *workload == case.workload);
        worker.tally = instrument::snapshot();
    }

    fn on_case_done(&self, index: usize, case: &TestCase, status: CaseStatus, wall: Duration) {
        let tally = instrument::snapshot();
        let now = Instant::now();
        let mut state = self.0.lock().expect("observer lock poisoned by a panic");
        let State { observed, workers } = &mut *state;
        let worker = workers
            .get_mut(&std::thread::current().id())
            .expect("on_case_start ran on this thread first");
        worker.busy += now - worker.started;
        observed.last_done = Some(now);
        observed.status[slot(status)] += 1;
        if status == CaseStatus::Pruned {
            return;
        }
        observed.run += 1;
        observed.run_wall += wall;
        let ms = wall.as_secs_f64() * 1e3;
        let executed = matches!(status, CaseStatus::Passed | CaseStatus::Failed);
        observed.ran_ms.push((index, ms, executed));
        observed.tally.add(&tally.since(&worker.tally));
        if worker.warm {
            observed.run_warm += 1;
        } else {
            worker.prefix = Some((case.from, case.workload.clone()));
        }
        if executed {
            if worker.warm {
                observed.warm_ms.push(ms);
            } else {
                observed.cold_ms.push(ms);
            }
        }
    }

    fn on_failure_found(&self, index: usize, _case: &TestCase, _failure: &FailureReport) {
        let mut state = self.0.lock().expect("observer lock poisoned by a panic");
        state.observed.first_index.push(index);
    }

    fn on_search_round(&self, round: &SearchRound) {
        let mut state = self.0.lock().expect("observer lock poisoned by a panic");
        state.observed.rounds.push(*round);
    }
}
