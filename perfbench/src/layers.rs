//! Per-layer attribution of the instrumented run. Layer names follow the
//! repository's modules: `sut` (the four systems' handlers, codecs and the
//! `Ctx` services they call), `engine` (everything in a case outside SUT
//! calls: simnet queue and dispatch, harness, oracle), `simnet`, `harness`,
//! `executor`, `coverage` and `search`.

use crate::instrument::Tally;
use crate::stats;
use crate::workloads::{Workload, SYSTEMS};
use crate::CampaignRun;
use dup_tester::{CaseMatrix, CaseRunner, CaseSignature, CaseStatus, CoverageMap, TestCase};
use std::time::{Duration, Instant};

/// Per-layer metric names and units, in output order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sut.handler_share", "ratio"),
    ("sut.handler_ns_per_call", "ns"),
    ("sut.calls_per_event", "count"),
    ("sut.allocs_per_case", "count"),
    ("sut.alloc_bytes_per_case", "bytes"),
    ("sut.spawns_per_case", "count"),
    ("sut.kvstore.handler_ns_per_call", "ns"),
    ("sut.dfs.handler_ns_per_call", "ns"),
    ("sut.mq.handler_ns_per_call", "ns"),
    ("sut.coord.handler_ns_per_call", "ns"),
    ("engine.ns_per_event", "ns"),
    ("engine.share", "ratio"),
    ("engine.allocs_per_case", "count"),
    ("simnet.events_per_case", "count"),
    ("simnet.messages_per_case", "count"),
    ("simnet.faults_per_case", "count"),
    ("simnet.trace_events_per_case", "count"),
    ("simnet.trace_dropped_share", "ratio"),
    ("harness.cold_case_ms_p50", "ms"),
    ("harness.warm_case_ms_p50", "ms"),
    ("harness.prefix_reuse_ratio", "ratio"),
    ("harness.workload_gen_share", "ratio"),
    ("harness.ops_per_case", "count"),
    ("executor.worker_busy_share", "ratio"),
    ("executor.worker_imbalance", "ratio"),
    ("executor.drain_ms", "ms"),
    ("executor.invalid_share", "ratio"),
    ("executor.dedup_hit_rate", "ratio"),
    ("coverage.fold_us_per_case", "us"),
    ("coverage.bits_per_case", "count"),
    ("search.useful_round_share", "ratio"),
    ("search.cases_per_group", "count"),
    ("search.corpus_size", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Totals over every traced campaign of the run.
#[derive(Default)]
pub struct Layers {
    tally: Tally,
    /// Handler calls and nanoseconds per system, in `SYSTEMS` order.
    per_system: [(u64, u64); 4],
    /// Cases that ran (not pruned), their summed wall time, and how many
    /// had a warm prefix.
    run: usize,
    run_wall: Duration,
    run_warm: usize,
    invalid: usize,
    failing: usize,
    dedup_hits: usize,
    events: u64,
    messages: u64,
    faults: u64,
    trace_recorded: u64,
    trace_dropped: u64,
    /// Wall times of the executed cases with a cold and a warm prefix, ms.
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    /// Busy time summed over workers, and `threads × wall` summed over
    /// campaigns; the busiest worker's time and the mean worker's.
    busy: Duration,
    capacity: Duration,
    busiest: Duration,
    mean_busy: Duration,
    drain: Duration,
    campaigns: usize,
    /// Search: mutation rounds, those that reached new coverage, groups,
    /// cases and final corpus entries.
    rounds: usize,
    useful_rounds: usize,
    groups: usize,
    search_cases: usize,
    corpus: usize,
    /// The coverage fold replayed over the bootstrap cases.
    folds: usize,
    fold_time: Duration,
    fold_bits: u64,
}

impl Layers {
    pub fn add(&mut self, rep: &[CampaignRun]) {
        for run in rep {
            let o = &run.observed;
            let r = &run.report;
            self.tally.add(&o.tally);
            let s = SYSTEMS
                .iter()
                .position(|(name, _)| *name == run.system)
                .expect("runs come from SYSTEMS");
            self.per_system[s].0 += o.tally.handler_calls;
            self.per_system[s].1 += o.tally.handler_ns;
            self.run += o.run;
            self.run_wall += o.run_wall;
            self.run_warm += o.run_warm;
            self.invalid += o.count(CaseStatus::Invalid);
            self.failing += r.metrics.failing_cases;
            self.dedup_hits += r.metrics.dedup_hits();
            self.events += r.sim_events_processed;
            self.messages += r.sim_messages_delivered;
            self.faults += r.sim_faults_injected;
            self.trace_recorded += r.metrics.trace_events_recorded;
            self.trace_dropped += r.metrics.trace_events_dropped;
            self.cold_ms.extend(&o.cold_ms);
            self.warm_ms.extend(&o.warm_ms);
            let threads = r.metrics.threads_used.max(1) as u32;
            let busy: Duration = o.busy.iter().sum();
            self.busy += busy;
            self.capacity += run.wall * threads;
            self.busiest += o.busy.iter().max().copied().unwrap_or_default();
            self.mean_busy += busy / threads;
            self.drain += run.drain;
            self.campaigns += 1;
            for round in o.rounds.iter().filter(|r| r.round > 0) {
                self.rounds += 1;
                self.useful_rounds += usize::from(round.new_bits > 0);
            }
            if let Some(search) = &run.search {
                self.groups += search.groups.len();
                self.search_cases += search.total_cases();
                self.corpus += search.groups.iter().map(|g| g.corpus.len()).sum::<usize>();
            }
        }
    }

    /// Replays every guided-search bootstrap case of the first seed set on a
    /// traced runner and times the coverage fold (`CaseSignature::fold` plus
    /// `CoverageMap::observe`) on its trace buffer.
    pub fn replay_bootstrap_folds(&mut self, seed: u64) {
        let mut signature = CaseSignature::new();
        let mut coverage = CoverageMap::new();
        for &(_, sut) in &SYSTEMS {
            // One matrix slot per group, as `Campaign::run_search` shapes it.
            let seeds = &Workload::GuidedSearch.campaigns(seed)[0].1;
            let config = Workload::GuidedSearch
                .builder(sut, seeds, seed)
                .seeds([0])
                .into_config();
            let search = config
                .search()
                .expect("guided_search sets a search")
                .clone();
            let matrix = CaseMatrix::enumerate(sut, &config);
            let trace = Some(config.trace().unwrap_or_default());
            let mut runner = CaseRunner::with_options(sut, trace, config.snapshot());
            for group in matrix.groups() {
                let template = matrix.case_at(group.start);
                coverage.clear();
                for &seed in &search.initial_seeds {
                    TestCase {
                        seed,
                        ..template.clone()
                    }
                    .run_in(&mut runner);
                    let buffer = runner.trace_buffer().expect("the runner traces");
                    let t = Instant::now();
                    signature.clear();
                    signature.fold(buffer);
                    coverage.observe(&signature);
                    self.fold_time += t.elapsed();
                    self.folds += 1;
                    self.fold_bits += u64::from(signature.bits_set());
                }
            }
        }
    }

    /// Every per-layer metric, in [`PER_LAYER`] order; `overhead` is the
    /// traced run's wall time over the untraced run's, minus one.
    pub fn metrics(&self, overhead: f64) -> Vec<(String, f64, &'static str)> {
        let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let t = &self.tally;
        let run = self.run as f64;
        let wall_ns = self.run_wall.as_nanos() as f64;
        let engine_ns = wall_ns - t.sut_ns() as f64;
        let events = self.events as f64;
        let per_system = |s: usize| div(self.per_system[s].1 as f64, self.per_system[s].0 as f64);
        let values = [
            div(t.handler_ns as f64, wall_ns),
            div(t.handler_ns as f64, t.handler_calls as f64),
            div(t.handler_calls as f64, events),
            div(t.sut_allocs as f64, run),
            div(t.sut_bytes as f64, run),
            div(t.spawns as f64, run),
            per_system(0),
            per_system(1),
            per_system(2),
            per_system(3),
            div(engine_ns, events),
            div(engine_ns, wall_ns),
            div(t.other_allocs as f64, run),
            div(events, run),
            div(self.messages as f64, run),
            div(self.faults as f64, run),
            div(self.trace_recorded as f64, run),
            div(self.trace_dropped as f64, self.trace_recorded as f64),
            stats::median(&self.cold_ms).unwrap_or(0.0),
            stats::median(&self.warm_ms).unwrap_or(0.0),
            div(self.run_warm as f64, run),
            div(t.gen_ns as f64, wall_ns),
            div(t.ops as f64, run),
            div(self.busy.as_secs_f64(), self.capacity.as_secs_f64()),
            div(self.busiest.as_secs_f64(), self.mean_busy.as_secs_f64()),
            div(self.drain.as_secs_f64() * 1e3, self.campaigns as f64),
            div(self.invalid as f64, run),
            div(self.dedup_hits as f64, self.failing as f64),
            div(self.fold_time.as_secs_f64() * 1e6, self.folds as f64),
            div(self.fold_bits as f64, self.folds as f64),
            div(self.useful_rounds as f64, self.rounds as f64),
            div(self.search_cases as f64, self.groups as f64),
            div(self.corpus as f64, self.groups as f64),
            overhead,
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    }
}
