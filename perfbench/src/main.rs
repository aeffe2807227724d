//! The DUPTester campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chaos_rollout --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Repeats the workload's campaigns over the four bundled systems until
//! another repetition would overrun `--seconds`, checks every repetition's
//! outputs, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of an instrumented run (`--trace 1`) as the last line,
//! one JSON object. The exit code is non-zero when an output check fails.

mod instrument;
mod layers;
mod observe;
mod stats;
mod workloads;

use dup_core::SystemUnderTest;
use dup_tester::{catalog, CampaignReport, CaseStatus, SearchReport};
use instrument::{CountingAlloc, TimedSystem};
use layers::Layers;
use observe::{Observed, Observer};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Workload, SYSTEMS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// End-to-end metrics, printed with `--trace 0`: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("cases_per_s", "cases/s"),
    ("case_ms_p50", "ms"),
    ("case_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bugs_detected", "count"),
    ("cases_to_detect", "cases"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One system's campaign, as seen from outside.
pub struct CampaignRun {
    pub system: &'static str,
    /// The seed set the campaign's case seeds come from.
    pub set: usize,
    pub report: CampaignReport,
    pub search: Option<SearchReport>,
    /// The deterministic rendering every repetition must reproduce.
    pub rendered: String,
    /// Campaign construction to the first `on_case_start`: matrix
    /// enumeration, worker spawn and runner warm-up.
    pub setup: Duration,
    /// First `on_case_start` to the report returned.
    pub wall: Duration,
    /// Last `on_case_done` to the report returned.
    pub drain: Duration,
    pub observed: Observed,
}

fn run_campaign(
    workload: Workload,
    (set, seeds): &(usize, Vec<u64>),
    seed: u64,
    system: &'static str,
    sut: &dyn SystemUnderTest,
) -> CampaignRun {
    let observer = Arc::new(Observer::default());
    let started = Instant::now();
    let campaign = workload
        .builder(sut, seeds, seed)
        .observer(Arc::clone(&observer))
        .build();
    let (report, search, returned) = if workload.is_search() {
        let search = campaign.run_search();
        let returned = Instant::now();
        (search.campaign.clone(), Some(search), returned)
    } else {
        let report = campaign.run();
        (report, None, Instant::now())
    };
    let observed = observer.finish();
    assert_eq!(
        observed.first_index.len(),
        report.failures.len(),
        "on_failure_found fires once per distinct failure"
    );
    let first = observed.first_start.expect("every campaign runs a case");
    let last = observed.last_done.expect("every campaign finishes a case");
    let rendered = match &search {
        Some(search) => search.render_summary(),
        None => report.render_table(),
    };
    CampaignRun {
        system,
        set: *set,
        report,
        search,
        rendered,
        setup: first - started,
        wall: returned - first,
        drain: returned - last,
        observed,
    }
}

/// One repetition: the workload's campaigns on each system in turn, through
/// the timing wrapper when `traced`. It stops early, before the first
/// campaign `i` for which `fits(i)` is false.
fn run_rep(
    workload: Workload,
    seed: u64,
    traced: bool,
    fits: impl Fn(usize) -> bool,
) -> Vec<CampaignRun> {
    let campaigns = workload.campaigns(seed);
    let mut runs = Vec::new();
    for &(name, sut) in &SYSTEMS {
        for seeds in &campaigns {
            if !fits(runs.len()) {
                return runs;
            }
            runs.push(if traced {
                instrument::enable(true);
                let run = run_campaign(workload, seeds, seed, name, &TimedSystem(sut));
                instrument::enable(false);
                run
            } else {
                run_campaign(workload, seeds, seed, name, sut)
            });
        }
    }
    runs
}

/// Checks one repetition's renderings against the first repetition's, which
/// every later one, traced or not, must match byte for byte.
fn check_rep(rep: &[CampaignRun], reference: &mut Vec<String>, errors: &mut Vec<String>) {
    if reference.is_empty() {
        *reference = rep.iter().map(|r| r.rendered.clone()).collect();
    }
    for (run, expected) in rep.iter().zip(reference.iter()) {
        if run.rendered != *expected {
            errors.push(format!(
                "{}: report differs from the first repetition's",
                run.system
            ));
        }
    }
}

/// Seeded bugs of one system caught and missed by its campaigns of a
/// repetition, and the cases a sequential walk over those campaigns runs
/// before catching each caught bug, summed. A sweep walks in matrix order,
/// so a bug's count within its campaign is its first exposing case index
/// plus one; a search's is `SearchReport::cases_to_detect`.
fn detection(runs: &[&CampaignRun]) -> (Vec<&'static str>, Vec<&'static str>, usize) {
    let mut caught = Vec::new();
    let mut missed = Vec::new();
    let mut cases = 0;
    // Cases of the campaigns walked before the current one.
    let mut walked = 0;
    for run in runs {
        let (hit, miss) = catalog::recall(&run.report);
        for bug in catalog::seeded_bugs() {
            if !hit.contains(&bug.ticket) || caught.contains(&bug.ticket) {
                continue;
            }
            let (from, to) = (bug.from_version(), bug.to_version());
            let first = match &run.search {
                Some(search) => search.cases_to_detect(from, to, bug.marker),
                None => run
                    .observed
                    .first_index
                    .iter()
                    .zip(&run.report.failures)
                    .filter(|(_, f)| {
                        f.from == from
                            && f.to == to
                            && f.observations
                                .iter()
                                .any(|o| o.to_string().contains(bug.marker))
                    })
                    .map(|(index, _)| index + 1)
                    .min(),
            };
            cases += walked + first.expect("recall counted the bug as caught");
            caught.push(bug.ticket);
        }
        missed.extend(miss);
        walked += match &run.search {
            Some(search) => search.total_cases(),
            None => run.observed.status.iter().sum(),
        };
    }
    missed.retain(|ticket| !caught.contains(ticket));
    missed.sort_unstable();
    missed.dedup();
    (caught, missed, cases)
}

/// The untraced repetitions of a run, reduced to what the end-to-end
/// timings need. Every repetition runs the same campaigns on the same cases.
/// On a shared virtual machine the CPU's speed drifts by a fifth and more
/// within seconds, and the drift only ever slows work down, so a case's
/// least wall time over the repetitions is the figure the host disturbed
/// least; whole campaigns are too long to catch the host at its fastest.
#[derive(Default)]
struct Best {
    /// Per campaign, in repetition order: the least wall time in ms of each
    /// case that ran, by case index, and whether the case executed.
    least: Vec<HashMap<usize, (f64, bool)>>,
    /// Per repetition and campaign: its wall time, and the summed wall time
    /// of its cases in ms.
    walls: Vec<Vec<(Duration, f64)>>,
}

impl Best {
    /// Adds a repetition, or the first campaigns of one: a part counts only
    /// towards the cases' least times.
    fn add(&mut self, rep: &[CampaignRun], errors: &mut Vec<String>) {
        if self.least.is_empty() || rep.len() == self.least.len() {
            self.walls.push(
                rep.iter()
                    .map(|r| (r.wall, r.observed.ran_ms.iter().map(|c| c.1).sum()))
                    .collect(),
            );
        }
        if self.least.is_empty() {
            self.least = rep
                .iter()
                .map(|r| r.observed.ran_ms.iter().map(|&(i, ms, e)| (i, (ms, e))).collect())
                .collect();
            return;
        }
        for (run, least) in rep.iter().zip(&mut self.least) {
            let ran = &run.observed.ran_ms;
            let same = ran.len() == least.len()
                && ran
                    .iter()
                    .all(|(i, _, e)| least.get(i).is_some_and(|(_, first)| first == e));
            if !same {
                errors.push(format!(
                    "{}: the cases run differ from the first repetition's",
                    run.system
                ));
            }
            for &(index, ms, _) in ran {
                if let Some((l, _)) = least.get_mut(&index) {
                    *l = l.min(ms);
                }
            }
        }
    }

    /// The least wall time of every executed case, in ms.
    fn case_ms(&self) -> Vec<f64> {
        self.least
            .iter()
            .flat_map(|c| c.values().filter(|(_, e)| *e).map(|(ms, _)| *ms))
            .collect()
    }

    /// Executed cases per second of campaign wall time, at the host speed
    /// the cases' least times show. Each campaign's wall time in a
    /// repetition is scaled by how much faster its cases ran at their least
    /// than in that repetition, which keeps the executor's idle time and
    /// scheduling in the figure and takes the host's drift out; the figure
    /// is the median over the repetitions.
    fn cases_per_s(&self) -> f64 {
        let least: Vec<f64> = self
            .least
            .iter()
            .map(|c| c.values().map(|(ms, _)| ms).sum())
            .collect();
        let walls: Vec<f64> = self
            .walls
            .iter()
            .map(|rep| {
                rep.iter()
                    .zip(&least)
                    .map(|(&(wall, ms), least)| wall.as_secs_f64() * least / ms)
                    .sum()
            })
            .collect();
        self.case_ms().len() as f64 / stats::median(&walls).unwrap_or(f64::NAN)
    }
}

/// Set-up time of each seed set's campaigns in `rep`, summed over the
/// systems.
fn setup_s(rep: &[CampaignRun], sets: usize) -> Vec<f64> {
    (0..sets)
        .map(|set| {
            rep.iter()
                .filter(|r| r.set == set)
                .map(|r| r.setup.as_secs_f64())
                .sum()
        })
        .collect()
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut errors = Vec::new();
    let mut reference = Vec::new();
    let mut attempted = 0;
    let mut panicked = 0;
    let mut hung = 0;
    let mut reps = 0;
    let mut best = Best::default();
    let mut setup = Vec::new();
    let mut first = None;
    let mut layers = Layers::default();
    let mut untraced_wall = Duration::ZERO;
    let mut traced_wall = Duration::ZERO;
    let mut count = |rep: &[CampaignRun]| {
        for run in rep {
            attempted += run.observed.run;
            panicked += run.observed.count(CaseStatus::Panicked);
            hung += run.observed.count(CaseStatus::Hung);
        }
    };
    loop {
        let rep_started = Instant::now();
        let rep = run_rep(args.workload, args.seed, false, |_| true);
        check_rep(&rep, &mut reference, &mut errors);
        count(&rep);
        // Outputs that are the same in every repetition, and the memory
        // peak of a fixed amount of work: the first repetition.
        if first.is_none() {
            let peak_rss = peak_rss_mb();
            let (mut bugs, mut cases) = (0, 0);
            for &(name, _) in &SYSTEMS {
                let runs: Vec<&CampaignRun> = rep.iter().filter(|r| r.system == name).collect();
                let (caught, missed, to_detect) = detection(&runs);
                println!(
                    "{name}: {} cases run, {} executed in {:.3} s; caught {} seeded bugs, missed {missed:?}",
                    runs.iter().map(|r| r.observed.run).sum::<usize>(),
                    runs.iter().map(|r| r.observed.executed()).sum::<usize>(),
                    runs.iter().map(|r| r.wall).sum::<Duration>().as_secs_f64(),
                    caught.len(),
                );
                bugs += caught.len();
                cases += to_detect;
            }
            first = Some((bugs, cases, peak_rss));
        }
        let ms: Vec<f64> = rep
            .iter()
            .flat_map(|r| r.observed.ran_ms.iter().filter(|c| c.2).map(|c| c.1))
            .collect();
        let wall: Duration = rep.iter().map(|r| r.wall).sum();
        let setups = setup_s(&rep, args.workload.seed_sets());
        println!(
            "repetition {}: {} executed cases in {:.3} s ({:.1} cases/s), p50 {:.3} ms, \
             setup {:.3} ms, peak RSS {:.1} MB",
            reps + 1,
            ms.len(),
            wall.as_secs_f64(),
            ms.len() as f64 / wall.as_secs_f64(),
            stats::median(&ms).unwrap_or(0.0),
            stats::median(&setups).unwrap_or(0.0) * 1e3,
            peak_rss_mb().unwrap_or(0.0),
        );
        setup.extend(setups);
        if args.trace {
            untraced_wall += wall;
            let traced = run_rep(args.workload, args.seed, true, |_| true);
            check_rep(&traced, &mut reference, &mut errors);
            count(&traced);
            traced_wall += traced.iter().map(|r| r.wall).sum::<Duration>();
            layers.add(&traced);
        }
        best.add(&rep, &mut errors);
        reps += 1;
        // Stop when another repetition of the same length would overrun,
        // and spend the time left on the campaigns of one more repetition
        // that still fit, each as long as it took last time: their cases'
        // least times gain one more sample.
        let now = Instant::now();
        if now + (now - rep_started) > deadline {
            if !args.trace {
                let took: Vec<Duration> = rep.iter().map(|r| r.setup + r.wall).collect();
                let part = run_rep(args.workload, args.seed, false, |i| {
                    Instant::now() + took[i] <= deadline
                });
                check_rep(&part, &mut reference, &mut errors);
                count(&part);
                best.add(&part, &mut errors);
            }
            break;
        }
    }
    let (bugs, cases_to_detect, peak_rss) = first.expect("at least one repetition ran");
    let peak_rss = peak_rss.unwrap_or_else(|| {
        errors.push("no VmHWM in /proc/self/status".into());
        0.0
    });
    if bugs < args.workload.expected_bugs() {
        errors.push(format!(
            "caught {bugs} seeded bugs, expected {}",
            args.workload.expected_bugs()
        ));
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        if args.workload.is_search() {
            layers.replay_bootstrap_folds(args.seed);
        }
        let overhead = traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0;
        println!(
            "trace overhead: {:.1}% wall time over {} repetition pair(s)",
            overhead * 100.0,
            reps
        );
        layers.metrics(overhead)
    } else {
        let ms = best.case_ms();
        let tail = stats::tail_percentile(ms.len());
        match tail {
            Some(p) => println!(
                "case_ms_tail: p{} (the highest percentile with at least 10 of the {} executed \
                 cases beyond it), over each case's least time in {reps} repetition(s)",
                p as f64 / 1000.0,
                ms.len()
            ),
            None => errors.push(format!("{} executed cases are too few for a tail", ms.len())),
        }
        let values = [
            best.cases_per_s(),
            stats::median(&ms).unwrap_or(0.0),
            tail.and_then(|p| stats::percentile(&ms, p)).unwrap_or(0.0),
            stats::median(&setup).unwrap_or(0.0),
            peak_rss,
            bugs as f64,
            cases_to_detect as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };

    // Failed: every panicked or hung case, plus every failed output check.
    let failed = panicked + hung + errors.len();
    if panicked + hung > 0 {
        errors.push(format!("{panicked} panicked and {hung} hung case(s)"));
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::PER_LAYER;

    fn all_metrics() -> Vec<(&'static str, &'static str)> {
        let mut all = END_TO_END.to_vec();
        all.extend(PER_LAYER);
        all
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all = all_metrics();
        for (name, unit) in &all {
            assert!(!name.is_empty() && name.len() <= 64, "{name:?}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{name:?} is not [A-Za-z0-9_.-]+"
            );
            assert!(!unit.is_empty(), "{name} has no unit");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in all_metrics() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
