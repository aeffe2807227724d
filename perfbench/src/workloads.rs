//! The benchmark's workloads: each one a campaign configuration over the
//! four bundled systems, generated from the workload seed. The program sees
//! only the generated configuration.

use dup_core::SystemUnderTest;
use dup_tester::{Campaign, CampaignBuilder, Durability, FaultIntensity};
use dup_tester::{Scenario, SearchConfig};

/// Worker threads every campaign runs with.
pub const THREADS: usize = 2;

/// The four bundled systems, with the short names per-system metrics use.
pub const SYSTEMS: [(&str, &'static dyn SystemUnderTest); 4] = [
    ("kvstore", &dup_kvstore::KvStoreSystem),
    ("dfs", &dup_dfs::DfsSystem),
    ("mq", &dup_mq::MqSystem),
    ("coord", &dup_coord::CoordSystem),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven rollout-plan scenarios under heavy faults and torn
    /// durability, stress workload only, three seeds per seed set.
    ChaosRollout,
    /// Coverage-guided search over the seven scenarios with light faults,
    /// bootstrapping each group from three seeds with a budget of six cases.
    GuidedSearch,
}

/// Case seeds per seed set. Seeds are consecutive, as in the
/// repository's own `seeds([1, 2, 3])` campaigns.
const SEEDS: u64 = 3;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ChaosRollout, Workload::GuidedSearch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChaosRollout => "chaos_rollout",
            Workload::GuidedSearch => "guided_search",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeded bugs the workload catches over the four systems: every bug
    /// of the catalog its scenarios and workloads can reach. Fewer is an
    /// output error.
    pub fn expected_bugs(self) -> usize {
        match self {
            Workload::ChaosRollout | Workload::GuidedSearch => 14,
        }
    }

    /// Seed sets a repetition runs, each as campaigns of its own. How long
    /// a case runs depends on its seed, so covering several sets drawn from
    /// the workload seed makes a repetition's figures depend less on which
    /// seeds were drawn. More sets also make a repetition longer and leave
    /// fewer in a run to take each case's least time over. Two sets keep
    /// `chaos_rollout`'s tail at p90, where its cases are dense, rather than
    /// at p99 among its few long fault-recovery cases.
    pub fn seed_sets(self) -> usize {
        match self {
            Workload::ChaosRollout => 2,
            Workload::GuidedSearch => 4,
        }
    }

    /// Whether the workload runs `Campaign::run_search`.
    pub fn is_search(self) -> bool {
        self == Workload::GuidedSearch
    }

    /// The campaigns a repetition runs on each system, as their seed set
    /// and case seeds, generated from the workload seed.
    pub fn campaigns(self, seed: u64) -> Vec<(usize, Vec<u64>)> {
        let mut campaigns = Vec::new();
        for set in 0..self.seed_sets() {
            let base = draw(seed, set);
            campaigns.push((set, (0..SEEDS).map(|i| base.wrapping_add(i)).collect()));
        }
        campaigns
    }

    /// The campaign this workload runs on `sut` over the case `seeds`;
    /// `seed` is the workload seed, which also draws the search's mutation
    /// seed.
    pub fn builder<'a>(
        self,
        sut: &'a dyn SystemUnderTest,
        seeds: &[u64],
        seed: u64,
    ) -> CampaignBuilder<'a> {
        let builder = Campaign::builder(sut).threads(THREADS);
        let seeds = seeds.iter().copied();
        match self {
            Workload::ChaosRollout => builder
                .seeds(seeds)
                .scenarios(Scenario::extended())
                .unit_tests(false)
                .faults([FaultIntensity::Heavy])
                .durabilities([Durability::Torn]),
            Workload::GuidedSearch => {
                let initial_seeds: Vec<u64> = seeds.collect();
                builder
                    .scenarios(Scenario::extended())
                    .unit_tests(false)
                    .faults([FaultIntensity::Light])
                    .search(SearchConfig {
                        budget_per_group: 2 * initial_seeds.len(),
                        initial_seeds,
                        search_seed: draw(seed, self.seed_sets()),
                        ..SearchConfig::default()
                    })
            }
        }
    }
}

/// Draw `i` of the workload seed's SplitMix64 stream: draws
/// `0..seed_sets()` are the seed sets' first case seeds, draw `seed_sets()` the
/// search's mutation seed.
fn draw(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
