// Tests for the locality layer: sysfs topology parsing against fixture
// trees, tier classification, pin orders, victim tables, the two-level
// victim selector's distribution, the per-worker RNG seeds, and the
// scheduler-level steal-placement counter identities for every kind.
#include <sched.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sched/dispatch.h"
#include "sched/scheduler.h"
#include "sched/victim_select.h"
#include "support/rng.h"
#include "support/topology.h"

namespace lcws {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// fixture sysfs/procfs trees
// ---------------------------------------------------------------------------

class fixture_tree {
 public:
  explicit fixture_tree(const std::string& name) {
    root_ = fs::path(::testing::TempDir()) /
            ("lcws_topo_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~fixture_tree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content << "\n";
  }

  std::string path() const { return root_.string(); }

 private:
  fs::path root_;
};

void add_cpu(fixture_tree& t, int cpu, const std::string& siblings,
             const std::string& llc, int socket,
             const std::string& cluster = "") {
  const std::string d = "devices/system/cpu/cpu" + std::to_string(cpu);
  t.write(d + "/topology/thread_siblings_list", siblings);
  t.write(d + "/topology/physical_package_id", std::to_string(socket));
  if (!llc.empty()) t.write(d + "/cache/index3/shared_cpu_list", llc);
  if (!cluster.empty()) t.write(d + "/topology/cluster_cpus_list", cluster);
}

// One socket, 4 CPUs: SMT pairs (0,1) (2,3), one shared L3, one node.
void build_smt_1socket(fixture_tree& t) {
  t.write("devices/system/cpu/online", "0-3");
  add_cpu(t, 0, "0-1", "0-3", 0);
  add_cpu(t, 1, "0-1", "0-3", 0);
  add_cpu(t, 2, "2-3", "0-3", 0);
  add_cpu(t, 3, "2-3", "0-3", 0);
  t.write("devices/system/node/node0/cpulist", "0-3");
}

// Two sockets x two L3 domains x two SMT cores: 16 CPUs, 2 NUMA nodes.
// Socket 0 = cpus 0-7 (L3s 0-3 and 4-7), socket 1 = cpus 8-15.
void build_two_socket(fixture_tree& t) {
  t.write("devices/system/cpu/online", "0-15");
  for (int s = 0; s < 2; ++s) {
    const int base = s * 8;
    for (int c = 0; c < 8; ++c) {
      const int cpu = base + c;
      const int pair_lo = base + (c / 2) * 2;
      const int llc_lo = base + (c / 4) * 4;
      add_cpu(t, cpu,
              std::to_string(pair_lo) + "-" + std::to_string(pair_lo + 1),
              std::to_string(llc_lo) + "-" + std::to_string(llc_lo + 3), s);
    }
  }
  t.write("devices/system/node/node0/cpulist", "0-7");
  t.write("devices/system/node/node1/cpulist", "8-15");
}

// ---------------------------------------------------------------------------
// probe_topology + classify
// ---------------------------------------------------------------------------

TEST(Topology, Parses1SocketSmtFixture) {
  fixture_tree t("smt1s");
  build_smt_1socket(t);
  const cpu_topology topo = probe_topology(t.path());
  ASSERT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.cpus.size(), 4u);
  EXPECT_EQ(topo.socket_count(), 1u);
  EXPECT_EQ(topo.core_count(), 2u);
  EXPECT_EQ(topo.node_count(), 1u);
  ASSERT_NE(topo.find(2), nullptr);
  EXPECT_EQ(topo.find(2)->smt_group, 2);
  EXPECT_EQ(topo.find(2)->llc, 0);
  EXPECT_EQ(topo.find(2)->node, 0);

  EXPECT_EQ(classify(topo, 0, 0), locality_tier::smt);
  EXPECT_EQ(classify(topo, 0, 1), locality_tier::smt);
  EXPECT_EQ(classify(topo, 0, 2), locality_tier::llc);  // no cluster level
  EXPECT_EQ(classify(topo, 0, 99), locality_tier::remote);  // unknown cpu
}

TEST(Topology, Parses2SocketFixtureAllTiers) {
  fixture_tree t("2socket");
  build_two_socket(t);
  const cpu_topology topo = probe_topology(t.path());
  ASSERT_TRUE(topo.from_sysfs);
  ASSERT_EQ(topo.cpus.size(), 16u);
  EXPECT_EQ(topo.socket_count(), 2u);
  EXPECT_EQ(topo.core_count(), 8u);
  EXPECT_EQ(topo.node_count(), 2u);

  EXPECT_EQ(classify(topo, 0, 1), locality_tier::smt);     // same core
  EXPECT_EQ(classify(topo, 0, 2), locality_tier::llc);     // same L3
  EXPECT_EQ(classify(topo, 0, 4), locality_tier::socket);  // other L3
  EXPECT_EQ(classify(topo, 0, 8), locality_tier::remote);  // other node
  EXPECT_EQ(classify(topo, 8, 15), locality_tier::socket);
}

TEST(Topology, ClusterLevelGivesCoreTier) {
  fixture_tree t("cluster");
  t.write("devices/system/cpu/online", "0-7");
  for (int c = 0; c < 8; ++c) {
    const int pair_lo = (c / 2) * 2;
    const int cluster_lo = (c / 4) * 4;
    add_cpu(t, c, std::to_string(pair_lo) + "-" + std::to_string(pair_lo + 1),
            "0-7", 0,
            std::to_string(cluster_lo) + "-" + std::to_string(cluster_lo + 3));
  }
  t.write("devices/system/node/node0/cpulist", "0-7");
  const cpu_topology topo = probe_topology(t.path());
  EXPECT_EQ(classify(topo, 0, 2), locality_tier::core);  // same cluster
  EXPECT_EQ(classify(topo, 0, 4), locality_tier::llc);   // other cluster
}

TEST(Topology, DegenerateClusterIsDropped) {
  // A "cluster" spanning the whole LLC adds no information; keeping it
  // would misreport the llc tier as core.
  fixture_tree t("degcluster");
  t.write("devices/system/cpu/online", "0-3");
  for (int c = 0; c < 4; ++c) {
    const int pair_lo = (c / 2) * 2;
    add_cpu(t, c, std::to_string(pair_lo) + "-" + std::to_string(pair_lo + 1),
            "0-3", 0, "0-3");
  }
  const cpu_topology topo = probe_topology(t.path());
  ASSERT_NE(topo.find(0), nullptr);
  EXPECT_EQ(topo.find(0)->cluster, -1);
  EXPECT_EQ(classify(topo, 0, 2), locality_tier::llc);
}

TEST(Topology, MissingSysfsFallsBackFlat) {
  fixture_tree t("empty");
  const cpu_topology topo = probe_topology(t.path());
  EXPECT_FALSE(topo.from_sysfs);
  ASSERT_FALSE(topo.cpus.empty());
  EXPECT_EQ(topo.socket_count(), 0u);  // every level unknown
  // Distinct CPUs on the flat topology are remote: no false locality.
  if (topo.cpus.size() >= 2) {
    EXPECT_EQ(classify(topo, 0, 1), locality_tier::remote);
  }
  EXPECT_EQ(classify(topo, 0, 0), locality_tier::smt);
}

// ---------------------------------------------------------------------------
// probe_machine (satellite: ARM/container 0-socket clamp)
// ---------------------------------------------------------------------------

TEST(Machine, ArmCpuinfoWithoutIdsClampsToOne) {
  // ARM /proc/cpuinfo has no `physical id`/`core id` lines; with no sysfs
  // either, the old probe reported 0 sockets / 0 cores.
  fixture_tree proc("armproc");
  proc.write("cpuinfo",
             "processor\t: 0\nmodel name\t: ARMv8 Processor rev 3 (v8l)\n"
             "BogoMIPS\t: 38.40\nFeatures\t: fp asimd\n\n"
             "processor\t: 1\nmodel name\t: ARMv8 Processor rev 3 (v8l)\n");
  proc.write("meminfo", "MemTotal:        1024000 kB");
  fixture_tree sys("armsys");  // empty: no topology at all
  const machine_info info = probe_machine(proc.path(), sys.path());
  EXPECT_GE(info.sockets, 1u);
  EXPECT_GE(info.physical_cores, 1u);
  EXPECT_EQ(info.physical_cores, info.logical_cpus);
  EXPECT_EQ(info.cpu_model, "ARMv8 Processor rev 3 (v8l)");
  EXPECT_EQ(info.memory_bytes, 1024000u * 1024u);
}

TEST(Machine, PrefersSysfsCountsOverCpuinfo) {
  fixture_tree proc("sysproc");
  proc.write("cpuinfo", "model name\t: Fixture CPU\n");  // no id lines
  proc.write("meminfo", "MemTotal:        2048 kB");
  fixture_tree sys("syssys");
  build_two_socket(sys);
  const machine_info info = probe_machine(proc.path(), sys.path());
  EXPECT_EQ(info.sockets, 2u);
  EXPECT_EQ(info.physical_cores, 8u);
  EXPECT_EQ(info.logical_cpus, 16u);
}

// ---------------------------------------------------------------------------
// pin_order
// ---------------------------------------------------------------------------

TEST(PinOrder, CompactKeepsSiblingsAdjacent) {
  fixture_tree t("compact");
  build_two_socket(t);
  const cpu_topology topo = probe_topology(t.path());
  const std::vector<int> order = pin_order(topo, pin_mode::compact);
  ASSERT_EQ(order.size(), 16u);
  // Hierarchy-major: socket 0 fully before socket 1, SMT siblings adjacent.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i) << "at " << i;
}

TEST(PinOrder, ScatterOnePerCoreAcrossSockets) {
  fixture_tree t("scatter");
  build_two_socket(t);
  const cpu_topology topo = probe_topology(t.path());
  const std::vector<int> order = pin_order(topo, pin_mode::scatter);
  ASSERT_EQ(order.size(), 16u);
  // First 8 entries: one CPU per physical core, alternating sockets.
  std::set<int> cores_seen;
  for (int i = 0; i < 8; ++i) {
    const auto* info = topo.find(order[i]);
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(cores_seen.insert(info->smt_group).second)
        << "core repeated before all cores used";
    EXPECT_EQ(info->socket, i % 2) << "sockets not round-robined at " << i;
  }
  // Second half revisits the same cores (the SMT siblings).
  std::set<int> all(order.begin(), order.end());
  EXPECT_EQ(all.size(), 16u);
}

TEST(PinOrder, OffIsEmpty) {
  fixture_tree t("pinoff");
  build_smt_1socket(t);
  const cpu_topology topo = probe_topology(t.path());
  EXPECT_TRUE(pin_order(topo, pin_mode::off).empty());
}

// ---------------------------------------------------------------------------
// build_victim_table + victim_selector
// ---------------------------------------------------------------------------

TEST(VictimTable, TiersBracketNearestFirst) {
  fixture_tree t("vtable");
  build_two_socket(t);
  const cpu_topology topo = probe_topology(t.path());
  // Workers on cpus 0 (self), 1 (smt), 2 (llc), 4 (socket), 8 (remote),
  // and one unpinned worker (-1 => remote).
  const std::vector<int> cpus = {0, 1, 2, 4, 8, -1};
  const victim_table table = build_victim_table(topo, cpus, 0);
  ASSERT_EQ(table.order.size(), 5u);
  EXPECT_EQ(table.tier_of[1], static_cast<unsigned char>(locality_tier::smt));
  EXPECT_EQ(table.tier_of[2], static_cast<unsigned char>(locality_tier::llc));
  EXPECT_EQ(table.tier_of[3],
            static_cast<unsigned char>(locality_tier::socket));
  EXPECT_EQ(table.tier_of[4],
            static_cast<unsigned char>(locality_tier::remote));
  EXPECT_EQ(table.tier_of[5],
            static_cast<unsigned char>(locality_tier::remote));
  // order is tier-bucketed nearest-first.
  EXPECT_EQ(table.order[0], 1u);
  EXPECT_EQ(table.order[1], 2u);
  EXPECT_EQ(table.order[2], 3u);
  // tier_begin brackets: smt [0,1), core [1,1), llc [1,2), socket [2,3),
  // remote [3,5).
  EXPECT_EQ(table.tier_begin[0], 0u);
  EXPECT_EQ(table.tier_begin[1], 1u);
  EXPECT_EQ(table.tier_begin[2], 1u);
  EXPECT_EQ(table.tier_begin[3], 2u);
  EXPECT_EQ(table.tier_begin[4], 3u);
  EXPECT_EQ(table.tier_begin[5], 5u);
}

TEST(VictimSelector, VisitsEveryVictimAndPrefersNear) {
  fixture_tree t("select");
  build_two_socket(t);
  const cpu_topology topo = probe_topology(t.path());
  const std::vector<int> cpus = {0, 1, 2, 4, 8};
  victim_selector sel;
  sel.build(build_victim_table(topo, cpus, 0));
  ASSERT_FALSE(sel.empty());
  EXPECT_EQ(sel.tier_of(1), locality_tier::smt);
  EXPECT_EQ(sel.tier_size(locality_tier::smt), 1u);

  xoshiro256 rng(123);
  std::map<std::size_t, std::size_t> visits;
  std::size_t explorations = 0;
  constexpr std::size_t kPicks = 20000;
  for (std::size_t i = 0; i < kPicks; ++i) {
    bool explored = false;
    const std::size_t v =
        sel.pick(rng, [](std::size_t) { return 1u; }, &explored);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 4u);
    ++visits[v];
    explorations += explored ? 1 : 0;
  }
  // Starvation freedom: every victim (including remote) gets picked.
  for (std::size_t v = 1; v <= 4; ++v) {
    EXPECT_GT(visits[v], 0u) << "victim " << v << " starved";
  }
  // Geometric tier bias: the smt victim (p ~ 1/2) dominates the remote
  // one (p ~ 1/8 as the absorbing farthest tier): ratio ~3.7 with the
  // uniform exploration rounds folded in.
  EXPECT_GT(visits[1], 3 * visits[4]);
  // Exploration fires once per kExplorePeriod picks.
  EXPECT_EQ(explorations, kPicks / victim_selector::kExplorePeriod);
}

TEST(VictimSelector, UnpinnedWorkersDegradeToUniform) {
  // No pinning info at all: everything lands in the remote tier and the
  // selector is (success-weighted) uniform — no victim favored a priori.
  const cpu_topology topo;  // empty, never consulted for cpu -1
  const std::vector<int> cpus = {-1, -1, -1, -1};
  victim_selector sel;
  sel.build(build_victim_table(topo, cpus, 0));
  xoshiro256 rng(7);
  std::map<std::size_t, std::size_t> visits;
  for (std::size_t i = 0; i < 12000; ++i) {
    ++visits[sel.pick(rng, [](std::size_t) { return 1u; })];
  }
  for (std::size_t v = 1; v <= 3; ++v) {
    EXPECT_GT(visits[v], 2500u);  // ~4000 expected each
    EXPECT_LT(visits[v], 5500u);
  }
}

TEST(VictimSelector, WeightBiasesWithinTier) {
  // Two victims in one (remote) tier, one with a much better EWMA: the
  // power-of-two-choices pick should favor it ~3:1. Every 16th pick is a
  // uniform exploration round, so the expected hit rate is about 73%
  // (15/16 * 0.75 + 1/16 * 0.5).
  const cpu_topology topo;
  const std::vector<int> cpus = {-1, -1, -1};
  victim_selector sel;
  sel.build(build_victim_table(topo, cpus, 0));
  xoshiro256 rng(99);
  std::size_t hits = 0;
  constexpr std::size_t kPicks = 10000;
  for (std::size_t i = 0; i < kPicks; ++i) {
    hits += sel.pick(rng, [](std::size_t v) { return v == 1 ? 900u : 100u; })
            == 1;
  }
  EXPECT_GT(hits, kPicks / 2 + kPicks / 10);
}

// ---------------------------------------------------------------------------
// per-worker RNG seeding
// ---------------------------------------------------------------------------

TEST(Seeding, DefaultMatchesHistoricalSeeds) {
  // The per-worker streams are bit-identical to the historical seeding, so
  // every run keeps its victim-selection RNG streams.
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(worker_rng_seed(w), hash64(0x5eed5eedULL + w));
  }
}

// ---------------------------------------------------------------------------
// scheduler integration: counter identities + the locality switch
// ---------------------------------------------------------------------------

template <typename Sched>
void spin_tree(Sched& sched, int depth) {
  if (depth == 0) {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 2000; ++i) sink = sink + 1;
    return;
  }
  sched.pardo([&] { spin_tree(sched, depth - 1); },
              [&] { spin_tree(sched, depth - 1); });
}

// Four spin_tree(8) runs on a fresh P=4 pool of `kind`, parking off; the
// pool's counters over those runs.
stats::op_counters spin_tree_totals(sched_kind kind, bool locality) {
  stats::op_counters t;
  with_scheduler(
      kind, 4, pool_config{.parking = false, .locality = locality},
      [&](auto& sched) {
        EXPECT_EQ(sched.locality_active(), locality) << to_string(kind);
        if (!locality) {
          EXPECT_EQ(sched.pinned_cpu_of(0), -1) << to_string(kind);
        }
        sched.reset_counters();
        for (int rep = 0; rep < 4; ++rep) {
          sched.run([&] { spin_tree(sched, 8); });
        }
        t = sched.profile().totals;
      });
  return t;
}

// Steals that took a task: a wsmult steal whose claim exchange lost is
// counted in `steals` but took nothing (claims_lost is 0 elsewhere).
std::uint64_t won_steals(const stats::op_counters& t) {
  return t.steals - t.claims_lost;
}

TEST(SchedulerLocality, StealCountersSatisfyIdentity) {
  for (const sched_kind kind : all_sched_kinds) {
    const auto t = spin_tree_totals(kind, true);
    // Every won steal is classified exactly once:
    //   steals - claims_lost == steals_near + steals_remote
    //                        == sum(steals_by_tier)
    std::uint64_t by_tier = 0;
    for (std::size_t i = 0; i < stats::kStealTierCount; ++i) {
      by_tier += t.steals_by_tier[i];
    }
    EXPECT_EQ(won_steals(t), t.steals_near + t.steals_remote)
        << to_string(kind);
    EXPECT_EQ(won_steals(t), by_tier) << to_string(kind);
    EXPECT_GE(t.steal_attempts, t.steals) << to_string(kind);
  }
}

TEST(SchedulerLocality, DisabledKeepsLegacyCountersZero) {
  for (const sched_kind kind : all_sched_kinds) {
    const auto t = spin_tree_totals(kind, false);
    EXPECT_EQ(t.steals_near, 0u) << to_string(kind);
    EXPECT_EQ(t.steals_remote, 0u) << to_string(kind);
    EXPECT_EQ(t.locality_explores, 0u) << to_string(kind);
    for (std::size_t i = 0; i < stats::kStealTierCount; ++i) {
      EXPECT_EQ(t.steals_by_tier[i], 0u) << to_string(kind);
    }
  }
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

// With real topology, locality-aware selection lands a near steal at least
// once. Summed over every kind so sparse steal counts cannot flake.
TEST(SchedulerLocality, NearStealsOnMultiCpuHosts) {
  if (usable_cpus() < 2) {
    GTEST_SKIP() << "fewer than 2 usable CPUs: the topology is one flat "
                    "tier, so near and remote merge";
  }
  std::uint64_t won = 0;
  std::uint64_t near = 0;
  for (const sched_kind kind : all_sched_kinds) {
    const auto t = spin_tree_totals(kind, true);
    won += won_steals(t);
    near += t.steals_near;
  }
  if (won < 50) {
    GTEST_SKIP() << "only " << won << " won steals (< 50)";
  }
  EXPECT_GT(near, 0u) << "no near steal among " << won << " won steals";
}

TEST(SchedulerLocality, SingleWorkerNeverActivates) {
  // Locality machinery is pointless with no victims; P=1 must not pin.
  ws_scheduler sched(1, pool_config{.parking = false, .locality = true});
  EXPECT_FALSE(sched.locality_active());
  const int got = sched.run([&] { return 17; });
  EXPECT_EQ(got, 17);
}

}  // namespace
}  // namespace lcws
