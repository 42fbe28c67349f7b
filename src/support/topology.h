// Hardware topology probe.
//
// Two consumers:
//   * bench/table1_machines reproduces the paper's Table 1 (the machines
//     used in the evaluation) by reporting the local host's CPU model,
//     core/thread counts and memory — so EXPERIMENTS.md can record
//     paper-vs-local hardware (probe_machine / format_machine).
//   * the locality-aware victim-selection layer (DESIGN.md §7) needs the
//     *full* per-CPU hierarchy — SMT sibling, cluster, last-level cache,
//     socket and NUMA node per logical CPU — to pin workers and order
//     steal victims by distance (probe_topology / classify / pin_order /
//     build_victim_table).
//
// The hierarchy comes from sysfs (/sys/devices/system/cpu/cpu*/topology,
// .../cache, /sys/devices/system/node); every path takes an overridable
// root so tests can parse fixture trees. Hosts without sysfs (or with a
// stripped container mount) fall back to a flat single-tier topology —
// every function degrades, none fail.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lcws {

struct machine_info {
  std::string cpu_model;        // e.g. "AMD Opteron 6272"
  std::size_t logical_cpus;     // threads visible to the OS
  std::size_t physical_cores;   // best-effort (core id count); >= 1
  std::size_t sockets;          // best-effort; >= 1
  std::size_t memory_bytes;     // MemTotal; 0 if unknown
  std::string os;               // kernel identification
};

// Probes sysfs (preferred), /proc/cpuinfo, /proc/meminfo and uname. Never
// throws; missing information is left zero/empty, except sockets and
// physical_cores which are clamped to >= 1 (ARM and container kernels omit
// the `physical id`/`core id` cpuinfo lines, which used to report 0).
machine_info probe_machine();

// Fixture-rooted variant for tests: `proc_root` replaces "/proc",
// `sysfs_root` replaces "/sys".
machine_info probe_machine(const std::string& proc_root,
                           const std::string& sysfs_root);

// Human-readable one-paragraph rendering, in the shape of the paper's
// Table 1 row.
std::string format_machine(const machine_info& info);

// ---- locality hierarchy ----------------------------------------------------

// Steal-victim distance tiers, nearest first. `smt` is a victim on the
// same physical core (an SMT sibling, or a worker sharing our logical CPU
// under oversubscription); `core` is the same cluster/module (e.g. an AMD
// CCX or Arm DynamIQ cluster — empty on machines that don't expose one);
// `llc` shares the last-level cache; `socket` shares the package and NUMA
// node; everything else — other package or other NUMA node — is `remote`.
enum class locality_tier : unsigned char {
  smt = 0,
  core = 1,
  llc = 2,
  socket = 3,
  remote = 4,
};
inline constexpr std::size_t kNumLocalityTiers = 5;

// Tiers at or below this share a cache with the thief: the steals_near /
// steals_remote counter split (stats/counters.h).
inline constexpr locality_tier kNearestRemoteTier = locality_tier::socket;

const char* to_string(locality_tier tier) noexcept;

// Per-CPU hierarchy. Group ids are normalized to the smallest CPU number
// in the group (globally unique, no per-level namespace juggling); -1
// means the level is unknown/not exposed.
struct cpu_topology {
  struct cpu_info {
    int cpu = -1;
    int smt_group = -1;  // physical core (thread_siblings / core_cpus)
    int cluster = -1;    // cluster/module (cluster_cpus); -1 if absent or
                         // degenerate (== core or >= LLC span)
    int llc = -1;        // last-level cache domain (cache/index3|2, or die)
    int socket = -1;     // physical_package_id
    int node = -1;       // NUMA node
  };

  std::vector<cpu_info> cpus;  // online CPUs, ascending cpu id
  bool from_sysfs = false;     // false: flat fallback topology

  const cpu_info* find(int cpu) const noexcept;
  std::size_t socket_count() const;
  std::size_t core_count() const;  // distinct smt groups
  std::size_t node_count() const;
};

// Parses the full hierarchy from sysfs. Falls back to a flat topology
// (hardware_concurrency CPUs, every level unknown) when sysfs is absent.
cpu_topology probe_topology();
cpu_topology probe_topology(const std::string& sysfs_root);

// Distance tier between two logical CPUs (same CPU classifies as smt).
// Unknown CPUs classify as remote.
locality_tier classify(const cpu_topology& topo, int cpu_a,
                       int cpu_b) noexcept;

// Worker-pinning placement policies (LCWS_PIN).
enum class pin_mode : unsigned char {
  compact,  // fill SMT siblings, then cores, then LLCs, then sockets
  scatter,  // one thread per core first, round-robin across sockets
  off,      // no pinning: victim tables collapse to a single flat tier
};

const char* to_string(pin_mode mode) noexcept;

// CPU ids in worker-assignment order for the given policy (worker i is
// pinned to order[i % order.size()]). Empty when mode is `off` or the
// topology has no CPUs.
std::vector<int> pin_order(const cpu_topology& topo, pin_mode mode);

// One worker's distance-ordered victim table, precomputed so the steal hot
// path is allocation-free: `order` lists every other worker nearest-first,
// `tier_begin[t]..tier_begin[t+1]` brackets tier t inside it, and
// `tier_of[v]` is victim v's tier (self maps to smt, vacuously).
struct victim_table {
  std::vector<std::uint32_t> order;
  std::array<std::uint32_t, kNumLocalityTiers + 1> tier_begin{};
  std::vector<unsigned char> tier_of;

  bool empty() const noexcept { return order.empty(); }
};

// Builds worker `self`'s table from the per-worker CPU assignment
// (cpu_of_worker[i] == -1 when worker i is unpinned, which lands every
// victim in the remote tier — the selector then degenerates to uniform
// sampling plus success weighting).
victim_table build_victim_table(const cpu_topology& topo,
                                const std::vector<int>& cpu_of_worker,
                                std::size_t self);

}  // namespace lcws
