#include "support/topology.h"

#include <sys/utsname.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

namespace lcws {
namespace {

// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// Splits "key : value" cpuinfo/meminfo lines.
bool split_kv(const std::string& line, std::string& key, std::string& value) {
  const auto colon = line.find(':');
  if (colon == std::string::npos) return false;
  key = trim(line.substr(0, colon));
  value = trim(line.substr(colon + 1));
  return true;
}

// First line of a sysfs file, trimmed; empty when unreadable.
std::string read_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  return trim(line);
}

// Parses a sysfs integer attribute; `fallback` when absent/garbled.
int read_int(const std::string& path, int fallback) {
  const std::string s = read_line(path);
  if (s.empty()) return fallback;
  try {
    return std::stoi(s);
  } catch (...) {
    return fallback;
  }
}

// Parses a sysfs cpulist ("0-3,8,10-11") into CPU ids; empty on failure.
std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    const auto dash = item.find('-');
    try {
      if (dash == std::string::npos) {
        out.push_back(std::stoi(item));
      } else {
        const int lo = std::stoi(item.substr(0, dash));
        const int hi = std::stoi(item.substr(dash + 1));
        for (int c = lo; c <= hi && c - lo < 4096; ++c) out.push_back(c);
      }
    } catch (...) {
      return {};
    }
  }
  return out;
}

// Group id normalization: the smallest CPU in the group's cpulist, or
// `fallback` when the attribute is missing.
int group_of(const std::string& path, int fallback) {
  const auto cpus = parse_cpulist(read_line(path));
  if (cpus.empty()) return fallback;
  return *std::min_element(cpus.begin(), cpus.end());
}

bool exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

// Last-level-cache domain of one CPU: the shared_cpu_list of the highest
// populated cache index (index3 = L3, else index2 = L2), normalized to its
// smallest member; falls back to the die, then -1.
int llc_group(const std::string& cpu_dir) {
  for (const char* index : {"index3", "index2"}) {
    const std::string shared =
        cpu_dir + "/cache/" + index + "/shared_cpu_list";
    if (exists(shared)) return group_of(shared, -1);
  }
  const std::string die = cpu_dir + "/topology/die_cpus_list";
  if (exists(die)) return group_of(die, -1);
  return -1;
}

// Drops degenerate cluster groups: a "cluster" equal to its core (nothing
// between core and LLC) or spanning at least its LLC (kernels report the
// whole package when clustering is unsupported) would break the tier
// ordering smt < core < llc, so it is treated as absent.
void normalize_clusters(cpu_topology& topo) {
  std::map<int, std::size_t> cluster_size, core_size, llc_size;
  for (const auto& c : topo.cpus) {
    if (c.cluster >= 0) ++cluster_size[c.cluster];
    if (c.smt_group >= 0) ++core_size[c.smt_group];
    if (c.llc >= 0) ++llc_size[c.llc];
  }
  for (auto& c : topo.cpus) {
    if (c.cluster < 0) continue;
    const std::size_t size = cluster_size[c.cluster];
    const bool degenerate_core =
        c.smt_group >= 0 && size <= core_size[c.smt_group];
    const bool degenerate_llc = c.llc >= 0 && size >= llc_size[c.llc];
    if (degenerate_core || degenerate_llc) c.cluster = -1;
  }
}

}  // namespace

const char* to_string(locality_tier tier) noexcept {
  switch (tier) {
    case locality_tier::smt: return "smt";
    case locality_tier::core: return "core";
    case locality_tier::llc: return "llc";
    case locality_tier::socket: return "socket";
    case locality_tier::remote: return "remote";
  }
  return "?";
}

const char* to_string(pin_mode mode) noexcept {
  switch (mode) {
    case pin_mode::compact: return "compact";
    case pin_mode::scatter: return "scatter";
    case pin_mode::off: return "off";
  }
  return "?";
}

const cpu_topology::cpu_info* cpu_topology::find(int cpu) const noexcept {
  // cpus is sorted by id; binary search keeps classify() cheap.
  const auto it = std::lower_bound(
      cpus.begin(), cpus.end(), cpu,
      [](const cpu_info& info, int c) { return info.cpu < c; });
  if (it == cpus.end() || it->cpu != cpu) return nullptr;
  return &*it;
}

std::size_t cpu_topology::socket_count() const {
  std::set<int> ids;
  for (const auto& c : cpus) {
    if (c.socket >= 0) ids.insert(c.socket);
  }
  return ids.size();
}

std::size_t cpu_topology::core_count() const {
  std::set<int> ids;
  for (const auto& c : cpus) {
    if (c.smt_group >= 0) ids.insert(c.smt_group);
  }
  return ids.size();
}

std::size_t cpu_topology::node_count() const {
  std::set<int> ids;
  for (const auto& c : cpus) {
    if (c.node >= 0) ids.insert(c.node);
  }
  return ids.size();
}

cpu_topology probe_topology() { return probe_topology("/sys"); }

cpu_topology probe_topology(const std::string& sysfs_root) {
  cpu_topology topo;
  const std::string cpu_root = sysfs_root + "/devices/system/cpu";

  // Enumerate online CPUs: the `online` cpulist when present, else scan
  // for cpuN/topology directories (some fixture/container trees omit the
  // aggregate files).
  std::vector<int> online = parse_cpulist(read_line(cpu_root + "/online"));
  if (online.empty()) {
    for (int c = 0; c < 4096; ++c) {
      const std::string dir = cpu_root + "/cpu" + std::to_string(c);
      if (!exists(dir + "/topology/core_id") &&
          !exists(dir + "/topology/thread_siblings_list")) {
        if (c > 0) break;  // cpu0 may lack an online file but must exist
        continue;
      }
      online.push_back(c);
    }
  }
  std::sort(online.begin(), online.end());
  online.erase(std::unique(online.begin(), online.end()), online.end());

  for (const int c : online) {
    const std::string dir = cpu_root + "/cpu" + std::to_string(c);
    const std::string topo_dir = dir + "/topology";
    cpu_topology::cpu_info info;
    info.cpu = c;
    info.smt_group = group_of(topo_dir + "/thread_siblings_list",
                              group_of(topo_dir + "/core_cpus_list", -1));
    info.cluster = group_of(topo_dir + "/cluster_cpus_list", -1);
    info.llc = llc_group(dir);
    info.socket = read_int(topo_dir + "/physical_package_id", -1);
    if (info.smt_group >= 0 || info.socket >= 0 || info.llc >= 0) {
      topo.from_sysfs = true;
    }
    topo.cpus.push_back(info);
  }

  if (!topo.from_sysfs) {
    // Flat fallback: every level unknown; classify() lands everything in
    // the remote tier and victim selection degrades to success-weighted
    // uniform sampling.
    topo.cpus.clear();
    unsigned n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
    for (unsigned c = 0; c < n; ++c) {
      cpu_topology::cpu_info info;
      info.cpu = static_cast<int>(c);
      topo.cpus.push_back(info);
    }
    return topo;
  }

  // NUMA nodes.
  const std::string node_root = sysfs_root + "/devices/system/node";
  for (int n = 0; n < 1024; ++n) {
    const std::string list =
        read_line(node_root + "/node" + std::to_string(n) + "/cpulist");
    if (list.empty()) {
      if (n > 0) break;
      continue;  // node0 can be absent on some single-node containers
    }
    const std::vector<int> node_cpus = parse_cpulist(list);
    for (auto& info : topo.cpus) {
      if (std::find(node_cpus.begin(), node_cpus.end(), info.cpu) !=
          node_cpus.end()) {
        info.node = n;
      }
    }
  }

  normalize_clusters(topo);
  return topo;
}

locality_tier classify(const cpu_topology& topo, int cpu_a,
                       int cpu_b) noexcept {
  if (cpu_a == cpu_b && cpu_a >= 0) return locality_tier::smt;
  const auto* a = topo.find(cpu_a);
  const auto* b = topo.find(cpu_b);
  if (a == nullptr || b == nullptr) return locality_tier::remote;
  // NUMA boundary dominates: a different node is remote even inside one
  // package (sub-NUMA clustering).
  const bool same_node = a->node < 0 || b->node < 0 || a->node == b->node;
  if (!same_node) return locality_tier::remote;
  if (a->smt_group >= 0 && a->smt_group == b->smt_group) {
    return locality_tier::smt;
  }
  if (a->cluster >= 0 && a->cluster == b->cluster) return locality_tier::core;
  if (a->llc >= 0 && a->llc == b->llc) return locality_tier::llc;
  if (a->socket >= 0 && a->socket == b->socket) return locality_tier::socket;
  return locality_tier::remote;
}

std::vector<int> pin_order(const cpu_topology& topo, pin_mode mode) {
  if (mode == pin_mode::off || topo.cpus.empty()) return {};
  // Compact order: hierarchy-major, so consecutive CPUs share the deepest
  // possible level (SMT siblings adjacent, then cores, LLCs, sockets).
  std::vector<cpu_topology::cpu_info> sorted = topo.cpus;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return std::tie(a.node, a.socket, a.llc, a.cluster,
                                     a.smt_group, a.cpu) <
                            std::tie(b.node, b.socket, b.llc, b.cluster,
                                     b.smt_group, b.cpu);
                   });
  if (mode == pin_mode::compact) {
    std::vector<int> out;
    out.reserve(sorted.size());
    for (const auto& c : sorted) out.push_back(c.cpu);
    return out;
  }
  // Scatter: breadth-first over the same order — the first thread of every
  // core across all sockets (round-robin), then the second threads, and so
  // on. P <= core-count workers land one-per-core with full memory
  // bandwidth instead of stacking SMT siblings.
  std::map<int, std::vector<int>> by_core;  // smt group -> cpus, compact order
  std::vector<int> core_order;              // first-appearance order
  for (const auto& c : sorted) {
    const int group = c.smt_group >= 0 ? c.smt_group : c.cpu;
    auto [it, inserted] = by_core.try_emplace(group);
    if (inserted) core_order.push_back(group);
    it->second.push_back(c.cpu);
  }
  // Round-robin cores across sockets: interleave by socket bucket.
  std::map<int, std::vector<int>> socket_cores;  // socket -> core groups
  std::vector<int> socket_order;
  for (const int group : core_order) {
    const auto* info = topo.find(by_core[group].front());
    const int socket = info != nullptr ? info->socket : -1;
    auto [it, inserted] = socket_cores.try_emplace(socket);
    if (inserted) socket_order.push_back(socket);
    it->second.push_back(group);
  }
  std::vector<int> interleaved_cores;
  for (std::size_t i = 0; !socket_order.empty(); ++i) {
    bool any = false;
    for (const int socket : socket_order) {
      auto& cores = socket_cores[socket];
      if (i < cores.size()) {
        interleaved_cores.push_back(cores[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  std::vector<int> out;
  out.reserve(topo.cpus.size());
  for (std::size_t rank = 0; out.size() < topo.cpus.size(); ++rank) {
    bool any = false;
    for (const int group : interleaved_cores) {
      const auto& threads = by_core[group];
      if (rank < threads.size()) {
        out.push_back(threads[rank]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

victim_table build_victim_table(const cpu_topology& topo,
                                const std::vector<int>& cpu_of_worker,
                                std::size_t self) {
  victim_table table;
  const std::size_t n = cpu_of_worker.size();
  table.tier_of.assign(n, static_cast<unsigned char>(locality_tier::remote));
  if (self < n) {
    table.tier_of[self] = static_cast<unsigned char>(locality_tier::smt);
  }
  std::array<std::vector<std::uint32_t>, kNumLocalityTiers> buckets;
  const int self_cpu = self < n ? cpu_of_worker[self] : -1;
  for (std::size_t v = 0; v < n; ++v) {
    if (v == self) continue;
    locality_tier tier = locality_tier::remote;
    if (self_cpu >= 0 && cpu_of_worker[v] >= 0) {
      tier = classify(topo, self_cpu, cpu_of_worker[v]);
    }
    table.tier_of[v] = static_cast<unsigned char>(tier);
    buckets[static_cast<std::size_t>(tier)].push_back(
        static_cast<std::uint32_t>(v));
  }
  table.order.reserve(n == 0 ? 0 : n - 1);
  for (std::size_t t = 0; t < kNumLocalityTiers; ++t) {
    table.tier_begin[t] = static_cast<std::uint32_t>(table.order.size());
    table.order.insert(table.order.end(), buckets[t].begin(),
                       buckets[t].end());
  }
  table.tier_begin[kNumLocalityTiers] =
      static_cast<std::uint32_t>(table.order.size());
  return table;
}

machine_info probe_machine() { return probe_machine("/proc", "/sys"); }

machine_info probe_machine(const std::string& proc_root,
                           const std::string& sysfs_root) {
  machine_info info;
  info.logical_cpus = std::thread::hardware_concurrency();
  if (info.logical_cpus == 0) info.logical_cpus = 1;

  std::ifstream cpuinfo(proc_root + "/cpuinfo");
  std::set<std::string> physical_ids;
  std::set<std::pair<std::string, std::string>> cores;  // (physical id, core id)
  std::string current_physical_id;
  std::string line, key, value;
  while (std::getline(cpuinfo, line)) {
    if (!split_kv(line, key, value)) continue;
    if (key == "model name" && info.cpu_model.empty()) {
      info.cpu_model = value;
    } else if (key == "physical id") {
      current_physical_id = value;
      physical_ids.insert(value);
    } else if (key == "core id") {
      cores.insert({current_physical_id, value});
    }
  }
  info.sockets = physical_ids.size();
  info.physical_cores = cores.size();

  // Prefer sysfs: /proc/cpuinfo omits `physical id`/`core id` on ARM and
  // in many containers, which used to report 0 sockets / 0 cores.
  const cpu_topology topo = probe_topology(sysfs_root);
  if (topo.from_sysfs) {
    if (const std::size_t s = topo.socket_count(); s > 0) info.sockets = s;
    if (const std::size_t c = topo.core_count(); c > 0) {
      info.physical_cores = c;
    }
    if (!topo.cpus.empty()) info.logical_cpus = topo.cpus.size();
  }
  if (info.sockets == 0) info.sockets = 1;
  if (info.physical_cores == 0) info.physical_cores = info.logical_cpus;

  std::ifstream meminfo(proc_root + "/meminfo");
  while (std::getline(meminfo, line)) {
    if (!split_kv(line, key, value)) continue;
    if (key == "MemTotal") {
      std::istringstream iss(value);
      std::size_t kib = 0;
      iss >> kib;
      info.memory_bytes = kib * 1024;
      break;
    }
  }

  utsname uts{};
  if (uname(&uts) == 0) {
    info.os = std::string(uts.sysname) + " " + uts.release;
  }
  return info;
}

std::string format_machine(const machine_info& info) {
  std::ostringstream out;
  out << "CPU:    " << (info.cpu_model.empty() ? "unknown" : info.cpu_model)
      << "\n";
  out << "Topo:   " << info.sockets << " socket(s), " << info.physical_cores
      << " core(s), " << info.logical_cpus << " hardware thread(s)\n";
  out << "Memory: " << (info.memory_bytes >> 20) << " MiB\n";
  out << "OS:     " << (info.os.empty() ? "unknown" : info.os) << "\n";
  return out.str();
}

}  // namespace lcws
