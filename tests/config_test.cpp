// pool_config (sched/config.h), the one place the library reads its LCWS_*
// variables: from_env() on its own, table-driven; the defaults against an
// empty environment; with_scheduler re-reading the environment for every
// pool; and every setting on the first line of the worker dump.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sched/config.h"
#include "sched/dispatch.h"
#include "sched/scheduler.h"

namespace lcws {
namespace {

using namespace std::chrono_literals;

constexpr const char* kVariables[] = {
    "LCWS_PIN",          "LCWS_WATCHDOG_MS", "LCWS_RUN_TIMEOUT_MS",
    "LCWS_DUMP_ON_EXIT", "LCWS_TRACE",       "LCWS_TRACE_RING",
    "LCWS_PERF"};

// Each test starts with the seven variables unset and leaves them as it
// found them.
class PoolConfig : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::size_t i = 0; i < std::size(kVariables); ++i) {
      if (const char* v = std::getenv(kVariables[i])) saved_[i] = v;
      ::unsetenv(kVariables[i]);
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < std::size(kVariables); ++i) {
      if (saved_[i]) {
        ::setenv(kVariables[i], saved_[i]->c_str(), 1);
      } else {
        ::unsetenv(kVariables[i]);
      }
    }
  }

 private:
  std::optional<std::string> saved_[std::size(kVariables)];
};

std::string tmp_path(const std::string& stem) {
  return ::testing::TempDir() + "lcws_config_" + stem + "_" +
         std::to_string(::getpid());
}

// The field `variable` sets, as text, so one table covers every type.
std::string field_of(const pool_config& c, std::string_view variable) {
  if (variable == "LCWS_PIN") return to_string(c.pin);
  if (variable == "LCWS_WATCHDOG_MS") {
    return std::to_string(c.watchdog.count());
  }
  if (variable == "LCWS_RUN_TIMEOUT_MS") {
    return std::to_string(c.run_timeout.count());
  }
  if (variable == "LCWS_DUMP_ON_EXIT") return c.dump_on_exit;
  if (variable == "LCWS_TRACE") return c.trace;
  if (variable == "LCWS_TRACE_RING") return std::to_string(c.trace_ring);
  return c.perf ? "on" : "off";  // LCWS_PERF
}

TEST_F(PoolConfig, FromEnvReadsEveryKnob) {
  struct row {
    const char* variable;
    const char* value;  // nullptr: unset
    const char* field;  // as field_of renders it
  };
  const row rows[] = {
      {"LCWS_PIN", "compact", "compact"},
      {"LCWS_PIN", "scatter", "scatter"},
      {"LCWS_PIN", "off", "off"},
      {"LCWS_PIN", "0", "off"},
      {"LCWS_PIN", "sideways", "scatter"},
      {"LCWS_PIN", nullptr, "scatter"},
      {"LCWS_WATCHDOG_MS", "250", "250"},
      {"LCWS_WATCHDOG_MS", "0", "0"},
      {"LCWS_WATCHDOG_MS", "garbage", "0"},
      {"LCWS_WATCHDOG_MS", "250ms", "0"},
      {"LCWS_WATCHDOG_MS", nullptr, "0"},
      {"LCWS_RUN_TIMEOUT_MS", "50", "50"},
      {"LCWS_RUN_TIMEOUT_MS", "-5", "0"},
      {"LCWS_RUN_TIMEOUT_MS", " 50", "0"},
      {"LCWS_RUN_TIMEOUT_MS", "99999999999999999999", "0"},
      {"LCWS_RUN_TIMEOUT_MS", "", "0"},
      {"LCWS_RUN_TIMEOUT_MS", nullptr, "0"},
      {"LCWS_DUMP_ON_EXIT", "stderr", "stderr"},
      {"LCWS_DUMP_ON_EXIT", "/var/tmp/dump.txt", "/var/tmp/dump.txt"},
      {"LCWS_DUMP_ON_EXIT", "", ""},
      {"LCWS_DUMP_ON_EXIT", nullptr, ""},
      {"LCWS_TRACE", "trace.json", "trace.json"},
      {"LCWS_TRACE", "", ""},
      {"LCWS_TRACE", nullptr, ""},
      {"LCWS_TRACE_RING", "65536", "65536"},
      {"LCWS_TRACE_RING", "8", "8"},
      {"LCWS_TRACE_RING", "1048576", "1048576"},  // the 2^20 cap itself
      {"LCWS_TRACE_RING", "7", "4096"},
      {"LCWS_TRACE_RING", "1048577", "4096"},
      {"LCWS_TRACE_RING", "65536abc", "4096"},
      {"LCWS_TRACE_RING", "100000000", "4096"},
      {"LCWS_TRACE_RING", "-5", "4096"},
      {"LCWS_TRACE_RING", "", "4096"},
      {"LCWS_TRACE_RING", nullptr, "4096"},
      {"LCWS_PERF", "0", "off"},
      {"LCWS_PERF", "off", "off"},
      {"LCWS_PERF", "1", "on"},
      {"LCWS_PERF", "", "on"},
      {"LCWS_PERF", nullptr, "on"},
  };
  for (const row& r : rows) {
    if (r.value != nullptr) ::setenv(r.variable, r.value, 1);
    EXPECT_EQ(field_of(pool_config::from_env(), r.variable), r.field)
        << r.variable << "=" << (r.value != nullptr ? r.value : "(unset)");
    ::unsetenv(r.variable);
  }
}

// The struct's defaults and an empty environment must agree, field by
// field, so a pool built in code and one built from the environment cannot
// drift apart.
TEST_F(PoolConfig, DefaultsMatchEmptyEnvironment) {
  const pool_config env = pool_config::from_env();
  const pool_config def;
  EXPECT_EQ(env.deque_capacity, def.deque_capacity);
  EXPECT_EQ(env.parking, def.parking);
  EXPECT_EQ(env.locality, def.locality);
  EXPECT_EQ(to_string(env.pin), to_string(def.pin));
  EXPECT_EQ(env.watchdog.count(), def.watchdog.count());
  EXPECT_EQ(env.run_timeout.count(), def.run_timeout.count());
  EXPECT_EQ(env.dump_on_exit, def.dump_on_exit);
  EXPECT_EQ(env.trace, def.trace);
  EXPECT_EQ(env.trace_ring, def.trace_ring);
  EXPECT_EQ(env.perf, def.perf);
}

// The benchmark sets LCWS_TRACE between pools it builds through the
// environment-reading with_scheduler, so the environment must be read
// per pool, never cached per process.
TEST_F(PoolConfig, WithSchedulerRereadsEnvironmentPerPool) {
  const std::string path = tmp_path("trace") + ".json";
  for (const sched_kind kind : all_sched_kinds) {
    bool traced = false;
    ::setenv("LCWS_TRACE", path.c_str(), 1);
    with_scheduler(kind, 2,
                   [&](auto& sched) { traced = sched.tracer().enabled(); });
    EXPECT_TRUE(traced) << to_string(kind);
    ::unsetenv("LCWS_TRACE");
    with_scheduler(kind, 2,
                   [&](auto& sched) { traced = sched.tracer().enabled(); });
    EXPECT_FALSE(traced) << to_string(kind);
  }
  std::remove(path.c_str());
}

// The first line of every dump (dump_worker_state, the watchdog report,
// the exit dump) carries every setting, each away from its default here.
TEST_F(PoolConfig, DumpNamesEveryField) {
  const std::string dump_path = tmp_path("dump") + ".txt";
  const std::string trace_path = tmp_path("dump_trace") + ".json";
  std::remove(dump_path.c_str());  // the exit dump appends
  const pool_config cfg{.deque_capacity = 256,
                        .parking = false,
                        .locality = false,
                        .pin = pin_mode::compact,
                        .watchdog = 60000ms,
                        .run_timeout = 30000ms,
                        .dump_on_exit = dump_path,
                        .trace = trace_path,
                        .trace_ring = 64,
                        .perf = false};
  std::string first_line;
  {
    ws_scheduler sched(2, cfg);
    const std::string dump = sched.dump_worker_state();
    first_line = dump.substr(0, dump.find('\n'));
  }
  const std::vector<std::string> fields = {
      " deque_capacity=256",       " parking=0",
      " locality=0",               " pin=compact",
      " watchdog_ms=60000",        " run_timeout_ms=30000",
      " dump_on_exit=" + dump_path, " trace=" + trace_path,
      " trace_ring=64",            " perf=0"};
  for (const std::string& f : fields) {
    EXPECT_NE(first_line.find(f), std::string::npos) << f << " in "
                                                     << first_line;
  }
  // The exit dump, written at destruction, carries the same settings.
  std::ifstream in(dump_path);
  std::stringstream exit_dump;
  exit_dump << in.rdbuf();
  const std::string settings =
      first_line.substr(first_line.find(" deque_capacity="));
  EXPECT_NE(exit_dump.str().find(settings), std::string::npos)
      << exit_dump.str();
  std::remove(dump_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace lcws
