#include "stats/perf_counters.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace lcws::stats {

const char* errno_name(int e) noexcept {
  switch (e) {
    case 0: return "OK";
    case EACCES: return "EACCES";
    case EPERM: return "EPERM";
    case ENOENT: return "ENOENT";
    case ENOSYS: return "ENOSYS";
    case ENODEV: return "ENODEV";
    case EINVAL: return "EINVAL";
    case EMFILE: return "EMFILE";
    case EBUSY: return "EBUSY";
    default: {
      static thread_local char buf[24];
      std::snprintf(buf, sizeof buf, "errno-%d", e);
      return buf;
    }
  }
}

#ifdef __linux__

namespace {

int open_event(std::uint32_t type, std::uint64_t config, int group_fd,
               bool leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = type;
  attr.size = sizeof attr;
  attr.config = config;
  attr.disabled = leader ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 0;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, any CPU it migrates to.
  return static_cast<int>(
      syscall(__NR_perf_event_open, &attr, 0, -1, group_fd, 0UL));
}

// Scales a raw group value for counter multiplexing.
std::uint64_t scale(std::uint64_t raw, std::uint64_t enabled,
                    std::uint64_t running) {
  if (running == 0) return 0;
  if (running >= enabled) return raw;
  return static_cast<std::uint64_t>(
      static_cast<double>(raw) * static_cast<double>(enabled) /
      static_cast<double>(running));
}

}  // namespace

bool perf_group::open(int force_errno) {
  close();
  error_ = 0;
  if (force_errno != 0) {
    error_ = force_errno;
    return false;
  }

  struct hw_event {
    std::uint64_t config;
  };
  static constexpr hw_event kFull[] = {{PERF_COUNT_HW_CPU_CYCLES},
                                       {PERF_COUNT_HW_INSTRUCTIONS},
                                       {PERF_COUNT_HW_CACHE_REFERENCES},
                                       {PERF_COUNT_HW_CACHE_MISSES}};
  // Tier 1: full group; tier 2: cycles + instructions only.
  for (int nev : {4, 2}) {
    int leader = -1;
    bool ok = true;
    for (int i = 0; i < nev; ++i) {
      const int fd = open_event(PERF_TYPE_HARDWARE, kFull[i].config, leader,
                                /*leader=*/i == 0);
      if (fd < 0) {
        if (i == 0) error_ = errno;
        ok = false;
        break;
      }
      if (i == 0) leader = fd;
    }
    if (ok) {
      group_fd_ = leader;
      nevents_ = nev;
      error_ = 0;
      ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
      ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
      break;
    }
    if (leader >= 0) {
      // Closing the leader tears down the partial group.
      ::close(leader);
      leader = -1;
    }
    if (error_ == 0) error_ = EINVAL;
  }

  // Task-clock is a software event; try it even when the PMU said no.
  clock_fd_ = open_event(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, -1,
                         /*leader=*/true);
  if (clock_fd_ >= 0) {
    ioctl(clock_fd_, PERF_EVENT_IOC_RESET, 0);
    ioctl(clock_fd_, PERF_EVENT_IOC_ENABLE, 0);
  }
  return is_open();
}

void perf_group::close() noexcept {
  if (group_fd_ >= 0) {
    ioctl(group_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
    ::close(group_fd_);  // leader close releases the whole group
    group_fd_ = -1;
  }
  if (clock_fd_ >= 0) {
    ::close(clock_fd_);
    clock_fd_ = -1;
  }
  nevents_ = 0;
}

hw_values perf_group::read() const noexcept {
  hw_values v;
  if (group_fd_ >= 0) {
    // nr, time_enabled, time_running, values[nr]
    std::uint64_t buf[3 + 4] = {0};
    const ssize_t want =
        static_cast<ssize_t>((3 + nevents_) * sizeof(std::uint64_t));
    if (::read(group_fd_, buf, static_cast<std::size_t>(want)) == want &&
        buf[0] == static_cast<std::uint64_t>(nevents_)) {
      const std::uint64_t enabled = buf[1], running = buf[2];
      v.cycles = scale(buf[3], enabled, running);
      v.instructions = scale(buf[4], enabled, running);
      v.cpu_valid = true;
      if (nevents_ == 4) {
        v.cache_references = scale(buf[5], enabled, running);
        v.cache_misses = scale(buf[6], enabled, running);
        v.cache_valid = true;
      }
    }
  }
  if (clock_fd_ >= 0) {
    std::uint64_t buf[3 + 1] = {0};
    const ssize_t want = static_cast<ssize_t>(4 * sizeof(std::uint64_t));
    if (::read(clock_fd_, buf, static_cast<std::size_t>(want)) == want &&
        buf[0] == 1) {
      v.task_clock_ns = scale(buf[3], buf[1], buf[2]);
      v.clock_valid = true;
    }
  }
  return v;
}

#else  // !__linux__

bool perf_group::open(int force_errno) {
  close();
  error_ = force_errno != 0 ? force_errno : ENOSYS;
  return false;
}

void perf_group::close() noexcept {
  group_fd_ = -1;
  clock_fd_ = -1;
  nevents_ = 0;
}

hw_values perf_group::read() const noexcept { return {}; }

#endif

std::string perf_group::status() const {
  if (group_fd_ >= 0)
    return nevents_ == 4 ? "available" : "partial:no-cache-counters";
  if (clock_fd_ >= 0)
    return std::string("partial:task-clock-only:") + errno_name(error_);
  return std::string("unavailable:") + errno_name(error_);
}

}  // namespace lcws::stats
