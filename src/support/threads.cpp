#include "support/threads.h"

#include <sched.h>

#include <cstring>

namespace lcws {

bool pin_this_thread(std::size_t cpu) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

saved_affinity save_this_thread_affinity() noexcept {
  saved_affinity out;
  CPU_ZERO(&out.set);
  out.valid = pthread_getaffinity_np(pthread_self(), sizeof(out.set),
                                     &out.set) == 0;
  return out;
}

void restore_this_thread_affinity(const saved_affinity& saved) noexcept {
  if (!saved.valid) return;
  pthread_setaffinity_np(pthread_self(), sizeof(saved.set), &saved.set);
}

void name_this_thread(const std::string& name) noexcept {
  char buf[16];
  std::strncpy(buf, name.c_str(), sizeof(buf) - 1);
  buf[sizeof(buf) - 1] = '\0';
  pthread_setname_np(pthread_self(), buf);
}

}  // namespace lcws
