// Structured run-termination errors (DESIGN.md §11).
//
// A cooperatively cancelled tree collapses with run_cancelled_error. It
// travels the ordinary exception path — captured into the job at the point
// of failure, drained join by join, rethrown at the spawn site — so user
// code catches it exactly where it would catch its own exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace lcws {

// The active run was cancelled (cancel_run(), a run_for deadline, or the
// watchdog's cancel rung) and this branch of the tree observed the token
// at a spawn boundary. pardo's drain-before-rethrow contract makes the
// collapse safe: every sibling finishes (or cancels) before any frame
// unwinds.
class run_cancelled_error : public std::runtime_error {
 public:
  run_cancelled_error()
      : std::runtime_error("lcws: run cancelled") {}
  explicit run_cancelled_error(const std::string& why)
      : std::runtime_error("lcws: run cancelled: " + why) {}
};

}  // namespace lcws
