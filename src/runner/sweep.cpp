#include "runner/sweep.h"

#include <cstdlib>
#include <cstring>
#include <thread>

namespace omr::runner {

std::size_t default_jobs() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
  const char* env = std::getenv("OMR_JOBS");
  if (env != nullptr) {
    // "auto" clamps to the hardware: an explicit numeric request is
    // honored as given (the user may want oversubscription), but auto
    // never fans 8 jobs onto a 1-CPU host.
    if (std::strcmp(env, "auto") == 0) return hw;
    const long v = std::atol(env);
    return v < 1 ? 1 : static_cast<std::size_t>(v);
  }
  return hw;
}

}  // namespace omr::runner
