#include "runner/sweep.h"

namespace wb::runner {

SweepRunner::SweepRunner(SweepConfig cfg) : cfg_(cfg) {
  threads_ = cfg_.threads == 0 ? default_threads() : cfg_.threads;
}

}  // namespace wb::runner
