// Fuzz target: the monitor differential oracles, driven by the byte-stream
// mode of the shared structure-aware generator. The fuzzer's entropy becomes
// a well-formed (safety sentence, update stream) case; the case then has to
// pass three paper-derived identities:
//   - automaton and progression backends agree per update,
//   - the incremental monitor agrees with the from-scratch batch check,
//   - Pref(C) is prefix-closed (verdicts are monotone, violations permanent).
// Any violation prints the self-contained reproducer and traps.

#include <cstdint>
#include <cstdlib>
#include <cstdio>

#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/reproducer.h"
#include "testing/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace tic;
  if (size > 256) size = 256;  // ~64 draws: keeps cases small and execs fast
  testing::Entropy ent(data, size);

  testing::SafetyCaseOptions options;
  options.max_preds = 3;
  options.max_vars = 2;
  options.max_depth = 3;
  options.min_stream = 3;
  options.max_stream = 6;
  options.universe = {1, 2};
  options.fresh_element = 3;  // exercise placement growth + word catch-up
  testing::FotlCase c = testing::GenerateSafetyCase(&ent, options);

  for (auto* oracle : {&testing::BackendVerdictsAgree,
                       &testing::MonitorMatchesBatch,
                       &testing::PrefixClosureHolds}) {
    auto result = (*oracle)(c);
    if (!result.ok()) {
      std::fprintf(stderr, "generated case rejected by the checker: %s\n%s",
                   result.status().ToString().c_str(),
                   testing::SerializeCase(c).c_str());
      std::abort();
    }
    if (!result->pass) {
      std::fprintf(stderr, "oracle violation:\n%s\n", result->detail.c_str());
      std::abort();
    }
  }
  return 0;
}
