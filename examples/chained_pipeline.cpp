// Chained-accelerator validation (the Section 6.4 / Table 8 methodology):
//
//  1. Simulate the heterogeneous SoC (app core + protobuf-serialization
//     accelerator + SHA3 accelerator) running the three benchmarks —
//     unaccelerated, accelerated-synchronous, and chained — and compare
//     the measured chained time against the analytical model (Eq. 9-12).
//  2. Run the *real* kernels on this host: serialize real wire-format
//     messages and SHA3-hash them, serially and through a two-thread
//     software chain, and compare against the model again.
//
// Usage: chained_pipeline [num_messages]

#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "common/strings.h"
#include "soc/chained_soc.h"
#include "soc/host_pipeline.h"

using namespace hyperprof;

int main(int argc, char** argv) {
  size_t num_messages =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;

  // --- Part 1: SoC simulation calibrated to the published RTL numbers ---
  Rng rng(7);
  soc::MessageBatch batch = soc::MessageBatch::Synthetic(num_messages,
                                                         /*mean_bytes=*/2048,
                                                         rng);
  soc::SocConfig config =
      soc::SocConfig::CalibratedTo(batch.TotalBytes(), batch.size());
  soc::ChainedSocSim sim(config);

  auto unaccel = sim.RunUnaccelerated(batch);
  auto accel_sync = sim.RunAcceleratedSync(batch);
  auto chained = sim.RunChained(batch);
  double modeled = sim.ModeledChained(unaccel);

  std::printf("SoC simulation (%zu messages, %s wire bytes):\n",
              batch.size(), HumanBytes(batch.TotalBytes()).c_str());
  std::printf("  unaccelerated total:        %s\n",
              unaccel.total.ToString().c_str());
  std::printf("  accelerated (sync) total:   %s\n",
              accel_sync.total.ToString().c_str());
  std::printf("  chained (measured) total:   %s\n",
              chained.total.ToString().c_str());
  std::printf("  chained (modeled)  total:   %s\n",
              HumanSeconds(modeled).c_str());
  double diff = (modeled - chained.total.ToSeconds()) / modeled;
  std::printf("  model difference:           %.1f%% (paper: 6.1%%)\n\n",
              diff * 100);

  // --- Part 2: real kernels on this host ---
  auto host = soc::RunHostValidation(num_messages, /*seed=*/11);
  std::printf("Host software chaining (%zu real messages, %s):\n",
              host.num_messages, HumanBytes(host.total_wire_bytes).c_str());
  std::printf("  serialize (serial):   %s\n",
              HumanSeconds(host.serialize_seconds).c_str());
  std::printf("  SHA3 hash (serial):   %s\n",
              HumanSeconds(host.hash_seconds).c_str());
  std::printf("  serial total:         %s\n",
              HumanSeconds(host.serial_total_seconds).c_str());
  std::printf("  chained (measured):   %s\n",
              HumanSeconds(host.chained_total_seconds).c_str());
  std::printf("  chained (modeled):    %s\n",
              HumanSeconds(host.modeled_chained_seconds).c_str());
  std::printf("  model error:          %.1f%%\n",
              host.ModelErrorFraction() * 100);
  std::printf("  outputs consistent:   %s\n",
              host.digest_xor == 0 ? "yes" : "NO (bug!)");
  return host.digest_xor == 0 ? 0 : 1;
}
