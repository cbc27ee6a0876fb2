#include "soc/chained_soc.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/accel_model.h"

namespace hyperprof::soc {

uint64_t MessageBatch::TotalBytes() const {
  uint64_t total = 0;
  for (uint64_t bytes : message_bytes) total += bytes;
  return total;
}

MessageBatch MessageBatch::Synthetic(size_t count, double mean_bytes,
                                     Rng& rng) {
  MessageBatch batch;
  batch.message_bytes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double draw = rng.NextLogNormal(std::log(mean_bytes) - 0.125, 0.5);
    batch.message_bytes.push_back(
        std::max<uint64_t>(16, static_cast<uint64_t>(draw)));
  }
  return batch;
}

SocConfig SocConfig::CalibratedTo(uint64_t total_bytes, size_t num_messages,
                                  double serialize_total_s,
                                  double hash_total_s, double init_total_s) {
  assert(total_bytes > 0 && num_messages > 0);
  SocConfig config;
  config.cpu_serialize_s_per_byte =
      serialize_total_s / static_cast<double>(total_bytes);
  config.cpu_hash_s_per_byte =
      hash_total_s / static_cast<double>(total_bytes);
  config.cpu_init_s_per_message =
      init_total_s / static_cast<double>(num_messages);
  return config;
}

ChainedSocSim::ChainedSocSim(SocConfig config) : config_(config) {}

SimTime ChainedSocSim::SerializeServiceTime(uint64_t bytes) const {
  return SimTime::FromSeconds(config_.cpu_serialize_s_per_byte *
                              static_cast<double>(bytes) /
                              config_.serialize_speedup);
}

SimTime ChainedSocSim::HashServiceTime(uint64_t bytes) const {
  return SimTime::FromSeconds(config_.cpu_hash_s_per_byte *
                              static_cast<double>(bytes) /
                              config_.hash_speedup);
}

SocRunResult ChainedSocSim::RunUnaccelerated(const MessageBatch& batch) const {
  SocRunResult result;
  double total_bytes = static_cast<double>(batch.TotalBytes());
  result.init_time = SimTime::FromSeconds(
      config_.cpu_init_s_per_message * static_cast<double>(batch.size()));
  result.serialize_time =
      SimTime::FromSeconds(config_.cpu_serialize_s_per_byte * total_bytes);
  result.hash_time =
      SimTime::FromSeconds(config_.cpu_hash_s_per_byte * total_bytes);
  result.total = result.init_time + result.serialize_time + result.hash_time;
  return result;
}

SocRunResult ChainedSocSim::RunAcceleratedSync(
    const MessageBatch& batch) const {
  SocRunResult result;
  result.init_time = SimTime::FromSeconds(
      config_.cpu_init_s_per_message * static_cast<double>(batch.size()));
  SimTime serialize = config_.serialize_setup;
  SimTime hash = config_.hash_setup;
  for (uint64_t bytes : batch.message_bytes) {
    serialize += SerializeServiceTime(bytes);
    hash += HashServiceTime(bytes);
  }
  result.serialize_time = serialize;
  result.hash_time = hash;
  result.total = result.init_time + serialize + hash;
  return result;
}

SocRunResult ChainedSocSim::RunChained(const MessageBatch& batch) const {
  SocRunResult result;
  const size_t n = batch.size();
  result.init_time = SimTime::FromSeconds(
      config_.cpu_init_s_per_message * static_cast<double>(n));
  if (n == 0) {
    result.total = SimTime::Zero();
    return result;
  }

  // Deterministic pipeline schedule of the three stages:
  //   app core:    init message i at (i+1) * t_init
  //   serializer:  after its setup, messages stream through in order
  //   hasher:      consumes serializer output through the chain FIFO
  // The serializer's setup is armed by a helper thread while the app core
  // finishes initialization, hiding `setup_overlap_fraction` of it.
  SimTime init_per_message =
      SimTime::FromSeconds(config_.cpu_init_s_per_message);
  SimTime hidden = SimTime::FromSeconds(config_.setup_overlap_fraction *
                                        config_.serialize_setup.ToSeconds());
  SimTime setup_start = result.init_time - hidden;
  if (setup_start < SimTime::Zero()) setup_start = SimTime::Zero();
  SimTime serialize_ready = setup_start + config_.serialize_setup;
  SimTime hash_ready = config_.hash_setup;  // armed at t = 0

  SimTime serialize_busy = config_.serialize_setup;
  SimTime hash_busy = config_.hash_setup;
  SimTime serialize_done = serialize_ready;
  SimTime hash_done = hash_ready;
  for (size_t i = 0; i < n; ++i) {
    SimTime init_done = init_per_message * static_cast<int64_t>(i + 1);
    SimTime start =
        std::max({serialize_done, init_done, serialize_ready});
    serialize_done = start + SerializeServiceTime(batch.message_bytes[i]);
    serialize_busy += SerializeServiceTime(batch.message_bytes[i]);
    SimTime hash_start = std::max({hash_done, serialize_done, hash_ready});
    hash_done = hash_start + HashServiceTime(batch.message_bytes[i]);
    hash_busy += HashServiceTime(batch.message_bytes[i]);
  }
  result.serialize_time = serialize_busy;
  result.hash_time = hash_busy;
  result.total = hash_done;
  return result;
}

double ChainedSocSim::ModeledChained(const SocRunResult& unaccel) const {
  model::Workload workload;
  workload.t_cpu = unaccel.total.ToSeconds();
  workload.t_dep = 0;
  workload.f = 1.0;
  model::Component serialize;
  serialize.name = "Proto. Ser.";
  serialize.t_sub = unaccel.serialize_time.ToSeconds();
  serialize.speedup = config_.serialize_speedup;
  serialize.t_setup = config_.serialize_setup.ToSeconds();
  serialize.chained = true;
  model::Component hash;
  hash.name = "SHA3";
  hash.t_sub = unaccel.hash_time.ToSeconds();
  hash.speedup = config_.hash_speedup;
  hash.t_setup = config_.hash_setup.ToSeconds();
  hash.chained = true;
  workload.components = {serialize, hash};
  return model::AccelModel(workload).AcceleratedE2e();
}

}  // namespace hyperprof::soc
