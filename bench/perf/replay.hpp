// Per-layer host time, measured from outside the program: a traced run
// captures the tapped packet stream off the LAN switch's batch mirror,
// then the stream is replayed into fresh instances of each IDS layer,
// each on a private Simulator advanced to every batch's simulated time.
// A layer's time is the wall time of its replay loop — its batch entry
// point plus the events that call scheduled on its private simulator —
// so every number measures one layer in isolation, not the layer as it
// runs interleaved with the rest of the pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ids/pipeline.hpp"
#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "netsim/switch.hpp"

namespace idseval::bench {

using Metrics = std::map<std::string, double>;

/// Batches beyond this many are not captured.
inline constexpr std::size_t kMaxCapturedBatches = std::size_t{1} << 18;

struct CapturedBatch {
  netsim::SimTime at;
  std::size_t first = 0;  ///< Index into Capture::packets.
  std::size_t count = 0;
};

/// The tapped stream of one run. Flows are sampled whole — a flow is kept
/// when flow_id % sample_every == 0 — so per-flow layer state (stream
/// reassembly, LB pins, flow tables) sees complete flows across the whole
/// run while the capture stays bounded.
struct Capture {
  std::uint64_t sample_every = 1;
  std::vector<netsim::Packet> packets;
  std::vector<CapturedBatch> batches;
  std::uint64_t mirror_batches = 0;  ///< Every batch the mirror saw.
  std::uint64_t mirror_packets = 0;  ///< Every packet the mirror saw.
};

/// Registers a batch mirror on `sw` that fills `capture`, timestamping
/// with `clock` (the switch's simulator). Only packets the pipeline would
/// tap under `config` (its data-pool filter, no management reports) are
/// kept. `capture` must outlive the switch's last batch.
void attach_capture(netsim::Switch& sw, const netsim::Simulator& clock,
                    const ids::PipelineConfig& config, Capture& capture);

/// Replays `capture` into fresh LB, engine, sensor, host-agent, analyzer,
/// monitor and console instances built from `config`. Only the layers
/// `config` enables are replayed; the others read 0. Anomaly engines
/// learn until `learn_until` and detect afterwards.
Metrics replay_layers(const Capture& capture,
                      const ids::PipelineConfig& config,
                      netsim::SimTime learn_until);

}  // namespace idseval::bench
