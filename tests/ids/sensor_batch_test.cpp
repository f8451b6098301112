// Batch-boundary tests for vectorized sensor ingest: one batch of N must
// land on exactly the stats N batches of one produce — including a
// failure tripped mid-batch dropping the remainder — with host op
// charges accumulated to one call per batch.
#include "ids/sensor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "attack/patterns.hpp"
#include "ids/rules.hpp"
#include "netsim/host.hpp"
#include "util/strfmt.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

Packet plain_packet(netsim::Simulator& sim, std::string payload = "data") {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.dst_port = netsim::ports::kHttp;
  return netsim::make_packet(sim.next_packet_id(), sim.next_flow_id(),
                             sim.now(), t, std::move(payload));
}

SensorConfig fast_config() {
  SensorConfig cfg;
  cfg.name = "s";
  cfg.base_ops_per_packet = 1000.0;
  cfg.ops_per_sec = 1e9;
  cfg.queue_capacity = 64;
  return cfg;
}

void ingest_one_by_one(Sensor& sensor, const std::vector<Packet>& packets) {
  for (const Packet& p : packets) sensor.ingest_batch(&p, 1);
}

void expect_same_stats(const SensorStats& a, const SensorStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.dropped_queue, b.dropped_queue);
  EXPECT_EQ(a.dropped_failed, b.dropped_failed);
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(SensorBatchTest, BatchIngestMatchesPerPacketStats) {
  netsim::Simulator sim_a;
  netsim::Simulator sim_b;
  Sensor batch_sensor(sim_a, fast_config());
  Sensor ref_sensor(sim_b, fast_config());
  std::vector<Packet> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(plain_packet(sim_a));
  batch_sensor.ingest_batch(batch.data(), batch.size());
  ingest_one_by_one(ref_sensor, batch);
  sim_a.run_until();
  sim_b.run_until();
  expect_same_stats(batch_sensor.stats(), ref_sensor.stats());
}

TEST(SensorBatchTest, QueueOverflowWithinBatchMatchesPerPacket) {
  netsim::Simulator sim_a;
  netsim::Simulator sim_b;
  SensorConfig cfg = fast_config();
  cfg.queue_capacity = 8;
  cfg.base_ops_per_packet = 1e7;  // 10 ms each: queue saturates instantly
  Sensor batch_sensor(sim_a, cfg);
  Sensor ref_sensor(sim_b, cfg);
  std::vector<Packet> batch;
  for (int i = 0; i < 20; ++i) batch.push_back(plain_packet(sim_a));
  batch_sensor.ingest_batch(batch.data(), batch.size());
  ingest_one_by_one(ref_sensor, batch);
  EXPECT_EQ(batch_sensor.stats().dropped_queue, 12u);
  sim_a.run_until();
  sim_b.run_until();
  expect_same_stats(batch_sensor.stats(), ref_sensor.stats());
}

TEST(SensorBatchTest, FailureMidBatchDropsRemainderLikePerPacket) {
  netsim::Simulator sim_a;
  netsim::Simulator sim_b;
  SensorConfig cfg = fast_config();
  cfg.queue_capacity = 4;
  cfg.base_ops_per_packet = 1e8;  // 100 ms each
  cfg.overload_tolerance = SimTime::from_ms(200);
  cfg.recovery = RecoveryPolicy::kHang;
  Sensor batch_sensor(sim_a, cfg);
  Sensor ref_sensor(sim_b, cfg);
  std::vector<Packet> batch;
  for (int i = 0; i < 50; ++i) batch.push_back(plain_packet(sim_a));
  batch_sensor.ingest_batch(batch.data(), batch.size());
  ingest_one_by_one(ref_sensor, batch);
  // The backlog trips the failure partway through; everything after the
  // trip must be accounted as dropped_failed on both paths.
  EXPECT_TRUE(batch_sensor.failed());
  EXPECT_TRUE(ref_sensor.failed());
  EXPECT_EQ(batch_sensor.stats().failures, 1u);
  EXPECT_GT(batch_sensor.stats().dropped_failed, 0u);
  sim_a.run_until(SimTime::from_sec(60));
  sim_b.run_until(SimTime::from_sec(60));
  expect_same_stats(batch_sensor.stats(), ref_sensor.stats());
}

TEST(SensorBatchTest, DetectionsFlowThroughBatchSink) {
  netsim::Simulator sim;
  Sensor sensor(sim, fast_config());
  sensor.set_signature_engine(std::make_unique<SignatureEngine>(
      standard_rule_set(), SignatureEngineOptions{0.5, true}));
  std::vector<Detection> got;
  sensor.set_on_detections([&](const Detection* d, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) got.push_back(d[i]);
  });
  std::vector<Packet> batch;
  batch.push_back(plain_packet(sim));
  batch.push_back(plain_packet(
      sim, util::cat("GET ", attack::patterns::kDirTraversal,
                     " HTTP/1.0\r\n")));
  batch.push_back(plain_packet(sim));
  sensor.ingest_batch(batch.data(), batch.size());
  sim.run_until();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].rule, "WEB-IIS dir traversal");
  EXPECT_EQ(sensor.stats().detections, 1u);
}

TEST(SensorBatchTest, HostChargedOncePerBatchWithSameTotal) {
  netsim::Simulator sim_a;
  netsim::Simulator sim_b;
  netsim::Host host_a("h", Ipv4(10, 0, 0, 1), 1e9);
  netsim::Host host_b("h", Ipv4(10, 0, 0, 1), 1e9);
  SensorConfig cfg = fast_config();
  cfg.base_ops_per_packet = 5e6;
  Sensor batch_sensor(sim_a, cfg);
  Sensor ref_sensor(sim_b, cfg);
  batch_sensor.bind_host(&host_a);
  ref_sensor.bind_host(&host_b);
  host_a.begin_accounting(sim_a.now());
  host_b.begin_accounting(sim_b.now());
  std::vector<Packet> batch;
  for (int i = 0; i < 16; ++i) batch.push_back(plain_packet(sim_a));
  batch_sensor.ingest_batch(batch.data(), batch.size());
  ingest_one_by_one(ref_sensor, batch);
  sim_a.run_until();
  sim_b.run_until();
  host_a.end_accounting(sim_a.now());
  host_b.end_accounting(sim_b.now());
  // Fixed per-packet cost: the accumulated batch charge is exactly the
  // sum of the per-packet charges.
  EXPECT_DOUBLE_EQ(host_a.ids_cpu_fraction(), host_b.ids_cpu_fraction());
  EXPECT_GT(host_a.ids_cpu_fraction(), 0.0);
}

}  // namespace
}  // namespace idseval::ids
