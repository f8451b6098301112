#include "ids/sensor.hpp"

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "ids/rules.hpp"
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

/// A lone packet is a batch of one.
void ingest_one(Sensor& sensor, const Packet& p) {
  sensor.ingest_batch(&p, 1);
}

SensorConfig fast_config() {
  SensorConfig cfg;
  cfg.name = "s";
  cfg.base_ops_per_packet = 1000.0;
  cfg.ops_per_sec = 1e9;
  cfg.queue_capacity = 64;
  return cfg;
}

TEST(SensorTest, ProcessesPacketsAfterServiceTime) {
  netsim::Simulator sim;
  Sensor sensor(sim, fast_config());
  ingest_one(sensor, plain_packet(sim));
  EXPECT_EQ(sensor.stats().processed, 0u);  // not yet: service pending
  sim.run_until();
  EXPECT_EQ(sensor.stats().processed, 1u);
  EXPECT_EQ(sensor.stats().offered, 1u);
  EXPECT_EQ(sensor.stats().loss_ratio(), 0.0);
}

TEST(SensorTest, SignatureDetectionForwarded) {
  netsim::Simulator sim;
  Sensor sensor(sim, fast_config());
  sensor.set_signature_engine(std::make_unique<SignatureEngine>(
      standard_rule_set(), SignatureEngineOptions{0.5, true}));
  std::vector<Detection> got;
  sensor.set_on_detections([&](const Detection* d, std::size_t n) {
    got.insert(got.end(), d, d + n);
  });
  ingest_one(sensor, plain_packet(
      sim, util::cat("GET ", attack::patterns::kDirTraversal,
                     " HTTP/1.0\r\n")));
  sim.run_until();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].rule, "WEB-IIS dir traversal");
  EXPECT_EQ(sensor.stats().detections, 1u);
}

TEST(SensorTest, DetectionTimestampedAtCompletion) {
  netsim::Simulator sim;
  SensorConfig cfg = fast_config();
  cfg.base_ops_per_packet = 1e6;  // 1 ms service
  Sensor sensor(sim, cfg);
  sensor.set_signature_engine(std::make_unique<SignatureEngine>(
      standard_rule_set(), SignatureEngineOptions{0.5, true}));
  std::vector<Detection> got;
  sensor.set_on_detections([&](const Detection* d, std::size_t n) {
    got.insert(got.end(), d, d + n);
  });
  ingest_one(sensor, plain_packet(
      sim, util::cat("GET ", attack::patterns::kDirTraversal,
                     " HTTP/1.0\r\n")));
  sim.run_until();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GE(got[0].when, SimTime::from_ms(1));
}

TEST(SensorTest, QueueOverflowDrops) {
  netsim::Simulator sim;
  SensorConfig cfg = fast_config();
  cfg.queue_capacity = 8;
  cfg.base_ops_per_packet = 1e7;  // 10 ms each: queue saturates instantly
  Sensor sensor(sim, cfg);
  for (int i = 0; i < 20; ++i) ingest_one(sensor, plain_packet(sim));
  EXPECT_EQ(sensor.stats().dropped_queue, 12u);
  sim.run_until();
  EXPECT_EQ(sensor.stats().processed, 8u);
  EXPECT_NEAR(sensor.stats().loss_ratio(), 12.0 / 20.0, 1e-9);
}

TEST(SensorTest, BacklogReflectsQueuedWork) {
  netsim::Simulator sim;
  SensorConfig cfg = fast_config();
  cfg.base_ops_per_packet = 1e6;  // 1 ms
  Sensor sensor(sim, cfg);
  for (int i = 0; i < 5; ++i) ingest_one(sensor, plain_packet(sim));
  EXPECT_EQ(sensor.backlog(), SimTime::from_ms(5));
}

TEST(SensorTest, OverloadTripsFailureAndHangStaysDown) {
  netsim::Simulator sim;
  SensorConfig cfg = fast_config();
  cfg.queue_capacity = 4;
  cfg.base_ops_per_packet = 1e8;  // 100 ms each
  cfg.overload_tolerance = SimTime::from_ms(200);
  cfg.recovery = RecoveryPolicy::kHang;
  Sensor sensor(sim, cfg);
  for (int i = 0; i < 50; ++i) ingest_one(sensor, plain_packet(sim));
  EXPECT_TRUE(sensor.failed());
  EXPECT_EQ(sensor.stats().failures, 1u);
  sim.run_until(SimTime::from_sec(100));
  EXPECT_TRUE(sensor.failed());  // hang: never recovers
  // Everything offered while failed is lost.
  ingest_one(sensor, plain_packet(sim));
  EXPECT_GT(sensor.stats().dropped_failed, 0u);
}

TEST(SensorTest, AppRestartRecoversQuicklyAndReports) {
  netsim::Simulator sim;
  SensorConfig cfg = fast_config();
  cfg.queue_capacity = 4;
  cfg.base_ops_per_packet = 1e8;
  cfg.overload_tolerance = SimTime::from_ms(200);
  cfg.recovery = RecoveryPolicy::kAppRestart;
  cfg.restart_delay = SimTime::from_sec(2);
  Sensor sensor(sim, cfg);
  std::vector<std::pair<SimTime, bool>> events;
  sensor.set_on_failure([&](const std::string&, SimTime when, bool failed) {
    events.emplace_back(when, failed);
  });
  for (int i = 0; i < 50; ++i) ingest_one(sensor, plain_packet(sim));
  EXPECT_TRUE(sensor.failed());
  sim.run_until(SimTime::from_sec(10));
  EXPECT_FALSE(sensor.failed());
  // kAppRestart reports the failure in near real time plus the recovery.
  ASSERT_GE(events.size(), 2u);
  EXPECT_TRUE(events[0].second);
  EXPECT_FALSE(events[1].second);
}

TEST(SensorTest, ColdRebootRecoversSlowlyWithoutRealtimeReport) {
  netsim::Simulator sim;
  SensorConfig cfg = fast_config();
  cfg.queue_capacity = 4;
  cfg.base_ops_per_packet = 1e8;
  cfg.overload_tolerance = SimTime::from_ms(200);
  cfg.recovery = RecoveryPolicy::kColdReboot;
  cfg.reboot_delay = SimTime::from_sec(40);
  Sensor sensor(sim, cfg);
  int failure_reports = 0;
  sensor.set_on_failure([&](const std::string&, SimTime, bool failed) {
    if (failed) ++failure_reports;
  });
  for (int i = 0; i < 50; ++i) ingest_one(sensor, plain_packet(sim));
  EXPECT_TRUE(sensor.failed());
  EXPECT_EQ(failure_reports, 0);  // average anchor: no real-time report
  sim.run_until(SimTime::from_sec(20));
  EXPECT_TRUE(sensor.failed());  // still rebooting
  sim.run_until(SimTime::from_sec(60));
  EXPECT_FALSE(sensor.failed());
}

TEST(SensorTest, HostChargingAccountsIdsWork) {
  netsim::Simulator sim;
  netsim::Host host("h", Ipv4(10, 0, 0, 1), 1e9);
  SensorConfig cfg = fast_config();
  cfg.base_ops_per_packet = 5e6;
  Sensor sensor(sim, cfg);
  sensor.bind_host(&host);
  host.begin_accounting(sim.now());
  for (int i = 0; i < 100; ++i) ingest_one(sensor, plain_packet(sim));
  sim.run_until();
  host.end_accounting(sim.now());
  // 100 packets x 5e6 ops on 1e9 ops/s over the elapsed window.
  EXPECT_GT(host.ids_cpu_fraction(), 0.0);
}

TEST(SensorTest, SensitivityPropagatesToEngines) {
  netsim::Simulator sim;
  Sensor sensor(sim, fast_config());
  sensor.set_signature_engine(std::make_unique<SignatureEngine>(
      standard_rule_set(), SignatureEngineOptions{0.2, true}));
  AnomalyEngineOptions opts;
  opts.sensitivity = 0.2;
  sensor.set_anomaly_engine(std::make_unique<AnomalyEngine>(opts));
  sensor.set_sensitivity(0.9);
  EXPECT_DOUBLE_EQ(sensor.signature_engine()->sensitivity(), 0.9);
  EXPECT_DOUBLE_EQ(sensor.anomaly_engine()->sensitivity(), 0.9);
}

TEST(SensorTest, RecoveryPolicyNames) {
  EXPECT_EQ(to_string(RecoveryPolicy::kHang), "hang");
  EXPECT_EQ(to_string(RecoveryPolicy::kColdReboot), "cold-reboot");
  EXPECT_EQ(to_string(RecoveryPolicy::kAppRestart), "app-restart");
}

}  // namespace
}  // namespace idseval::ids
