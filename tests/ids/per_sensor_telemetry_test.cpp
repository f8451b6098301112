// Per-instance sensor telemetry: a sensor constructed with a
// telemetry_scope bumps "<scope>.offered" etc. beside the aggregate
// sensor.* names, so overload profiles can localize which sensor
// saturates first; the scoped counters must partition the aggregate.
#include <gtest/gtest.h>

#include <vector>

#include "ids/sensor.hpp"
#include "netsim/packet.hpp"
#include "telemetry/registry.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;

Packet plain_packet(netsim::Simulator& sim) {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.dst_port = netsim::ports::kHttp;
  return netsim::make_packet(sim.next_packet_id(), sim.next_flow_id(),
                             sim.now(), t, "data");
}

/// A lone packet is a batch of one.
void ingest_one(Sensor& sensor, const Packet& p) {
  sensor.ingest_batch(&p, 1);
}

SensorConfig scoped_config(std::string scope) {
  SensorConfig cfg;
  cfg.name = "s";
  cfg.base_ops_per_packet = 1000.0;
  cfg.ops_per_sec = 1e9;
  cfg.queue_capacity = 64;
  cfg.telemetry_scope = std::move(scope);
  return cfg;
}

std::uint64_t counter_value(const telemetry::Registry& reg,
                            std::string_view name) {
  const telemetry::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(PerSensorTelemetryTest, ScopedCountersPartitionTheAggregate) {
  telemetry::Registry reg;
  telemetry::ScopedRegistry scope(&reg);
  netsim::Simulator sim;
  // Handles resolve at construction, inside the registry scope.
  Sensor s0(sim, scoped_config("sensor.0"));
  Sensor s1(sim, scoped_config("sensor.1"));
  std::vector<Packet> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(plain_packet(sim));
  s0.ingest_batch(batch.data(), batch.size());
  for (int i = 0; i < 3; ++i) ingest_one(s1, plain_packet(sim));
  sim.run_until();

  EXPECT_EQ(counter_value(reg, "sensor.0.offered"), 5u);
  EXPECT_EQ(counter_value(reg, "sensor.1.offered"), 3u);
  EXPECT_EQ(counter_value(reg, telemetry::names::kSensorOffered), 8u);
  // Per-instance service stats exist beside the aggregate.
  const telemetry::LatencyStat* s0_service =
      reg.find_latency("sensor.0.service");
  ASSERT_NE(s0_service, nullptr);
  EXPECT_EQ(s0_service->stats().count(), 5u);
}

TEST(PerSensorTelemetryTest, NoScopeMeansNoScopedInstruments) {
  telemetry::Registry reg;
  telemetry::ScopedRegistry scope(&reg);
  netsim::Simulator sim;
  Sensor sensor(sim, scoped_config(""));
  ingest_one(sensor, plain_packet(sim));
  sim.run_until();
  EXPECT_EQ(counter_value(reg, telemetry::names::kSensorOffered), 1u);
  EXPECT_EQ(reg.find_counter("sensor.0.offered"), nullptr);
  EXPECT_EQ(reg.find_latency("sensor.0.service"), nullptr);
}

TEST(PerSensorTelemetryTest, ResetStatsClearsScopedInstruments) {
  telemetry::Registry reg;
  telemetry::ScopedRegistry scope(&reg);
  netsim::Simulator sim;
  Sensor sensor(sim, scoped_config("sensor.0"));
  ingest_one(sensor, plain_packet(sim));
  sim.run_until();
  ASSERT_EQ(counter_value(reg, "sensor.0.offered"), 1u);
  sensor.reset_stats();
  EXPECT_EQ(counter_value(reg, "sensor.0.offered"), 0u);
}

TEST(PerSensorTelemetryTest, ScopedNameBuildsDottedNames) {
  EXPECT_EQ(telemetry::scoped_name("sensor.0", "offered"),
            "sensor.0.offered");
  EXPECT_EQ(telemetry::scoped_name("", "offered"), "");
}

}  // namespace
}  // namespace idseval::ids
