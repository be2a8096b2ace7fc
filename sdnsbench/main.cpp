// sdnsbench — the name service's benchmark.
//
//   sdnsbench --workload read_mix|update_mix --seed N
//             --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//
// One run deals a (4,1) cluster with the 1024-bit threshold key over a
// seeded, signed zone of 1,000 owners, starts four sdnsd replicas, drives
// the workload from this single process, checks
// every answer and the final state, and prints every metric by name and
// unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1, a separate run that also records spans and replays each
// layer's public functions on the workload's own inputs). Exits 1 when any
// correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "workload.hpp"

using namespace sdnsbench;

namespace {

struct ResultMetric {
  const char* name;
  const char* unit;
};

// The metrics the result line carries: BENCHMARK.json's, in its order.
constexpr ResultMetric kEndToEnd[] = {
    {"setup_s", "s"},
    {"read_p50_ms", "ms"},
    {"read_max_qps", "1/s"},
    {"update_p50_ms", "ms"},
    {"update_per_s", "1/s"},
    {"replica_rss_mb", "MiB"},
};

constexpr ResultMetric kPerLayer[] = {
    {"client.read_p90_ms", "ms"},
    {"client.read_p99_ms", "ms"},
    {"client.update_p90_ms", "ms"},
    {"client.update_mean_ms", "ms"},
    {"client.fail_share", "ratio"},
    {"host.steal_s", "s"},
    {"driver.cpu_share", "ratio"},
    {"driver.late_ms_p99", "ms"},
    {"net.udp.queries_per_recvmmsg", "ratio"},
    {"net.udp.send_errors", "count"},
    {"replica.cpu_s", "s"},
    {"net.cache.hit_ratio", "ratio"},
    {"net.cache.lookup_ns", "ns"},
    {"dns.answer_query_us.p50", "us"},
    {"dns.answer_query_us.p99", "us"},
    {"dns.tsig_verify_us", "us"},
    {"dns.apply_update_us", "us"},
    {"dns.finalize_journal_us", "us"},
    {"dns.sig_tasks_per_update", "count"},
    {"threshold.share_gen_us", "us"},
    {"threshold.share_verify_us", "us"},
    {"threshold.assemble_us", "us"},
    {"threshold.verify_sig_us", "us"},
    {"threshold.sign_us.p50", "us"},
    {"threshold.sign_us.p99", "us"},
    {"threshold.optimistic.hit_ratio", "ratio"},
    {"mesh.rtt_1frame_ms", "ms"},
    {"mesh.rtt_2frame_ms", "ms"},
    {"mesh.drops.fair_lossy", "count"},
    {"mesh.reconnects", "count"},
    {"abcast.commit.fast", "count"},
    {"abcast.commit.fallback", "count"},
    {"abcast.epoch_change", "count"},
    {"abcast.deliveries_per_update", "ratio"},
    {"replica.update_batch_size.mean", "count"},
    {"store.fsync_us.p50", "us"},
    {"store.fsync_us.p99", "us"},
    {"store.wal_syncs_per_update", "ratio"},
    {"store.append_sync_us", "us"},
    {"update.layer_sum_ms", "ms"},
    {"update.unattributed_ms", "ms"},
    {"dns.answer_xfr_us", "us"},
    {"dns.apply_xfr_us", "us"},
    {"dns.verify_zone_ms", "ms"},
    {"traced.setup_s", "s"},
    {"traced.read_p50_ms", "ms"},
    {"traced.read_max_qps", "1/s"},
    {"traced.update_p50_ms", "ms"},
    {"traced.update_per_s", "1/s"},
    {"traced.replica_rss_mb", "MiB"},
};

int usage() {
  std::fprintf(stderr,
               "usage: sdnsbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--bin-dir DIR --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc ? argv[++i] : nullptr;
    };
    if (const char* v = value("--workload")) {
      opt.workload = v;
    } else if (const char* v = value("--seed")) {
      opt.seed = std::stoull(v);
    } else if (const char* v = value("--seconds")) {
      opt.seconds = std::stod(v);
    } else if (const char* v = value("--trace")) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (const char* v = value("--bin-dir")) {
      opt.bin_dir = v;
    } else if (const char* v = value("--work-dir")) {
      opt.work_dir = v;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.bin_dir.empty() || opt.work_dir.empty() ||
      opt.seconds <= 0) {
    return usage();
  }
  std::filesystem::create_directories(opt.work_dir);

  RunResult r;
  try {
    r = run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdnsbench: %s\n", e.what());
    return 1;
  }

  // Every metric by name and unit, then the result object.
  std::printf("workload %s seed %llu%s: %llu operations, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? " (traced)" : "", static_cast<unsigned long long>(r.ops.attempted),
              static_cast<unsigned long long>(r.ops.failed));
  for (const auto& [name, m] : r.end_to_end) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : r.per_layer) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : r.problems) std::printf("  FAILED: %s\n", p.c_str());

  const auto& source = opt.trace ? r.per_layer : r.end_to_end;
  std::string metrics;
  const auto emit = [&](const auto& entries) {
    for (const ResultMetric& e : entries) {
      const auto it = source.find(e.name);
      const double v = it == source.end() ? 0.0 : it->second.value;
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", e.name, std::isfinite(v) ? v : 0.0,
                    e.unit);
      metrics += buf;
    }
  };
  if (opt.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.ops.attempted, 1)),
              static_cast<unsigned long long>(r.ops.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
