// One benchmark run: deploy the cluster, drive the workload's phases from
// the driver, check every answer and the final state, and collect the
// end-to-end numbers and (traced) the per-layer ones.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster.hpp"
#include "driver.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace sdnsbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;  ///< scratch space for this run (keys, data, trace)
};

/// A metric as printed: value and unit.
struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  Tally ops;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> problems;  ///< every failed check, human-readable
};

RunResult run_workload(const RunOptions& options);

/// A client operation or a replayed layer call. Client spans are keyed by
/// (socket, DNS id, sequence number); a replay span's parent is the client
/// operation whose input it replays.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::int64_t start_ns = 0, end_ns = 0;
  int sock = -1;
  int dns_id = -1;
  std::uint64_t seq = 0;
};

/// Spans kept in memory during the traced run and written when it ends.
class Trace {
 public:
  std::uint64_t add(Span span) {
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// What the traced run replays, all taken from the workload's own inputs.
struct ReplayInputs {
  std::string cluster_dir;  ///< dealt keys and zone of the running cluster
  std::string scratch_dir;  ///< for the store replay, same filesystem
  std::string tsig_name;
  std::string tsig_secret_hex;
  /// Read queries sent (wire), with the span of the client read each came
  /// from, in send order. Filled with driver op indices during the run.
  std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> reads;
  /// Acknowledged update messages (wire, TSIG-signed) with their spans.
  std::vector<std::pair<std::vector<std::uint8_t>, std::uint64_t>> updates;
};

/// Replay each layer's public functions on `in`, recording one span per
/// call under `trace`; returns per-layer metrics keyed by metric name.
std::map<std::string, Metric> replay_layers(const ReplayInputs& in, Trace& trace);

}  // namespace sdnsbench
