#pragma once
// Host bound probes, measured in the same process as the workload so every
// layer rate can be stated against the bound it runs into: compute peak and
// stream bandwidth (prof::machine), memcpy bandwidth, file-write bandwidth
// into the checkpoint directory, and an in-process two-rank ping-pong.

#include <string>
#include <utility>
#include <vector>

namespace cmtbench {

struct HostBounds {
  double peak_gflops = 0;       // prof::machine(), one thread
  double stream_gbps = 0;       // prof::machine() triad
  double memcpy_gbps = 0;       // read + write bytes per second
  double memcpy_bytes = 0;      // size of each memcpy array
  double file_write_gbps = 0;   // write + fsync into the checkpoint dir
  double pingpong_latency_us = 0;  // half round trip, 8-byte message
  double pingpong_gbps = 0;        // largest message, half round trip
  // The whole sweep: (message bytes, half round trip in microseconds).
  std::vector<std::pair<double, double>> pingpong_sweep;
};

/// Last-level cache size in bytes (0 when the host does not say).
long long llc_bytes();

/// Run every probe. `scratch_dir` must exist and be writable.
HostBounds measure_host(const std::string& scratch_dir);

}  // namespace cmtbench
