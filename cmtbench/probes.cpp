#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "comm/runtime.hpp"
#include "common.hpp"
#include "prof/roofline.hpp"
#include "prof/timer.hpp"

namespace cmtbench {

namespace {

// memcpy over arrays at least four times the last-level cache, so the
// copy streams from memory; capped to keep the probe's footprint modest.
double memcpy_gbps(double* bytes_out) {
  const long long llc = llc_bytes();
  std::size_t bytes = std::size_t(std::max(4 * llc, 64LL << 20));
  bytes = std::min<std::size_t>(bytes, std::size_t(512) << 20);
  *bytes_out = double(bytes);
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> ts;
  for (int rep = 0; rep < 5; ++rep) {
    cmtbone::prof::WallTimer t;
    std::memcpy(dst.data(), src.data(), bytes);
    ts.push_back(t.seconds());
    src[std::size_t(rep)] = dst[bytes - 1 - std::size_t(rep)];
  }
  return 2.0 * double(bytes) / median(ts) / 1e9;
}

// The checkpoint writer's pattern: one fwrite of the whole payload, then
// fsync before the file is published.
double file_write_gbps(const std::string& dir) {
  constexpr std::size_t kBytes = std::size_t(32) << 20;
  const std::vector<char> payload(kBytes, 7);
  const std::string path = dir + "/file_write_probe.bin";
  std::vector<double> ts;
  for (int rep = 0; rep < 3; ++rep) {
    cmtbone::prof::WallTimer t;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return 0;
    const bool ok = std::fwrite(payload.data(), 1, kBytes, f) == kBytes &&
                    std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!ok) return 0;
    ts.push_back(t.seconds());
  }
  std::filesystem::remove(path);
  return double(kBytes) / median(ts) / 1e9;
}

// Two-rank ping-pong sweeping the message size; half the round trip is the
// one-way time.
void pingpong(HostBounds* h) {
  const std::vector<std::size_t> sizes = {8, 512, 32768, 1 << 20, 4 << 20};
  std::vector<double> half_rtt(sizes.size());
  cmtbone::comm::run(2, [&](cmtbone::comm::Comm& world) {
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<char> buf(sizes[s], 1);
      const int reps = sizes[s] >= (1u << 20) ? 20 : 200;
      std::vector<double> ts;
      for (int r = 0; r < reps; ++r) {
        world.barrier();
        cmtbone::prof::WallTimer t;
        if (world.rank() == 0) {
          world.send_bytes(buf.data(), buf.size(), 1, 1);
          world.recv_bytes(buf.data(), buf.size(), 1, 2);
        } else {
          world.recv_bytes(buf.data(), buf.size(), 0, 1);
          world.send_bytes(buf.data(), buf.size(), 0, 2);
        }
        ts.push_back(0.5 * t.seconds());
      }
      if (world.rank() == 0) half_rtt[s] = median(ts);
    }
  });
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    h->pingpong_sweep.emplace_back(double(sizes[s]), 1e6 * half_rtt[s]);
  }
  h->pingpong_latency_us = 1e6 * half_rtt.front();
  h->pingpong_gbps = double(sizes.back()) / half_rtt.back() / 1e9;
}

}  // namespace

long long llc_bytes() {
  for (int index = 4; index >= 0; --index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    long long value = std::atoll(text.c_str());
    const char unit = text.back();
    if (unit == 'K') value <<= 10;
    if (unit == 'M') value <<= 20;
    if (value > 0) return value;
  }
  const long sc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return sc > 0 ? sc : 0;
}

HostBounds measure_host(const std::string& scratch_dir) {
  HostBounds h;
  const cmtbone::prof::Machine& m = cmtbone::prof::machine();
  h.peak_gflops = m.peak_gflops;
  h.stream_gbps = m.mem_gbytes;
  h.memcpy_gbps = memcpy_gbps(&h.memcpy_bytes);
  h.file_write_gbps = file_write_gbps(scratch_dir);
  pingpong(&h);
  return h;
}

}  // namespace cmtbench
