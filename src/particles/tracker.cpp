#include "particles/tracker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "kernels/mxm.hpp"
#include "parallel/parallel.hpp"
#include "prof/callprof.hpp"
#include "sem/lgl.hpp"
#include "util/rng.hpp"

namespace cmtbone::particles {

namespace {

// Particles per chunk of a bin. A chunk's weights and contraction operands
// take at most (n^2 + 4n + 8) * 64 doubles of per-thread scratch (35 KB at
// N=6), so they stay cache-resident and bounded however full a bin gets.
constexpr int kChunk = 64;

// Per-thread scratch: the binned kernels run on pool workers.
double* thread_scratch(std::size_t count) {
  thread_local std::vector<double> buf;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

// Two particles' worth of one weight: basis() runs lane-wise on these.
typedef double Lanes __attribute__((vector_size(16)));

Lanes load2(const double* p) {
  Lanes v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
void store2(double* p, Lanes v) { __builtin_memcpy(p, &v, sizeof v); }

}  // namespace

Tracker::Tracker(comm::Comm& comm, const mesh::Partition& part,
                 const sem::Operators& ops)
    : comm_(&comm),
      layout_(mesh::ElementLayout::block(part.spec(), part.rank())),
      ops_(&ops),
      router_(comm) {
  const mesh::BoxSpec& spec = part.spec();
  h_ = {1.0 / spec.ex, 1.0 / spec.ey, 1.0 / spec.ez};
  bary_ = sem::barycentric_weights(ops.rule.nodes);
  set_layout(layout_);
}

void Tracker::set_layout(const mesh::ElementLayout& layout) {
  layout_ = layout;
  local_of_gid_.assign(std::size_t(layout_.total_elements()), -1);
  for (int e = 0; e < layout_.nel(); ++e) {
    local_of_gid_[std::size_t(layout_.gid_of(e))] = e;
  }
  binned_ = false;
}

void Tracker::seed_random(int count_per_rank, std::uint64_t seed) {
  util::SplitMix64 rng(util::rank_seed(seed, comm_->rank()));
  particles_.clear();
  particles_.reserve(count_per_rank);
  // Seed inside this rank's *block* extent (the historical behavior; under
  // a non-block layout call migrate() afterwards to restore ownership).
  const mesh::Partition part(layout_.spec(), layout_.rank());
  const double x0 = part.x0() * h_[0], x1 = part.x1() * h_[0];
  const double y0 = part.y0() * h_[1], y1 = part.y1() * h_[1];
  const double z0 = part.z0() * h_[2], z1 = part.z1() * h_[2];
  for (int i = 0; i < count_per_rank; ++i) {
    Particle p;
    p.id = static_cast<long long>(comm_->rank()) * 1000000 + i;
    p.x = rng.uniform(x0, x1);
    p.y = rng.uniform(y0, y1);
    p.z = rng.uniform(z0, z1);
    particles_.push_back(p);
  }
  binned_ = false;
  bin_local();
}

void Tracker::seed_global(long long total, std::uint64_t seed) {
  util::SplitMix64 rng(util::rank_seed(seed, /*rank=*/0));
  particles_.clear();
  for (long long i = 0; i < total; ++i) {
    Particle p;
    p.id = i;
    p.x = rng.uniform(0.0, 1.0);
    p.y = rng.uniform(0.0, 1.0);
    p.z = rng.uniform(0.0, 1.0);
    if (owns(p.x, p.y, p.z)) particles_.push_back(p);
  }
  bin_local();
}

void Tracker::adopt_global(std::span<const Particle> all) {
  std::vector<Particle> mine;
  std::vector<int> elem;
  mine.reserve(all.size());
  elem.reserve(all.size());
  for (const Particle& p : all) {
    const int e = local_element(p.x, p.y, p.z);
    if (e >= 0) {
      mine.push_back(p);
      elem.push_back(e);
    }
  }
  bin(mine, elem);
}

std::array<int, 3> Tracker::element_of(double x, double y, double z) const {
  const mesh::BoxSpec& spec = layout_.spec();
  auto clampi = [](int v, int hi) { return v < 0 ? 0 : (v >= hi ? hi - 1 : v); };
  return {clampi(int(x / h_[0]), spec.ex), clampi(int(y / h_[1]), spec.ey),
          clampi(int(z / h_[2]), spec.ez)};
}

int Tracker::local_element(double x, double y, double z) const {
  auto e = element_of(x, y, z);
  return local_of_gid_[std::size_t(layout_.gid(e[0], e[1], e[2]))];
}

bool Tracker::owns(double x, double y, double z) const {
  return local_element(x, y, z) >= 0;
}

void Tracker::bin(const std::vector<Particle>& src,
                  const std::vector<int>& elem) {
  const int nel = layout_.nel();
  offsets_.assign(std::size_t(nel) + 1, 0);
  for (int e : elem) ++offsets_[std::size_t(e) + 1];
  for (int e = 0; e < nel; ++e) offsets_[e + 1] += offsets_[e];
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  particles_.resize(src.size());
  for (std::size_t q = 0; q < src.size(); ++q) {
    particles_[std::size_t(cursor[elem[q]]++)] = src[q];
  }
  // Ascending id inside each bin. The counting sort is stable and most
  // particles stay in their element from one step to the next, so each bin
  // arrives nearly sorted and insertion sort does little more than a scan.
  auto by_id = [](const Particle& a, const Particle& b) { return a.id < b.id; };
  Particle* ps = particles_.data();
  for (int e = 0; e < nel; ++e) {
    for (int q = offsets_[e] + 1; q < offsets_[e + 1]; ++q) {
      if (!by_id(ps[q], ps[q - 1])) continue;
      const Particle p = ps[q];
      Particle* pos = std::upper_bound(ps + offsets_[e], ps + q, p, by_id);
      std::move_backward(pos, ps + q, ps + q + 1);
      *pos = p;
    }
  }
  binned_ = true;
}

bool Tracker::bin_local() {
  std::vector<int> elem(particles_.size());
  for (std::size_t q = 0; q < particles_.size(); ++q) {
    const Particle& p = particles_[q];
    elem[q] = local_element(p.x, p.y, p.z);
    if (elem[q] < 0) return false;
  }
  const std::vector<Particle> src = std::move(particles_);
  bin(src, elem);
  return true;
}

void Tracker::ensure_binned() {
  if (!binned_ && !bin_local()) {
    throw std::logic_error(
        "Tracker: a particle lies outside this rank's elements; call "
        "migrate() first");
  }
}

std::vector<int> Tracker::count_per_element() {
  ensure_binned();
  std::vector<int> count(std::size_t(layout_.nel()));
  for (std::size_t e = 0; e < count.size(); ++e) {
    count[e] = offsets_[e + 1] - offsets_[e];
  }
  return count;
}

void Tracker::advance(const std::array<double, 3>& velocity, double dt) {
  prof::ScopedRegion region("particle_advance");
  for (Particle& p : particles_) {
    p.x = wrap01(p.x + velocity[0] * dt);
    p.y = wrap01(p.y + velocity[1] * dt);
    p.z = wrap01(p.z + velocity[2] * dt);
  }
  binned_ = false;
}

void Tracker::basis(double coord, double* w, std::size_t stride) const {
  const int n = ops_->n;
  const double* nodes = ops_->rule.nodes.data();
  for (int i = 0; i < n; ++i) {
    if (coord == nodes[i]) {
      for (int l = 0; l < n; ++l) w[l * stride] = l == i ? 1.0 : 0.0;
      return;
    }
  }
  double denom = 0.0;
  for (int i = 0; i < n; ++i) {
    w[i * stride] = bary_[i] / (coord - nodes[i]);
    denom += w[i * stride];
  }
  for (int i = 0; i < n; ++i) w[i * stride] /= denom;
}

void Tracker::basis_lanes(const double* coord, int m, double* w) const {
  const int n = ops_->n;
  const double* nodes = ops_->rule.nodes.data();
  int p = 0;
  for (; p + 2 <= m; p += 2) {
    bool hit = false;
    for (int i = 0; i < n; ++i) {
      hit |= (coord[p] == nodes[i]) | (coord[p + 1] == nodes[i]);
    }
    if (hit) {
      basis(coord[p], w + p, std::size_t(m));
      basis(coord[p + 1], w + p + 1, std::size_t(m));
      continue;
    }
    const Lanes c = load2(coord + p);
    Lanes denom = {0.0, 0.0};
    for (int i = 0; i < n; ++i) {
      const Lanes wi = bary_[i] / (c - nodes[i]);
      store2(w + std::size_t(i) * m + p, wi);
      denom += wi;
    }
    for (int i = 0; i < n; ++i) {
      double* wi = w + std::size_t(i) * m + p;
      store2(wi, load2(wi) / denom);
    }
  }
  if (p < m) basis(coord[p], w + p, std::size_t(m));
}

void Tracker::weights(const Particle* ps, int m, const std::array<int, 3>& g,
                      double* coord, double* w) const {
  // Reference coordinates in [-1, 1] within element g.
  for (int p = 0; p < m; ++p) {
    coord[p] = 2.0 * (ps[p].x / h_[0] - g[0]) - 1.0;
    coord[m + p] = 2.0 * (ps[p].y / h_[1] - g[1]) - 1.0;
    coord[2 * m + p] = 2.0 * (ps[p].z / h_[2] - g[2]) - 1.0;
  }
  const std::size_t nm = std::size_t(ops_->n) * m;
  for (int axis = 0; axis < 3; ++axis) {
    basis_lanes(coord + axis * m, m, w + axis * nm);
  }
}

double Tracker::interpolate(const double* field, double x, double y,
                            double z) const {
  const int n = ops_->n;
  const int le = local_element(x, y, z);
  assert(le >= 0);
  double* coord = thread_scratch(3 + 3 * std::size_t(n));
  const double* wx = coord + 3;
  const double* wy = wx + n;
  const double* wz = wy + n;
  const Particle at{0, x, y, z};
  weights(&at, 1, element_of(x, y, z), coord, coord + 3);

  const double* ue = field + std::size_t(le) * n * n * n;
  double value = 0.0;
  for (int k = 0; k < n; ++k) {
    double slab = 0.0;
    for (int j = 0; j < n; ++j) {
      double row = 0.0;
      const double* urow = ue + std::size_t(n) * (j + std::size_t(n) * k);
      for (int i = 0; i < n; ++i) row += wx[i] * urow[i];
      slab += wy[j] * row;
    }
    value += wz[k] * slab;
  }
  return value;
}

void Tracker::deposit(double* field, double x, double y, double z,
                      double strength) const {
  const int n = ops_->n;
  const int le = local_element(x, y, z);
  assert(le >= 0);
  double* coord = thread_scratch(3 + 3 * std::size_t(n));
  const double* wx = coord + 3;
  const double* wy = wx + n;
  const double* wz = wy + n;
  const Particle at{0, x, y, z};
  weights(&at, 1, element_of(x, y, z), coord, coord + 3);

  double* ue = field + std::size_t(le) * n * n * n;
  for (int k = 0; k < n; ++k) {
    const double wk = wz[k] * strength;
    for (int j = 0; j < n; ++j) {
      const double wjk = wy[j] * wk;
      double* row = ue + std::size_t(n) * (j + std::size_t(n) * k);
      for (int i = 0; i < n; ++i) row[i] += wx[i] * wjk;
    }
  }
}

// The binned deposit. deposit() adds wx[i] * (wy[j] * (wz[k] * s)) to entry
// (i,j,k) for one particle at a time; here a chunk of m particles of element
// e adds through one accumulate-into-C contraction
//   rhs_e(n x n^2) += Wx(n x m) * Wjk(m x n^2),
//   Wjk[p,(j,k)] = wy_p[j] * (wz_p[k] * s),
// and mxm_acc adds each entry's m products one at a time in ascending p —
// the same products in the same order as deposit() called in bin order.
void Tracker::deposit_bin(int e, double* field, double strength) const {
  const int n = ops_->n;
  const std::size_t nn = std::size_t(n) * n;
  const std::size_t cap = kChunk;
  double* coord = thread_scratch(cap * (3 + 3 * n + n + nn));
  double* w = coord + 3 * cap;  // wx, wy, wz: w[(axis*n + i)*m + p]
  double* a = w + 3 * n * cap;  // Wx(n x m)
  double* b = a + n * cap;      // Wjk(m x n^2)
  const std::array<int, 3> g = layout_.global_coords(e);
  double* ue = field + std::size_t(e) * nn * n;
  for (int c0 = offsets_[e]; c0 < offsets_[e + 1]; c0 += kChunk) {
    const int m = std::min(kChunk, offsets_[e + 1] - c0);
    weights(particles_.data() + c0, m, g, coord, w);
    const double* wx = w;
    const double* wy = w + std::size_t(n) * m;
    const double* wz = w + 2 * std::size_t(n) * m;
    for (int p = 0; p < m; ++p) {
      for (int i = 0; i < n; ++i) {
        a[std::size_t(p) * n + i] = wx[std::size_t(i) * m + p];
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        double* bjk = b + (j + std::size_t(n) * k) * m;
        for (int p = 0; p < m; ++p) {
          bjk[p] = wy[std::size_t(j) * m + p] *
                   (wz[std::size_t(k) * m + p] * strength);
        }
      }
    }
    kernels::mxm_acc(a, n, b, m, ue, int(nn));
  }
}

void Tracker::deposit_all(double* field, double strength_per_particle) {
  prof::ScopedRegion region("particle_deposit");
  ensure_binned();
  // Bins write disjoint elements of `field`, so any split across threads
  // leaves every bit of the result unchanged. One element per pool chunk:
  // a clustered cloud fills few bins, and claiming them one at a time keeps
  // the threads balanced.
  parallel::for_elements(std::size_t(layout_.nel()), 1, threads_,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t e = lo; e < hi; ++e) {
                             deposit_bin(int(e), field, strength_per_particle);
                           }
                         });
}

// The binned interpolation, per chunk of m particles and per component:
// R(m x n^2) = Wx^T(m x n) * U_e(n x n^2) is every particle's i-contraction
// (mxm starts each entry from +0.0 and adds in ascending i, as interpolate()'s
// row sum does); the j and k reductions then run across the particle lanes
// in interpolate()'s order.
void Tracker::advance_bin(int e, const double* const u[3], double dt) {
  const int n = ops_->n;
  const std::size_t nn = std::size_t(n) * n;
  const std::size_t cap = kChunk;
  double* coord = thread_scratch(cap * (3 + 3 * n + nn + 4));
  double* w = coord + 3 * cap;     // wx, wy, wz: w[(axis*n + i)*m + p]
  double* rows = w + 3 * n * cap;  // R(m x n^2)
  double* slab = rows + nn * cap;  // m
  double* vel = slab + cap;        // 3 x m
  const std::array<int, 3> g = layout_.global_coords(e);
  for (int c0 = offsets_[e]; c0 < offsets_[e + 1]; c0 += kChunk) {
    const int m = std::min(kChunk, offsets_[e + 1] - c0);
    Particle* ps = particles_.data() + c0;
    weights(ps, m, g, coord, w);
    const double* wx = w;
    const double* wy = w + std::size_t(n) * m;
    const double* wz = w + 2 * std::size_t(n) * m;
    for (int comp = 0; comp < 3; ++comp) {
      kernels::mxm_auto(wx, m, u[comp] + std::size_t(e) * nn * n, n, rows,
                        int(nn));
      double* value = vel + std::size_t(comp) * m;
      for (int p = 0; p < m; ++p) value[p] = 0.0;
      for (int k = 0; k < n; ++k) {
        for (int p = 0; p < m; ++p) slab[p] = 0.0;
        for (int j = 0; j < n; ++j) {
          const double* wyj = wy + std::size_t(j) * m;
          const double* rjk = rows + (j + std::size_t(n) * k) * m;
          for (int p = 0; p < m; ++p) slab[p] += wyj[p] * rjk[p];
        }
        const double* wzk = wz + std::size_t(k) * m;
        for (int p = 0; p < m; ++p) value[p] += wzk[p] * slab[p];
      }
    }
    for (int p = 0; p < m; ++p) {
      ps[p].x = wrap01(ps[p].x + vel[p] * dt);
      ps[p].y = wrap01(ps[p].y + vel[m + p] * dt);
      ps[p].z = wrap01(ps[p].z + vel[2 * m + p] * dt);
    }
  }
}

void Tracker::advance_interpolated(const double* ux, const double* uy,
                                   const double* uz, double dt) {
  prof::ScopedRegion region("particle_advance");
  ensure_binned();
  const double* const u[3] = {ux, uy, uz};
  // Each particle reads only the fields and writes only itself.
  parallel::for_elements(std::size_t(layout_.nel()), 1, threads_,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t e = lo; e < hi; ++e) {
                             advance_bin(int(e), u, dt);
                           }
                         });
  binned_ = false;
}

void Tracker::migrate() {
  prof::ScopedRegion region("particle_migrate");
  // One element lookup per particle decides both ownership and the bin.
  std::vector<Particle> leaving, staying;
  std::vector<int> dest, elem;
  staying.reserve(particles_.size());
  elem.reserve(particles_.size());
  for (const Particle& p : particles_) {
    auto e = element_of(p.x, p.y, p.z);
    const long long g = layout_.gid(e[0], e[1], e[2]);
    const int le = local_of_gid_[std::size_t(g)];
    if (le >= 0) {
      staying.push_back(p);
      elem.push_back(le);
    } else {
      leaving.push_back(p);
      dest.push_back(layout_.owner_of_gid(g));
    }
  }
  last_migrated_ = leaving.size();

  std::vector<Particle> arrived = router_.route_records(
      std::span<const Particle>(leaving), dest);
  for (const Particle& p : arrived) {
    staying.push_back(p);
    elem.push_back(local_element(p.x, p.y, p.z));
    if (elem.back() < 0) {
      throw std::logic_error("Tracker::migrate: arrival outside this rank");
    }
  }
  // Canonical local order (ids are globally unique): deposit accumulation
  // per element becomes a function of the particle set alone.
  bin(staying, elem);
}

long long Tracker::total_count() const {
  return comm_->allreduce_one(static_cast<long long>(particles_.size()),
                              comm::ReduceOp::kSum);
}

}  // namespace cmtbone::particles
