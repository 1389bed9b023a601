#pragma once
// Lagrangian point-particle tracking — the paper's named next CMT-nek
// capability ("In the following years complete multiphase coupling, shock
// capturing, lagrangian point particle tracking, and real gas models will
// be added", §III-A).
//
// Particles live on the rank that owns the element containing them. Each
// step they advance along a velocity — either a uniform carrier velocity or
// one interpolated from the spectral-element fields via tensor-product
// Lagrange evaluation — and particles that cross a partition boundary
// migrate to their new owner through the crystal router, the same transport
// CMT-nek uses for its particle swap.
//
// The resident set is kept binned by local element: bin e holds the
// particles inside local element e, in ascending id. Deposit and
// interpolation then run bin by bin on the worker pool as per-element
// small-matrix contractions (the shape the paper's mxm kernels take), and
// every rhs entry and every particle sees the same floating-point
// operations, in the same order, as the per-particle deposit()/interpolate().

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "gs/crystal.hpp"
#include "mesh/layout.hpp"
#include "mesh/partition.hpp"
#include "sem/operators.hpp"

namespace cmtbone::particles {

/// One particle's migration record (also the on-wire layout).
struct Particle {
  long long id = 0;
  double x = 0, y = 0, z = 0;
};

class Tracker {
 public:
  /// Collective over `comm`; the partition must match the communicator.
  /// Ownership starts as the block layout of `part`.
  Tracker(comm::Comm& comm, const mesh::Partition& part,
          const sem::Operators& ops);

  /// Adopt a new element layout (the load balancer's relayout). Particles
  /// keep their positions; call migrate() afterwards to ship each one to
  /// its element's new owner. Collective only through that migrate().
  void set_layout(const mesh::ElementLayout& layout);
  const mesh::ElementLayout& layout() const { return layout_; }

  /// Seed `count_per_rank` particles uniformly inside this rank's block.
  /// Ids are globally unique and deterministic in (seed, rank).
  void seed_random(int count_per_rank, std::uint64_t seed);

  /// Seed `total` particles uniformly in the unit domain: every rank runs
  /// the identical RNG stream over all `total` particles and keeps the ones
  /// its layout owns — so the global particle set (ids and positions) is
  /// independent of the element layout, the property the balanced-vs-static
  /// bit-identity tests rest on.
  void seed_global(long long total, std::uint64_t seed);

  /// Replace the local set with the owned subset of a replicated global
  /// particle list (scenario generators build the full list identically on
  /// every rank).
  void adopt_global(std::span<const Particle> all);

  /// Advance every local particle by dt along a uniform velocity, with
  /// periodic wrap. Call migrate() afterwards to restore ownership.
  void advance(const std::array<double, 3>& velocity, double dt);

  /// Worker-pool threads for the binned deposit and interpolation (the
  /// Driver passes its threads_per_rank; results do not depend on it).
  void set_threads(int threads) { threads_ = threads < 1 ? 1 : threads; }

  /// Advance along a velocity interpolated from three spectral-element
  /// fields (each (n,n,n,nel) on this rank's elements). Forward Euler in
  /// time; particles must be locally owned when called (std::logic_error
  /// otherwise). Bit-identical to interpolate() per particle and component.
  void advance_interpolated(const double* ux, const double* uy,
                            const double* uz, double dt);

  /// Ship every particle that left this rank's elements to its owner via
  /// the crystal router, then re-bin the local set by element (counting
  /// sort, ascending id inside each bin). Collective. The id order inside a
  /// bin makes the deposit accumulation order per element canonical — a
  /// function of the particle set alone, not of arrival history — which
  /// keeps the coupling source term bit-identical across relayouts.
  void migrate();

  /// Interpolate one scalar field at a (locally owned) position.
  double interpolate(const double* field, double x, double y, double z) const;

  /// Deposit `strength` from a (locally owned) position onto the owning
  /// element's nodes — the transpose of interpolation, the building block
  /// of two-way multiphase coupling (the paper's source term R). The
  /// deposit is partition-of-unity: the nodal weights sum to 1, so summing
  /// field * 1 recovers the total deposited strength under the
  /// interpolation pairing.
  void deposit(double* field, double x, double y, double z,
               double strength) const;

  /// Deposit every local particle with equal strength (a uniform particle
  /// load) onto `field`. Bit-identical to calling deposit() for every
  /// particle in ascending id; particles must be locally owned.
  void deposit_all(double* field, double strength_per_particle);

  /// True if (x,y,z) lies in an element this rank owns.
  bool owns(double x, double y, double z) const;

  /// Resident particles per local element (cost-model input): bin sizes.
  std::vector<int> count_per_element();

  std::size_t local_count() const { return particles_.size(); }
  /// The resident set, in bin order (local element, then ascending id) once
  /// binned; positions may have moved since (advance before migrate).
  const std::vector<Particle>& particles() const { return particles_; }
  /// Direct access; the bins are rebuilt before their next use.
  std::vector<Particle>& mutable_particles() {
    binned_ = false;
    return particles_;
  }

  /// Total particles across ranks (collective).
  long long total_count() const;

  /// Particles shipped by the last migrate() call on this rank.
  std::size_t last_migrated() const { return last_migrated_; }

 private:
  std::array<int, 3> element_of(double x, double y, double z) const;
  /// Local index of the element containing (x,y,z), -1 when not owned.
  int local_element(double x, double y, double z) const;
  /// Barycentric Lagrange weights of the GLL nodes at reference coordinate
  /// `coord`, written to w[0], w[stride], ...: w_i = b_i/(coord - x_i),
  /// normalized; an exact node hit is a delta.
  void basis(double coord, double* w, std::size_t stride) const;
  /// basis() for m coordinates at once into w[i*m + p], two particles per
  /// vector lane pair (same operations per lane as basis()).
  void basis_lanes(const double* coord, int m, double* w) const;
  /// Weights of m particles inside element g (global coordinates): their
  /// reference coordinates into coord[3m], then basis_lanes() per axis into
  /// w[(axis*n + i)*m + p]. The per-particle and the binned paths both
  /// evaluate the basis here.
  void weights(const Particle* ps, int m, const std::array<int, 3>& g,
               double* coord, double* w) const;
  /// Rebuild the bins from the current positions without communication;
  /// false (set untouched) if some particle lies outside this rank.
  bool bin_local();
  /// Counting sort of `src` by local element `elem` into the bins.
  void bin(const std::vector<Particle>& src, const std::vector<int>& elem);
  /// Bins current, or throw std::logic_error (call migrate() first).
  void ensure_binned();
  /// Deposit / interpolate-and-advance one bin (local element e).
  void deposit_bin(int e, double* field, double strength) const;
  void advance_bin(int e, const double* const u[3], double dt);
  static double wrap01(double v) {
    v -= std::floor(v);
    // floor(1.0 - eps) edge: wrap exact 1.0 back to 0.
    return v >= 1.0 ? v - 1.0 : v;
  }

  comm::Comm* comm_;
  mesh::ElementLayout layout_;
  const sem::Operators* ops_;
  gs::CrystalRouter router_;
  std::array<double, 3> h_;
  // Local index by global element id, -1 where another rank owns it: one
  // load per particle lookup instead of a search of the owned list.
  std::vector<int> local_of_gid_;
  std::vector<Particle> particles_;  // bin order once binned
  // Bin e is particles_[offsets_[e], offsets_[e+1]); valid while binned_.
  std::vector<int> offsets_;
  // The bins match the positions (no advance or direct edit since).
  bool binned_ = false;
  std::size_t last_migrated_ = 0;
  int threads_ = 1;
  std::vector<double> bary_;  // barycentric weights of the GLL nodes
};

}  // namespace cmtbone::particles
