#pragma once
// The gather-scatter handle: gs_setup + gs_op, reproducing Nek5000's gslib
// as CMT-bone exercises it.
//
// A gs_op reduces, over every set of coincident GLL points (same global
// id), the values held by all their local copies — across elements and
// across ranks — and writes the result back to every copy. It proceeds in
// three phases:
//   1. local gather: fold this rank's duplicate copies into one value/id,
//   2. nonlocal exchange: combine with the other sharer ranks using one of
//      three algorithms — pairwise exchange, crystal router, or
//      allreduce-on-a-big-vector (paper §VI),
//   3. local scatter: write the reduced value back to every local copy.
//
// At construction with Method::kAuto the handle times all three algorithms
// and keeps the fastest, exactly as CMT-nek/Nek5000 do at startup ("At the
// beginning of each simulation, three gather-scatter methods are evaluated
// to determine which one performs the best for the given problem setup and
// machine"). The tuning table is retained — it is the content of Fig. 7.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "gs/crystal.hpp"
#include "gs/topology.hpp"
#include "netmodel/loggp.hpp"

namespace cmtbone::gs {

using comm::ReduceOp;

/// kAuto times all three algorithms at setup and keeps the fastest.
/// kModel skips the timing pass: it builds the handle's ExchangeShape from
/// the live topology and asks netmodel::predict_all under the calibrated
/// machine (netmodel::calibrated_machine()), falling back to the measured
/// tune() when no calibration has been published. Either way the handle
/// ends up running one of the three concrete algorithms, so results are
/// bit-identical to forcing that method directly.
enum class Method { kPairwise, kCrystalRouter, kAllReduce, kAuto, kModel };

const char* method_name(Method m);

class GatherScatter {
 public:
  /// Collective. `slot_ids`: one global id per local data slot. With
  /// kAuto, runs the startup tuning pass and picks the fastest method.
  ///
  /// `slot_keys`, when non-empty (one key per slot, globally unique across
  /// all ranks' slots), switches the handle to *ordered* mode: every
  /// gs_op folds the copies of each id in ascending-key order, starting
  /// from the op identity, no matter which rank holds which copy. Keys
  /// derive from global mesh coordinates (mesh::global_gll_keys /
  /// face_point_keys), so the reduction order — and hence every result
  /// bit — is invariant under element migration between ranks: the load
  /// balancer's "migration changes *where*, never *what*" anchor. Ordered
  /// mode exchanges raw per-copy values with each sharer (a pairwise-style
  /// pattern, slightly larger messages for edge/corner ids) and ignores
  /// the configured exchange method.
  GatherScatter(comm::Comm& comm, std::span<const long long> slot_ids,
                Method method = Method::kAuto,
                std::span<const long long> slot_keys = {});

  /// True when constructed with per-slot keys (layout-invariant folds).
  bool ordered() const { return ordered_; }

  /// Withdraws any split-phase receives still posted (a chaos abort or
  /// peer failure can unwind the owner between begin() and finish()), so
  /// no late delivery ever writes into the freed recv buffers.
  ~GatherScatter();
  GatherScatter(const GatherScatter&) = delete;
  GatherScatter& operator=(const GatherScatter&) = delete;

  /// gs_op: in-place gather-scatter over `values` (one per slot).
  void exec(std::span<double> values, ReduceOp op);

  /// Like exec, but with a specific algorithm (for benchmarking).
  void exec_with(std::span<double> values, ReduceOp op, Method method);

  /// gs_op over `nfields` fields at once (Nek's gs_op_fields): `values`
  /// holds the fields back to back, each one slot-count long. All fields of
  /// a shared id travel in the same message, so per-exec message *count*
  /// stays flat while payload scales with nfields — the batching CMT-nek
  /// relies on when exchanging the five conserved variables.
  void exec_many(std::span<double> values, int nfields, ReduceOp op);
  void exec_many_with(std::span<double> values, int nfields, ReduceOp op,
                      Method method);

  /// Split-phase exec_many for compute–communication overlap. begin() runs
  /// the local gather and, under the pairwise method (and in ordered mode),
  /// posts all receives and sends the shared values, returning with the
  /// messages in flight; finish() waits, folds the remote contributions and
  /// scatters back into the span passed to begin(). A blocking exec is the
  /// same two halves back to back, so the results are bit-identical. The
  /// crystal-router and allreduce methods use unsplittable collectives: for
  /// them the whole exchange completes inside begin() and finish() only
  /// scatters. The span must stay alive until finish(); one gs_op in flight
  /// at a time.
  void exec_many_begin(std::span<double> values, int nfields, ReduceOp op);
  void exec_many_finish();

  /// True between exec_many_begin() and the matching exec_many_finish().
  bool split_in_flight() const { return split_active_; }
  /// True when the split-phase gs_op in flight still has receives posted
  /// (a pairwise or ordered exchange with at least one sharer rank).
  bool receives_posted() const { return !split_.reqs.empty(); }

  /// Typed gs_op, as gslib supports for its datatype set: T is one of
  /// double, float, int, long long. Same semantics as exec/exec_many.
  template <class T>
  void exec_typed(std::span<T> values, ReduceOp op) {
    exec_impl<T>(values, 1, op, method_);
  }
  template <class T>
  void exec_many_typed(std::span<T> values, int nfields, ReduceOp op,
                       Method method) {
    exec_impl<T>(values, nfields, op, method);
  }

  Method method() const { return method_; }
  const Topology& topology() const { return topo_; }

  /// Per-method startup timing (seconds per gs_op), reduced across ranks.
  /// Populated by the kAuto constructor or tune(); the rows of Fig. 7.
  struct TuneRow {
    Method method = Method::kPairwise;
    double avg = 0, min = 0, max = 0;  // across ranks
  };
  const std::vector<TuneRow>& tuning() const { return tuning_; }

  /// Run (or re-run) the startup tuning pass; returns the winner.
  Method tune(int repetitions = 5);

  /// This rank's exchange structure as the analytic network model sees it
  /// (ranks, pairwise partners and bytes, crystal records, big-vector
  /// bytes). What Method::kModel feeds to netmodel::predict_all.
  netmodel::ExchangeShape exchange_shape() const;

  // --- structure queries (for the communication-model benches) -----------
  /// Ranks this rank exchanges with under the pairwise method.
  std::vector<int> pairwise_neighbors() const;
  /// Values this rank sends per pairwise exec.
  std::size_t pairwise_send_values() const;
  /// Size (in values) of the allreduce method's big vector (the whole
  /// global id space, as in gslib).
  long long big_vector_size() const { return topo_.total_global; }

 private:
  // One gs_op exchange round, templated over the value type: the locally
  // gathered values (nfields interleaved per unique id) plus, for the
  // pairwise and ordered exchanges, the receives in flight between post()
  // and complete().
  template <class T>
  struct Round {
    std::span<T> values;
    int nfields = 0;
    ReduceOp op = ReduceOp::kSum;
    bool pairwise = false;  // post() left a pairwise/ordered exchange to fold
    std::vector<T> unique;
    std::vector<T> mine;  // ordered mode: my shared copies, flat
    std::vector<std::vector<T>> recvbuf;  // one per pairwise neighbor
    std::vector<comm::Request> reqs;
  };

  // Blocking gs_op: post() + complete() on a round local to the call.
  // Instantiated in the .cpp for double, float, int, long long.
  template <class T>
  void exec_impl(std::span<T> values, int nfields, ReduceOp op, Method method);
  // Local gather (plain, or ordered_gather in ordered mode); then either
  // post the pairwise/ordered receives and sends, or run the whole
  // crystal/allreduce exchange.
  template <class T>
  void post(Round<T>& round, std::span<T> values, int nfields, ReduceOp op,
            Method method);
  // Wait for the posted receives, fold them (neighbor order, or the ordered
  // merge program), then scatter back into round.values.
  template <class T>
  void complete(Round<T>& round);
  // Cancel the round's posted receives so no late delivery writes into its
  // buffers after an unwind.
  template <class T>
  void withdraw(Round<T>& round);
  template <class T>
  void exec_crystal(std::vector<T>& unique_values, int nfields, ReduceOp op);
  template <class T>
  void exec_allreduce(std::vector<T>& unique_values, int nfields, ReduceOp op);

  template <class T>
  static T identity(ReduceOp op);

  // Ordered mode: build the per-id fold programs from per-slot keys
  // (called at construction when slot_keys is non-empty).
  void setup_ordered(std::span<const long long> slot_keys);
  // Ordered phases: gather private folds + stage my shared copies (`mine`),
  // and fold shared entries from mine + per-neighbor recv buffers.
  template <class T>
  void ordered_gather(std::span<const T> values, int nfields, ReduceOp op,
                      std::vector<T>& unique, std::vector<T>& mine) const;
  template <class T>
  void ordered_fold_shared(int nfields, ReduceOp op, std::vector<T>& unique,
                           const std::vector<T>& mine,
                           const std::vector<std::vector<T>>& recvbuf) const;

  // Model-driven method selection (collective): predict all three
  // algorithms from the worst-rank exchange shape and return the cheapest.
  // Reduces each prediction across ranks so every rank picks the same
  // method deterministically.
  Method select_from_model(const netmodel::LogGPParams& machine);

  comm::Comm* comm_;
  Topology topo_;
  Method method_;
  std::vector<TuneRow> tuning_;

  // --- ordered-mode fold programs (empty unless ordered_) -----------------
  bool ordered_ = false;
  // Local slots grouped by unique id, each group sorted ascending by key:
  // unique u's slots are ordered_slots_[ordered_begin_[u] .. ordered_begin_[u+1]).
  std::vector<int> ordered_slots_;
  std::vector<int> ordered_begin_;
  // Per unique id: its topo_.shared entry, or -1 when private to this rank.
  std::vector<int> shared_of_unique_;
  // My copies of shared entry s occupy flat-buffer positions
  // [my_copy_offset_[s], my_copy_offset_[s+1]) — same slot order as above.
  std::vector<int> my_copy_offset_;
  // Copies each pairwise neighbor sends me per exec (neighbors in
  // pairwise_plan_ map order, the order recv buffers are indexed by).
  std::vector<std::size_t> nbr_copy_total_;
  // Merge program: shared entry s folds steps
  // [merge_begin_[s], merge_begin_[s+1]) in ascending-key order.
  struct MergeStep {
    int src;  // -1 = my flat copy buffer, else neighbor position in plan order
    int idx;  // copy index within that source buffer
  };
  std::vector<MergeStep> merge_steps_;
  std::vector<int> merge_begin_;

  // Pairwise plan: per neighbor rank, the shared entries (as indices into
  // topo_.shared, whose id order both sides agree on).
  std::map<int, std::vector<int>> pairwise_plan_;

  // Crystal plan: owner of each shared entry (min rank of the sharer set,
  // including me); shared entries I own, keyed for arrival-time lookup.
  std::vector<int> owner_;                    // per shared entry
  std::vector<long long> owned_ids_;          // ascending ids I own
  std::vector<int> owned_shared_entry_;       // topo_.shared index per owned id
  CrystalRouter router_;

  // The round between exec_many_begin() and exec_many_finish(). Its
  // gather/recv buffers persist across steps so a steady-state time step
  // allocates only the in-flight send payloads on this path.
  bool split_active_ = false;
  Round<double> split_;
};

}  // namespace cmtbone::gs
