#include "gs/gather_scatter.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "prof/timer.hpp"
#include "util/bytes.hpp"

namespace cmtbone::gs {

namespace {
constexpr int kPairwiseTag = 7;
// Ordered-mode setup handshake (copy counts, then copy keys, per neighbor).
constexpr int kOrderedCountTag = 8;
constexpr int kOrderedKeyTag = 9;
}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kPairwise: return "pairwise exchange";
    case Method::kCrystalRouter: return "crystal router";
    case Method::kAllReduce: return "all_reduce";
    case Method::kAuto: return "auto";
    case Method::kModel: return "model";
  }
  return "?";
}

template <class T>
T GatherScatter::identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return T(0);
    case ReduceOp::kProd: return T(1);
    case ReduceOp::kMin: return std::numeric_limits<T>::max();
    case ReduceOp::kMax: return std::numeric_limits<T>::lowest();
  }
  return T(0);
}

GatherScatter::GatherScatter(comm::Comm& comm,
                             std::span<const long long> slot_ids, Method method,
                             std::span<const long long> slot_keys)
    : comm_(&comm),
      topo_(gs_setup(comm, slot_ids)),
      method_(method),
      router_(comm) {
  // Pairwise plan: topo_.shared is sorted by id, so appending in order gives
  // both sides of every pair an identical per-neighbor id ordering.
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    for (int r : topo_.shared[s].sharers) {
      pairwise_plan_[r].push_back(int(s));
    }
  }

  // Crystal plan: owner = min rank of the sharer set (which includes me).
  owner_.resize(topo_.shared.size());
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    const SharedId& sh = topo_.shared[s];
    int owner = comm.rank();
    if (!sh.sharers.empty()) owner = std::min(owner, sh.sharers.front());
    owner_[s] = owner;
    if (owner == comm.rank()) {
      owned_ids_.push_back(sh.id);
      owned_shared_entry_.push_back(int(s));
    }
  }

  if (!slot_keys.empty()) setup_ordered(slot_keys);

  // Ordered mode always runs its own (pairwise-pattern) exchange; kAuto
  // would time algorithms the handle never uses.
  if (method_ == Method::kAuto) {
    method_ = ordered_ ? Method::kPairwise : tune();
  } else if (method_ == Method::kModel) {
    if (ordered_) {
      method_ = Method::kPairwise;
    } else if (auto machine = netmodel::calibrated_machine()) {
      method_ = select_from_model(*machine);
    } else {
      method_ = tune();
    }
  }
}

// --- ordered mode -----------------------------------------------------------
//
// Setup builds, per global id, a canonical fold *program* over all of the
// id's copies, ordered by each copy's globally-unique key. At exec time
// every sharer of an id receives every other sharer's raw copy values and
// folds the full copy list (its own included) in ascending-key order,
// starting from the op identity. A private id folds its local copies the
// same way. Since the (key, value) multiset of an id's copies does not
// depend on which rank holds which copy, neither does the fold — the bits
// are invariant under element migration.

void GatherScatter::setup_ordered(std::span<const long long> slot_keys) {
  ordered_ = true;
  const std::size_t nunique = topo_.unique_ids.size();
  const std::size_t nslots = topo_.unique_of_slot.size();

  // Slots grouped by unique id, ascending by key within each group.
  std::vector<int> count(nunique, 0);
  for (std::size_t s = 0; s < nslots; ++s) ++count[topo_.unique_of_slot[s]];
  ordered_begin_.assign(nunique + 1, 0);
  for (std::size_t u = 0; u < nunique; ++u) {
    ordered_begin_[u + 1] = ordered_begin_[u] + count[u];
  }
  ordered_slots_.resize(nslots);
  std::vector<int> cursor(ordered_begin_.begin(), ordered_begin_.end() - 1);
  for (std::size_t s = 0; s < nslots; ++s) {
    ordered_slots_[cursor[topo_.unique_of_slot[s]]++] = int(s);
  }
  for (std::size_t u = 0; u < nunique; ++u) {
    std::sort(ordered_slots_.begin() + ordered_begin_[u],
              ordered_slots_.begin() + ordered_begin_[u + 1],
              [&](int a, int b) { return slot_keys[a] < slot_keys[b]; });
  }

  shared_of_unique_.assign(nunique, -1);
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    shared_of_unique_[topo_.shared[s].unique_index] = int(s);
  }
  my_copy_offset_.assign(topo_.shared.size() + 1, 0);
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    const int u = topo_.shared[s].unique_index;
    my_copy_offset_[s + 1] =
        my_copy_offset_[s] + (ordered_begin_[u + 1] - ordered_begin_[u]);
  }

  // Handshake with each pairwise neighbor: my per-entry copy counts, then
  // the copy keys (each entry's keys already ascending). Both sides walk
  // the shared entries in the same (id) order, so arrays line up.
  const std::size_t nnbr = pairwise_plan_.size();
  std::vector<std::vector<int>> send_counts(nnbr), recv_counts(nnbr);
  std::vector<comm::Request> reqs;
  reqs.reserve(nnbr);
  std::size_t b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    recv_counts[b].resize(entries.size());
    reqs.push_back(comm_->irecv(std::span<int>(recv_counts[b]), neighbor,
                                kOrderedCountTag));
    ++b;
  }
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    std::vector<int>& sc = send_counts[b++];
    sc.reserve(entries.size());
    for (int s : entries) {
      sc.push_back(my_copy_offset_[s + 1] - my_copy_offset_[s]);
    }
    comm_->isend(std::span<const int>(sc), neighbor, kOrderedCountTag);
  }
  comm_->waitall(reqs);

  nbr_copy_total_.assign(nnbr, 0);
  for (std::size_t i = 0; i < nnbr; ++i) {
    for (int c : recv_counts[i]) nbr_copy_total_[i] += std::size_t(c);
  }

  std::vector<std::vector<long long>> send_keys(nnbr), recv_keys(nnbr);
  reqs.clear();
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    (void)entries;
    recv_keys[b].resize(nbr_copy_total_[b]);
    reqs.push_back(comm_->irecv(std::span<long long>(recv_keys[b]), neighbor,
                                kOrderedKeyTag));
    ++b;
  }
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    std::vector<long long>& sk = send_keys[b++];
    for (int s : entries) {
      const int u = topo_.shared[s].unique_index;
      for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
        sk.push_back(slot_keys[ordered_slots_[i]]);
      }
    }
    comm_->isend(std::span<const long long>(sk), neighbor, kOrderedKeyTag);
  }
  comm_->waitall(reqs);

  // Merge program: per shared entry, every copy (mine and each sharer's)
  // sorted ascending by key. Keys are globally unique, so every sharer
  // derives the identical order from the identical key multiset.
  struct Cand {
    long long key;
    int src, idx;
  };
  std::vector<std::vector<Cand>> cand(topo_.shared.size());
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    const int u = topo_.shared[s].unique_index;
    for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
      cand[s].push_back({slot_keys[ordered_slots_[i]], -1,
                         my_copy_offset_[s] + (i - ordered_begin_[u])});
    }
  }
  b = 0;
  for (const auto& [neighbor, entries] : pairwise_plan_) {
    (void)neighbor;
    int pos = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (int j = 0; j < recv_counts[b][i]; ++j) {
        cand[entries[i]].push_back({recv_keys[b][pos], int(b), pos});
        ++pos;
      }
    }
    ++b;
  }
  merge_begin_.assign(topo_.shared.size() + 1, 0);
  merge_steps_.clear();
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    std::sort(cand[s].begin(), cand[s].end(),
              [](const Cand& a, const Cand& c) { return a.key < c.key; });
    for (const Cand& c : cand[s]) merge_steps_.push_back({c.src, c.idx});
    merge_begin_[s + 1] = int(merge_steps_.size());
  }
}

template <class T>
void GatherScatter::ordered_gather(std::span<const T> values, int nfields,
                                   ReduceOp op, std::vector<T>& unique,
                                   std::vector<T>& mine) const {
  const std::size_t slots = values.size() / nfields;
  const std::size_t nf = std::size_t(nfields);
  unique.assign(topo_.unique_ids.size() * nf, identity<T>(op));
  mine.resize(std::size_t(my_copy_offset_.back()) * nf);
  for (std::size_t u = 0; u < topo_.unique_ids.size(); ++u) {
    const int s = shared_of_unique_[u];
    if (s < 0) {
      // Private id: fold local copies ascending by key — the same sequence
      // the merge program would produce were the copies split across ranks.
      T* uv = unique.data() + u * nf;
      for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
        const std::size_t slot = std::size_t(ordered_slots_[i]);
        for (std::size_t f = 0; f < nf; ++f) {
          uv[f] = comm::apply(op, uv[f], values[f * slots + slot]);
        }
      }
    } else {
      // Shared id: stage raw copies; folding happens after the exchange.
      for (int i = ordered_begin_[u]; i < ordered_begin_[u + 1]; ++i) {
        const std::size_t slot = std::size_t(ordered_slots_[i]);
        T* dst =
            mine.data() +
            (std::size_t(my_copy_offset_[s]) + (i - ordered_begin_[u])) * nf;
        for (std::size_t f = 0; f < nf; ++f) dst[f] = values[f * slots + slot];
      }
    }
  }
}

template <class T>
void GatherScatter::ordered_fold_shared(
    int nfields, ReduceOp op, std::vector<T>& unique,
    const std::vector<T>& mine,
    const std::vector<std::vector<T>>& recvbuf) const {
  const std::size_t nf = std::size_t(nfields);
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    T* uv = unique.data() + std::size_t(topo_.shared[s].unique_index) * nf;
    for (int m = merge_begin_[s]; m < merge_begin_[s + 1]; ++m) {
      const MergeStep& st = merge_steps_[m];
      const T* v = (st.src < 0 ? mine.data() : recvbuf[st.src].data()) +
                   std::size_t(st.idx) * nf;
      for (std::size_t f = 0; f < nf; ++f) {
        uv[f] = comm::apply(op, uv[f], v[f]);
      }
    }
  }
}

void GatherScatter::exec(std::span<double> values, ReduceOp op) {
  exec_impl<double>(values, 1, op, method_);
}

void GatherScatter::exec_with(std::span<double> values, ReduceOp op,
                              Method method) {
  exec_impl<double>(values, 1, op, method);
}

void GatherScatter::exec_many(std::span<double> values, int nfields,
                              ReduceOp op) {
  exec_impl<double>(values, nfields, op, method_);
}

void GatherScatter::exec_many_with(std::span<double> values, int nfields,
                                   ReduceOp op, Method method) {
  exec_impl<double>(values, nfields, op, method);
}

GatherScatter::~GatherScatter() { withdraw(split_); }

void GatherScatter::exec_many_begin(std::span<double> values, int nfields,
                                    ReduceOp op) {
  // post() withdraws its own receives if it throws, leaving nothing in
  // flight.
  post(split_, values, nfields, op, method_);
  split_active_ = true;
}

void GatherScatter::exec_many_finish() {
  if (!split_active_) return;
  split_active_ = false;
  complete(split_);
}

template <class T>
void GatherScatter::exec_impl(std::span<T> values, int nfields, ReduceOp op,
                              Method method) {
  Round<T> round;
  post(round, values, nfields, op, method);
  complete(round);
}

// --- the exchange round ------------------------------------------------------

template <class T>
void GatherScatter::post(Round<T>& round, std::span<T> values, int nfields,
                         ReduceOp op, Method method) {
  comm::SiteScope site("gs_op");
  round.values = values;
  round.nfields = nfields;
  round.op = op;
  const std::size_t slots = values.size() / nfields;
  const std::size_t nf = std::size_t(nfields);

  // Phase 1: local gather. Unique values interleave fields per id (id major,
  // field minor) so one exchange message carries all fields of an id
  // contiguously.
  if (ordered_) {
    ordered_gather(std::span<const T>(values.data(), values.size()), nfields,
                   op, round.unique, round.mine);
  } else {
    round.unique.assign(topo_.unique_ids.size() * nf, identity<T>(op));
    for (std::size_t s = 0; s < slots; ++s) {
      T* u = round.unique.data() + topo_.unique_of_slot[s] * nf;
      for (std::size_t f = 0; f < nf; ++f) {
        u[f] = comm::apply(op, u[f], values[f * slots + s]);
      }
    }
  }

  // Phase 2: nonlocal exchange. The ordered fold program replaces all three
  // methods (a per-call method request cannot be honored without changing
  // the bits); kAuto/kModel are resolved at construction, so a per-call
  // request for them degrades to the pairwise exchange. Crystal router and
  // allreduce are unsplittable collectives and run to completion here.
  round.pairwise = ordered_ || (method != Method::kCrystalRouter &&
                                method != Method::kAllReduce);
  if (!round.pairwise) {
    if (method == Method::kCrystalRouter) {
      exec_crystal(round.unique, nfields, op);
    } else {
      exec_allreduce(round.unique, nfields, op);
    }
    return;
  }

  // Pairwise: each sharer sends its locally gathered value per shared id;
  // ordered: its raw per-copy values (slightly larger messages for
  // edge/corner ids). Both sides walk the shared entries in id order.
  auto outgoing = [&](int s) -> std::span<const T> {
    if (!ordered_) {
      return {round.unique.data() + topo_.shared[s].unique_index * nf, nf};
    }
    return {round.mine.data() + std::size_t(my_copy_offset_[s]) * nf,
            std::size_t(my_copy_offset_[s + 1] - my_copy_offset_[s]) * nf};
  };
  comm::SiteScope psite("gs_op.pairwise");
  try {
    round.recvbuf.resize(pairwise_plan_.size());
    round.reqs.clear();
    round.reqs.reserve(pairwise_plan_.size());
    std::size_t b = 0;
    for (const auto& [neighbor, entries] : pairwise_plan_) {
      std::vector<T>& rb = round.recvbuf[b];
      rb.resize((ordered_ ? nbr_copy_total_[b] : entries.size()) * nf);
      ++b;
      round.reqs.push_back(
          comm_->irecv(std::span<T>(rb), neighbor, kPairwiseTag));
    }
    // Pack straight into the byte payload that becomes the in-flight
    // message (isend_payload moves it into the runtime).
    for (const auto& [neighbor, entries] : pairwise_plan_) {
      std::size_t bytes = 0;
      for (int s : entries) bytes += outgoing(s).size_bytes();
      std::vector<std::byte> payload(bytes);
      std::byte* out = payload.data();
      for (int s : entries) {
        const std::span<const T> v = outgoing(s);
        util::copy_bytes(out, v.data(), v.size_bytes());
        out += v.size_bytes();
      }
      comm_->isend_payload(std::move(payload), neighbor, kPairwiseTag);
    }
  } catch (...) {
    // A chaos abort or peer failure can fire from the hooks inside
    // irecv/isend_payload with some receives already posted: withdraw them
    // so nothing delivers into this round's buffers after the unwind.
    withdraw(round);
    throw;
  }
}

template <class T>
void GatherScatter::complete(Round<T>& round) {
  comm::SiteScope site("gs_op");
  const std::size_t nf = std::size_t(round.nfields);
  const std::size_t slots = round.values.size() / nf;

  if (round.pairwise) {
    comm::SiteScope psite("gs_op.pairwise");
    try {
      comm_->waitall(round.reqs);
    } catch (...) {
      // waitall withdrew whatever was still posted; clear the round so the
      // handle is reusable (and the destructor has nothing stale).
      withdraw(round);
      throw;
    }
    round.reqs.clear();
    if (ordered_) {
      ordered_fold_shared(round.nfields, round.op, round.unique, round.mine,
                          round.recvbuf);
    } else {
      // Remote contributions in ascending neighbor-rank order.
      std::size_t b = 0;
      for (const auto& [neighbor, entries] : pairwise_plan_) {
        const std::vector<T>& buf = round.recvbuf[b++];
        for (std::size_t i = 0; i < entries.size(); ++i) {
          T* u = round.unique.data() +
                 topo_.shared[entries[i]].unique_index * nf;
          for (std::size_t f = 0; f < nf; ++f) {
            u[f] = comm::apply(round.op, u[f], buf[i * nf + f]);
          }
        }
      }
    }
  }

  // Phase 3: local scatter.
  for (std::size_t s = 0; s < slots; ++s) {
    const T* u = round.unique.data() + topo_.unique_of_slot[s] * nf;
    for (std::size_t f = 0; f < nf; ++f) round.values[f * slots + s] = u[f];
  }
}

template <class T>
void GatherScatter::withdraw(Round<T>& round) {
  for (comm::Request& r : round.reqs) comm_->cancel(r);
  round.reqs.clear();
}

// --- crystal router ----------------------------------------------------------

namespace {
// Crystal records carry the id followed by nfields values; the byte-level
// router keeps the record size dynamic per exec and per value type.
template <class T>
void append_record(std::vector<std::byte>* buf, long long id, const T* values,
                   std::size_t nf) {
  std::size_t old = buf->size();
  buf->resize(old + sizeof(long long) + nf * sizeof(T));
  util::copy_bytes(buf->data() + old, &id, sizeof(long long));
  util::copy_bytes(buf->data() + old + sizeof(long long), values,
                   nf * sizeof(T));
}

inline long long record_id(const std::byte* rec) {
  long long id;
  util::copy_bytes(&id, rec, sizeof(long long));
  return id;
}

template <class T>
const T* record_values(const std::byte* rec) {
  return reinterpret_cast<const T*>(rec + sizeof(long long));
}
}  // namespace

template <class T>
void GatherScatter::exec_crystal(std::vector<T>& unique_values, int nfields,
                                 ReduceOp op) {
  comm::SiteScope site("gs_op.crystal");
  const int me = comm_->rank();
  const std::size_t nf = std::size_t(nfields);
  const std::size_t record_bytes = sizeof(long long) + nf * sizeof(T);

  // Pass 1: every sharer ships its gathered values to the id's owner.
  std::vector<std::byte> outbound;
  std::vector<int> outbound_dest;
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    if (owner_[s] == me) continue;
    append_record(&outbound, topo_.shared[s].id,
                  unique_values.data() + topo_.shared[s].unique_index * nf, nf);
    outbound_dest.push_back(owner_[s]);
  }
  std::vector<std::byte> arrived =
      router_.route(outbound, outbound_dest, record_bytes);

  // Owner-side reduction into the owned entries.
  for (std::size_t pos = 0; pos < arrived.size(); pos += record_bytes) {
    const std::byte* rec = arrived.data() + pos;
    auto it = std::lower_bound(owned_ids_.begin(), owned_ids_.end(),
                               record_id(rec));
    int s = owned_shared_entry_[it - owned_ids_.begin()];
    T* u = unique_values.data() + topo_.shared[s].unique_index * nf;
    const T* v = record_values<T>(rec);
    for (std::size_t f = 0; f < nf; ++f) u[f] = comm::apply(op, u[f], v[f]);
  }

  // Pass 2: owners ship the reduced results back to every other sharer.
  std::vector<std::byte> results;
  std::vector<int> results_dest;
  for (std::size_t o = 0; o < owned_ids_.size(); ++o) {
    int s = owned_shared_entry_[o];
    const T* u = unique_values.data() + topo_.shared[s].unique_index * nf;
    for (int r : topo_.shared[s].sharers) {
      append_record(&results, owned_ids_[o], u, nf);
      results_dest.push_back(r);
    }
  }
  std::vector<std::byte> incoming =
      router_.route(results, results_dest, record_bytes);
  for (std::size_t pos = 0; pos < incoming.size(); pos += record_bytes) {
    const std::byte* rec = incoming.data() + pos;
    // Find the shared entry by id (topo_.shared is sorted by id).
    auto it = std::lower_bound(
        topo_.shared.begin(), topo_.shared.end(), record_id(rec),
        [](const SharedId& a, long long id) { return a.id < id; });
    T* u = unique_values.data() + it->unique_index * nf;
    util::copy_bytes(u, record_values<T>(rec), nf * sizeof(T));
  }
}

// --- allreduce on a big vector ------------------------------------------------

template <class T>
void GatherScatter::exec_allreduce(std::vector<T>& unique_values, int nfields,
                                   ReduceOp op) {
  comm::SiteScope site("gs_op.all_reduce");
  const std::size_t nf = std::size_t(nfields);
  // The big vector spans the whole global id space (as in gslib), with the
  // shared entries packed first; private entries ride along as identity and
  // are never read back. This is what makes the method scale so poorly.
  std::vector<T> big(std::size_t(topo_.total_global) * nf, identity<T>(op));
  for (const SharedId& sh : topo_.shared) {
    util::copy_bytes(big.data() + std::size_t(sh.shared_index) * nf,
                     unique_values.data() + sh.unique_index * nf,
                     nf * sizeof(T));
  }
  comm_->allreduce(std::span<T>(big), op);
  for (const SharedId& sh : topo_.shared) {
    util::copy_bytes(unique_values.data() + sh.unique_index * nf,
                     big.data() + std::size_t(sh.shared_index) * nf,
                     nf * sizeof(T));
  }
}

// --- startup tuning (the Fig. 7 measurement) -----------------------------------

Method GatherScatter::tune(int repetitions) {
  // Ordered handles run one fixed exchange; there is nothing to tune.
  if (ordered_) return method_;
  tuning_.clear();
  const Method methods[] = {Method::kPairwise, Method::kCrystalRouter,
                            Method::kAllReduce};
  std::vector<double> dummy(topo_.unique_of_slot.size(), 1.0);

  // The allreduce big vector spans the whole global id space; past this
  // size the method cannot win and timing it would only burn memory and
  // wall clock (the paper's "too expensive"). Record it as infinite.
  constexpr long long kAllreduceTuneLimit = 1LL << 23;  // values (64 MiB)

  double best_avg = std::numeric_limits<double>::infinity();
  Method best = Method::kPairwise;
  for (Method m : methods) {
    if (m == Method::kAllReduce && topo_.total_global > kAllreduceTuneLimit) {
      TuneRow row;
      row.method = m;
      row.avg = row.min = row.max = std::numeric_limits<double>::infinity();
      tuning_.push_back(row);
      continue;
    }
    // Warm-up once (first-touch allocation), then time.
    exec_with(std::span<double>(dummy), ReduceOp::kSum, m);
    comm_->barrier();
    prof::WallTimer t;
    for (int rep = 0; rep < repetitions; ++rep) {
      exec_with(std::span<double>(dummy), ReduceOp::kSum, m);
    }
    double mine = t.seconds() / repetitions;

    TuneRow row;
    row.method = m;
    row.avg = comm_->allreduce_one(mine, ReduceOp::kSum) / comm_->size();
    row.min = comm_->allreduce_one(mine, ReduceOp::kMin);
    row.max = comm_->allreduce_one(mine, ReduceOp::kMax);
    tuning_.push_back(row);
    if (row.avg < best_avg) {
      best_avg = row.avg;
      best = m;
    }
  }
  method_ = best;
  return best;
}

// --- model-driven method selection -------------------------------------------

netmodel::ExchangeShape GatherScatter::exchange_shape() const {
  netmodel::ExchangeShape shape;
  shape.ranks = comm_->size();
  shape.neighbors = int(pairwise_plan_.size());
  shape.pairwise_bytes =
      static_cast<long long>(pairwise_send_values() * sizeof(double));
  // Crystal pass 1 injects one record per shared entry this rank does not
  // own; the return pass is symmetric in aggregate, and predict_crystal
  // already doubles for the two passes.
  long long not_owned = 0;
  for (std::size_t s = 0; s < topo_.shared.size(); ++s) {
    if (owner_[s] != comm_->rank()) ++not_owned;
  }
  shape.crystal_records = not_owned;
  shape.record_bytes = sizeof(long long) + sizeof(double);
  shape.big_vector_bytes =
      topo_.total_global * static_cast<long long>(sizeof(double));
  return shape;
}

Method GatherScatter::select_from_model(const netmodel::LogGPParams& machine) {
  const netmodel::Prediction mine =
      netmodel::predict_all(machine, exchange_shape());
  // Per-rank shapes differ (corner ranks have fewer partners than interior
  // ones); the run is gated by the slowest rank, and everyone must agree on
  // the method or the exchange deadlocks. Reduce each algorithm's cost to
  // its worst rank — a collective, so this is deterministic and identical
  // everywhere.
  const double pairwise = comm_->allreduce_one(mine.pairwise, ReduceOp::kMax);
  const double crystal = comm_->allreduce_one(mine.crystal, ReduceOp::kMax);
  const double allreduce = comm_->allreduce_one(mine.allreduce, ReduceOp::kMax);

  tuning_.clear();
  tuning_.push_back({Method::kPairwise, pairwise, pairwise, pairwise});
  tuning_.push_back({Method::kCrystalRouter, crystal, crystal, crystal});
  tuning_.push_back({Method::kAllReduce, allreduce, allreduce, allreduce});

  // Ties break in enum order (pairwise first), matching tune().
  Method best = Method::kPairwise;
  double best_cost = pairwise;
  if (crystal < best_cost) { best = Method::kCrystalRouter; best_cost = crystal; }
  if (allreduce < best_cost) { best = Method::kAllReduce; }
  return best;
}

// --- structure queries ----------------------------------------------------------

std::vector<int> GatherScatter::pairwise_neighbors() const {
  std::vector<int> out;
  out.reserve(pairwise_plan_.size());
  for (const auto& [rank, entries] : pairwise_plan_) {
    (void)entries;
    out.push_back(rank);
  }
  return out;
}

std::size_t GatherScatter::pairwise_send_values() const {
  std::size_t v = 0;
  for (const auto& [rank, entries] : pairwise_plan_) {
    (void)rank;
    v += entries.size();
  }
  return v;
}

// Instantiate the typed pipeline for gslib's datatype set.
template void GatherScatter::exec_impl<double>(std::span<double>, int,
                                               ReduceOp, Method);
template void GatherScatter::exec_impl<float>(std::span<float>, int, ReduceOp,
                                              Method);
template void GatherScatter::exec_impl<int>(std::span<int>, int, ReduceOp,
                                            Method);
template void GatherScatter::exec_impl<long long>(std::span<long long>, int,
                                                  ReduceOp, Method);

}  // namespace cmtbone::gs
