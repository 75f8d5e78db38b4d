#include "sim/response.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "sim/faultsim.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace sddict {

const char* observed_status_name(ObservedStatus s) {
  switch (s) {
    case ObservedStatus::kValue: return "value";
    case ObservedStatus::kMissing: return "missing";
    case ObservedStatus::kUnstable: return "unstable";
  }
  return "?";
}

std::vector<Observed> qualify(const std::vector<ResponseId>& observed) {
  std::vector<Observed> out(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t)
    out[t] = Observed::of(observed[t]);
  return out;
}

std::vector<std::uint32_t> ResponseMatrix::response_counts(std::size_t test) const {
  std::vector<std::uint32_t> counts(num_distinct(test), 0);
  for (FaultId f = 0; f < num_faults_; ++f) ++counts[response(f, test)];
  return counts;
}

std::uint32_t ResponseMatrix::detection_count(FaultId fault) const {
  std::uint32_t n = 0;
  for (std::size_t j = 0; j < num_tests_; ++j)
    if (detected(fault, j)) ++n;
  return n;
}

ResponseId ResponseMatrix::find_response(std::size_t test,
                                         const Hash128& sig) const {
  const auto& sigs = signatures_[test];
  for (ResponseId id = 0; id < sigs.size(); ++id)
    if (sigs[id] == sig) return id;
  return static_cast<ResponseId>(-1);
}

const std::vector<std::uint32_t>& ResponseMatrix::diff_outputs(
    std::size_t test, ResponseId id) const {
  if (!has_diffs_)
    throw std::logic_error(
        "ResponseMatrix: built without store_diff_outputs");
  return diffs_[test][id];
}

namespace {

// One contiguous slice of the fault list, simulated with chunk-local
// response ids. Local id 0 is fault-free; local id l >= 1 maps to
// sigs[test][l - 1], listed in first-appearance order — which, because a
// chunk scans its faults in ascending id order for every test, is ascending
// first-detecting-fault order within the chunk.
struct ChunkStage {
  std::size_t fault_begin = 0;
  std::size_t fault_end = 0;
  bool complete = false;  // ran over every pattern batch without expiring
  std::vector<std::vector<Hash128>> sigs;                        // [test][l-1]
  std::vector<std::vector<std::vector<std::uint32_t>>> diffs;    // [test][l-1]
};

// Simulates faults [stage->fault_begin, stage->fault_end) against all tests,
// writing chunk-local ids into the global fault-major resp array (rows are
// disjoint across chunks, so no synchronization is needed). Stops at the
// next pattern-batch boundary once the budget scope expires, leaving the
// remaining entries at id 0.
void simulate_chunk(const Netlist& nl, const FaultList& faults,
                    const TestSet& tests, const ResponseMatrixOptions& options,
                    BudgetScope* scope, std::vector<ResponseId>* resp,
                    ChunkStage* stage) {
  SDDICT_FAILPOINT("simulate_chunk");
  const std::size_t k = tests.size();
  stage->sigs.assign(k, {});
  if (options.store_diff_outputs) stage->diffs.assign(k, {});
  std::vector<std::unordered_map<Hash128, ResponseId, Hash128Hasher>> intern(k);

  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> input_words;

  // Scratch reused across faults: per-pattern signature accumulators and the
  // raw (output, diff word) pairs of the current fault.
  Hash128 sig[64];
  std::vector<std::pair<std::size_t, std::uint64_t>> fault_diffs;

  for (std::size_t first = 0; first < k; first += 64) {
    if (scope->stop()) return;  // stage->complete stays false
    const std::size_t count = std::min<std::size_t>(64, k - first);
    tests.pack_batch(first, count, &input_words);
    fsim.load_batch(input_words, count);

    for (FaultId i = stage->fault_begin; i < stage->fault_end; ++i) {
      fault_diffs.clear();
      const std::uint64_t any =
          fsim.simulate_fault(faults[i], [&](std::size_t o, std::uint64_t w) {
            fault_diffs.push_back({o, w});
          });
      if (any == 0) continue;  // all slots keep response id 0

      for (const auto& [o, w] : fault_diffs) {
        const Hash128 tok = slot_token(o, 1);
        std::uint64_t bits = w;
        while (bits != 0) {
          const int t = std::countr_zero(bits);
          bits &= bits - 1;
          sig[t] ^= tok;
        }
      }

      std::uint64_t dirty = any;
      while (dirty != 0) {
        const int t = std::countr_zero(dirty);
        dirty &= dirty - 1;
        const std::size_t test = first + static_cast<std::size_t>(t);
        auto& table = intern[test];
        auto [it, inserted] = table.try_emplace(
            sig[t], static_cast<ResponseId>(stage->sigs[test].size() + 1));
        if (inserted) {
          stage->sigs[test].push_back(sig[t]);
          if (options.store_diff_outputs) {
            std::vector<std::uint32_t> outs;
            for (const auto& [o, w] : fault_diffs)
              if ((w >> t) & 1) outs.push_back(static_cast<std::uint32_t>(o));
            std::sort(outs.begin(), outs.end());
            stage->diffs[test].push_back(std::move(outs));
          }
        }
        (*resp)[static_cast<std::size_t>(i) * k + test] = it->second;
        sig[t] = Hash128{};  // reset for the next fault
      }
    }
  }
  stage->complete = true;
}

}  // namespace

ResponseMatrix build_response_matrix(const Netlist& nl, const FaultList& faults,
                                     const TestSet& tests,
                                     const ResponseMatrixOptions& options,
                                     ResponseMatrixStatus* status) {
  BudgetScope scope(options.budget);
  ResponseMatrix rm;
  rm.num_faults_ = faults.size();
  rm.num_tests_ = tests.size();
  rm.num_outputs_ = nl.num_outputs();
  rm.has_diffs_ = options.store_diff_outputs;
  rm.resp_.assign(faults.size() * tests.size(), 0);
  rm.signatures_.assign(tests.size(), {Hash128{}});  // id 0 = fault-free
  if (options.store_diff_outputs)
    rm.diffs_.assign(tests.size(), {{}});

  const std::size_t n = faults.size();
  const std::size_t k = tests.size();
  const std::size_t threads = ThreadPool::resolve(options.num_threads);
  // Oversplit relative to the thread count so uneven fault cones balance via
  // stealing. Any contiguous ascending chunking yields the same matrix: the
  // merge below re-interns in ascending first-detecting-fault order, which
  // is independent of where the chunk boundaries fall.
  const std::size_t num_chunks =
      (threads <= 1 || n < 2) ? (n > 0 ? 1 : 0)
                              : std::min(n, threads * 4);

  std::vector<ChunkStage> stages(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    stages[c].fault_begin = n * c / num_chunks;
    stages[c].fault_end = n * (c + 1) / num_chunks;
  }

  auto run_chunk = [&](std::size_t c) {
    simulate_chunk(nl, faults, tests, options, &scope, &rm.resp_, &stages[c]);
  };

  std::unique_ptr<ThreadPool> pool;
  if (num_chunks > 1) {
    nl.topo_order();  // every chunk's simulator reads the lazy topo cache
    pool = std::make_unique<ThreadPool>(threads);
    pool->parallel_for(0, num_chunks, run_chunk);
  } else if (num_chunks == 1) {
    run_chunk(0);
  }

  // Deterministic merge: per test, intern each chunk's local signatures in
  // (chunk, local id) order. Chunks cover ascending fault ranges and local
  // ids appear in ascending first-fault order inside a chunk, so the global
  // enumeration is exactly the ascending first-detecting-fault order a
  // single-threaded pass produces.
  std::vector<std::vector<std::vector<ResponseId>>> remap(num_chunks);
  std::vector<bool> identity(num_chunks, true);
  {
    std::vector<std::unordered_map<Hash128, ResponseId, Hash128Hasher>> intern(
        k);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      SDDICT_FAILPOINT("response_merge");
      remap[c].assign(k, {});
      for (std::size_t j = 0; j < k; ++j) {
        const auto& local_sigs = stages[c].sigs[j];
        auto& map = remap[c][j];
        map.resize(local_sigs.size() + 1);
        map[0] = 0;
        for (std::size_t l = 0; l < local_sigs.size(); ++l) {
          auto [it, inserted] = intern[j].try_emplace(
              local_sigs[l], static_cast<ResponseId>(rm.signatures_[j].size()));
          if (inserted) {
            rm.signatures_[j].push_back(local_sigs[l]);
            if (options.store_diff_outputs)
              rm.diffs_[j].push_back(std::move(stages[c].diffs[j][l]));
          }
          map[l + 1] = it->second;
          if (it->second != static_cast<ResponseId>(l + 1))
            identity[c] = false;
        }
      }
    }
  }

  // Rewrite chunk-local ids as global ids. Chunks with an identity map (in
  // particular the single-chunk case) skip the pass.
  auto remap_chunk = [&](std::size_t c) {
    if (identity[c]) return;
    for (std::size_t f = stages[c].fault_begin; f < stages[c].fault_end; ++f)
      for (std::size_t j = 0; j < k; ++j) {
        ResponseId& r = rm.resp_[f * k + j];
        if (r != 0) r = remap[c][j][r];
      }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, num_chunks, remap_chunk);
  } else {
    for (std::size_t c = 0; c < num_chunks; ++c) remap_chunk(c);
  }

#ifndef NDEBUG
  // Invariant relied on throughout the dictionary layer: id 0 — and only
  // id 0 — carries the empty (fault-free) difference signature. It holds
  // for budget-truncated matrices too: unsimulated entries keep id 0.
  for (std::size_t j = 0; j < k; ++j)
    assert(rm.fault_free_id(j) == 0);
#endif
  if (status != nullptr) {
    status->completed = !scope.stopped();
    status->stop_reason = scope.reason();
    status->faults_simulated = 0;
    for (const ChunkStage& s : stages)
      if (s.complete) status->faults_simulated += s.fault_end - s.fault_begin;
  }
  return rm;
}

ResponseMatrix response_matrix_from_table(
    const std::vector<BitVec>& fault_free,
    const std::vector<std::vector<BitVec>>& faulty) {
  const std::size_t k = fault_free.size();
  const std::size_t n = faulty.size();
  const std::size_t m = k > 0 ? fault_free[0].size() : 0;
  for (const auto& v : fault_free)
    if (v.size() != m)
      throw std::invalid_argument("response_matrix_from_table: ragged fault-free");
  for (const auto& row : faulty) {
    if (row.size() != k)
      throw std::invalid_argument("response_matrix_from_table: ragged fault row");
    for (const auto& v : row)
      if (v.size() != m)
        throw std::invalid_argument("response_matrix_from_table: vector width");
  }

  ResponseMatrix rm;
  rm.num_faults_ = n;
  rm.num_tests_ = k;
  rm.num_outputs_ = m;
  rm.has_diffs_ = true;
  rm.resp_.assign(n * k, 0);
  rm.signatures_.assign(k, {Hash128{}});
  rm.diffs_.assign(k, {{}});

  std::vector<std::unordered_map<Hash128, ResponseId, Hash128Hasher>> intern(k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      Hash128 sig;
      std::vector<std::uint32_t> outs;
      for (std::size_t o = 0; o < m; ++o) {
        if (faulty[i][j].get(o) != fault_free[j].get(o)) {
          sig ^= slot_token(o, 1);
          outs.push_back(static_cast<std::uint32_t>(o));
        }
      }
      if (outs.empty()) continue;  // fault-free response, id 0
      auto [it, inserted] = intern[j].try_emplace(
          sig, static_cast<ResponseId>(rm.signatures_[j].size()));
      if (inserted) {
        rm.signatures_[j].push_back(sig);
        rm.diffs_[j].push_back(std::move(outs));
      }
      rm.resp_[i * k + j] = it->second;
    }
  }
#ifndef NDEBUG
  for (std::size_t j = 0; j < k; ++j) assert(rm.fault_free_id(j) == 0);
#endif
  return rm;
}

ResponseMatrix response_matrix_from_ids(
    std::vector<ResponseId> resp, std::vector<std::vector<Hash128>> signatures,
    std::size_t num_faults, std::size_t num_tests, std::size_t num_outputs) {
  if (resp.size() != num_faults * num_tests)
    throw std::invalid_argument("response_matrix_from_ids: resp size");
  if (signatures.size() != num_tests)
    throw std::invalid_argument("response_matrix_from_ids: signature tests");
  for (std::size_t j = 0; j < num_tests; ++j) {
    std::size_t empty = 0;
    for (const Hash128& s : signatures[j])
      if (s == Hash128{}) ++empty;
    if (empty != 1)
      throw std::invalid_argument(
          "response_matrix_from_ids: each test needs exactly one fault-free "
          "(empty) signature");
  }
  for (std::size_t i = 0; i < num_faults; ++i)
    for (std::size_t j = 0; j < num_tests; ++j)
      if (resp[i * num_tests + j] >= signatures[j].size())
        throw std::invalid_argument(
            "response_matrix_from_ids: response id out of range");

  ResponseMatrix rm;
  rm.num_faults_ = num_faults;
  rm.num_tests_ = num_tests;
  rm.num_outputs_ = num_outputs;
  rm.has_diffs_ = false;
  rm.resp_ = std::move(resp);
  rm.signatures_ = std::move(signatures);
  return rm;
}

}  // namespace sddict
