#include "core/pair_enumeration.h"

#include <algorithm>
#include <atomic>
#include <optional>

namespace perfxplain {

PairLabel ClassifyPairCompiled(const CompiledQuery& query, std::size_t i,
                               std::size_t j, double sim_fraction) {
  if (!query.despite.Eval(i, j, sim_fraction)) {
    return PairLabel::kUnrelated;
  }
  if (query.observed.Eval(i, j, sim_fraction)) {
    return PairLabel::kObserved;
  }
  if (query.expected.Eval(i, j, sim_fraction)) {
    return PairLabel::kExpected;
  }
  return PairLabel::kUnrelated;
}

CandidatePairs SelectCandidatePairs(const CompiledQuery& query,
                                    std::size_t rows, double sim_fraction,
                                    const EnumerationOptions& enumeration) {
  CandidatePairs candidates{PairSelection::AllPairs(rows), query};
  if (enumeration.prune) {
    candidates.selection = query.despite.DeriveSelection(
        rows, sim_fraction, &candidates.query.despite);
  }
  return candidates;
}

const PairRef& RelatedPairs::operator[](std::size_t k) const {
  PX_CHECK_LT(k, size_);
  std::size_t s = 0;
  while (k >= segments_[s].size()) k -= segments_[s++].size();
  return segments_[s][k];
}

void RelatedPairs::push_back(const PairRef& pair) {
  if (segments_.empty()) segments_.emplace_back();
  segments_.back().push_back(pair);
  ++size_;
}

void RelatedPairs::Append(std::vector<PairRef> segment) {
  if (segment.empty()) return;
  size_ += segment.size();
  segments_.push_back(std::move(segment));
}

RelatedPairScan ScanRelatedPairs(const ColumnarLog& columns,
                                 const CompiledQuery& query,
                                 double sim_fraction,
                                 const EnumerationOptions& enumeration) {
  // One parallel pass produces the §4.3 label counts and, while the total
  // stays under the buffer cap, the related pairs themselves. A broad
  // despite clause that relates almost every ordered pair overflows the
  // cap; the buffers are then discarded and SampleFromScan streams the
  // draws in a second scan, keeping memory O(accepted).
  const std::size_t n = columns.rows();
  const std::size_t cap = enumeration.sample_buffer_cap;
  struct StripeState {
    RelatedCounts counts;
    std::vector<PairRef> pairs;
  };
  std::vector<StripeState> partial;
  // Pairs buffered by all stripes, added once per first row; past the cap
  // every stripe stops buffering and frees what it holds.
  std::atomic<std::size_t> buffered{0};
  std::atomic<bool> overflow{cap == 0};
  if (!query.despite.always_false()) {
    const CandidatePairs candidates =
        SelectCandidatePairs(query, n, sim_fraction, enumeration);
    ScanCandidateRows(
        candidates.selection, enumeration, partial,
        [&](StripeState& local, std::size_t i,
            const CandidateRows& partners) {
          const bool buffering = !overflow.load(std::memory_order_relaxed);
          if (!buffering && local.pairs.capacity() != 0) {
            std::vector<PairRef>().swap(local.pairs);
          }
          const std::size_t before = local.pairs.size();
          ForEachPartner(i, partners, [&](std::size_t, std::size_t j) {
            const PairLabel label =
                ClassifyPairCompiled(candidates.query, i, j, sim_fraction);
            if (label == PairLabel::kUnrelated) return true;
            const bool observed = label == PairLabel::kObserved;
            if (observed) {
              ++local.counts.observed;
            } else {
              ++local.counts.expected;
            }
            if (buffering) local.pairs.emplace_back(i, j, observed);
            return true;
          });
          const std::size_t added = local.pairs.size() - before;
          if (added != 0 &&
              buffered.fetch_add(added, std::memory_order_relaxed) + added >
                  cap) {
            overflow.store(true, std::memory_order_relaxed);
          }
        });
  }
  RelatedPairScan scan;
  for (const StripeState& local : partial) {
    scan.counts.observed += local.counts.observed;
    scan.counts.expected += local.counts.expected;
  }
  scan.overflowed = cap == 0 || scan.counts.total() > cap;
  if (!scan.overflowed) {
    // Stripes ascend, so their buffers in stripe order are the row-major
    // order the draw replay needs.
    for (StripeState& local : partial) {
      scan.related.Append(std::move(local.pairs));
    }
  }
  return scan;
}

namespace {

/// The §4.3 per-label acceptance probabilities: balanced sampling aims
/// m/2 examples per label (clamped to 1), uniform sampling m overall.
/// One definition shared by the buffered replay and the streaming
/// fallback, so the two memory strategies can never drift apart.
struct AcceptanceProbabilities {
  double observed = 0.0;
  double expected = 0.0;
};

AcceptanceProbabilities ComputeAcceptance(
    const RelatedCounts& counts, const SamplerOptions& sampler_options,
    bool balanced) {
  const double m = static_cast<double>(sampler_options.sample_size);
  AcceptanceProbabilities p;
  if (balanced) {
    p.observed =
        counts.observed == 0
            ? 0.0
            : std::min(1.0, m / (2.0 * static_cast<double>(counts.observed)));
    p.expected =
        counts.expected == 0
            ? 0.0
            : std::min(1.0,
                       m / (2.0 * static_cast<double>(counts.expected)));
  } else {
    const double uniform =
        std::min(1.0, m / static_cast<double>(counts.total()));
    p.observed = uniform;
    p.expected = uniform;
  }
  return p;
}

}  // namespace

Result<std::vector<PairRef>> ReplaySampleDraws(
    const RelatedPairScan& scan, std::size_t rows, std::size_t poi_first,
    std::size_t poi_second, const SamplerOptions& sampler_options, Rng& rng,
    bool balanced) {
  PX_CHECK(!scan.overflowed);
  if (poi_first >= rows || poi_second >= rows || poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest indexes out of range");
  }
  const RelatedCounts& counts = scan.counts;
  if (counts.total() == 0) {
    return Status::FailedPrecondition(
        "no pairs in the log are related to the query");
  }
  const AcceptanceProbabilities p =
      ComputeAcceptance(counts, sampler_options, balanced);

  // The acceptance draws happen serially in row-major related-pair order
  // (one Bernoulli per related pair except the pair of interest) — one
  // draw sequence for any thread count, any pruning decision, and either
  // memory strategy.
  std::vector<PairRef> sampled;
  sampled.reserve(std::min<std::size_t>(
      sampler_options.sample_size + 1, counts.total() + 1));
  sampled.push_back({poi_first, poi_second, true});
  scan.related.ForEach([&](const PairRef& pair) {
    if (pair.first == poi_first && pair.second == poi_second) return;
    if (rng.Bernoulli(pair.observed ? p.observed : p.expected)) {
      sampled.push_back(pair);
    }
  });
  return sampled;
}

Result<std::vector<PairRef>> SampleFromScan(
    const RelatedPairScan& scan, const ColumnarLog& columns,
    const CompiledQuery& query, std::size_t poi_first,
    std::size_t poi_second, double sim_fraction,
    const SamplerOptions& sampler_options, Rng& rng, bool balanced,
    const EnumerationOptions& enumeration) {
  const std::size_t n = columns.rows();
  if (!scan.overflowed) {
    return ReplaySampleDraws(scan, n, poi_first, poi_second, sampler_options,
                             rng, balanced);
  }
  if (poi_first >= n || poi_second >= n || poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest indexes out of range");
  }
  if (scan.counts.total() == 0) {
    return Status::FailedPrecondition(
        "no pairs in the log are related to the query");
  }
  const AcceptanceProbabilities p =
      ComputeAcceptance(scan.counts, sampler_options, balanced);
  // Streaming second pass: the related pairs did not fit the buffer, so
  // the draws run against a fresh serial enumeration. Selection pruning
  // keeps the surviving pairs and their order unchanged (pruned pairs are
  // unrelated and consume no draw), so the sampled set matches the
  // unpruned scan bit for bit.
  std::vector<PairRef> sampled;
  sampled.reserve(sampler_options.sample_size + 1);
  sampled.push_back({poi_first, poi_second, true});
  const CandidatePairs candidates =
      SelectCandidatePairs(query, n, sim_fraction, enumeration);
  ForEachCandidatePair(
      candidates.selection, [&](std::size_t i, std::size_t j) {
        if (i == poi_first && j == poi_second) return true;
        const PairLabel label =
            ClassifyPairCompiled(candidates.query, i, j, sim_fraction);
        if (label == PairLabel::kUnrelated) return true;
        const bool observed = label == PairLabel::kObserved;
        if (rng.Bernoulli(observed ? p.observed : p.expected)) {
          sampled.emplace_back(i, j, observed);
        }
        return true;
      });
  return sampled;
}

Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ColumnarLog& columns, const CompiledQuery& query,
    double sim_fraction, std::size_t skip,
    const EnumerationOptions& enumeration) {
  std::size_t remaining = skip;
  std::optional<std::pair<std::size_t, std::size_t>> found;
  if (!query.despite.always_false()) {
    // Pruning preserves the row-major order of matching pairs (pruned
    // pairs fail des), so `skip` counts the same sequence.
    const CandidatePairs candidates = SelectCandidatePairs(
        query, columns.rows(), sim_fraction, enumeration);
    ForEachCandidatePair(
        candidates.selection, [&](std::size_t i, std::size_t j) {
          if (ClassifyPairCompiled(candidates.query, i, j, sim_fraction) !=
              PairLabel::kObserved) {
            return true;
          }
          if (remaining > 0) {
            --remaining;
            return true;
          }
          found = std::make_pair(i, j);
          return false;
        });
  }
  if (found.has_value()) return *found;
  return Status::NotFound(
      "no pair in the log satisfies DESPITE and OBSERVED");
}

}  // namespace perfxplain
