#include "ml/sampler.h"

#include <unordered_map>

namespace perfxplain {

std::vector<PairRef> EnforceRecordDiversity(std::vector<PairRef> pairs,
                                            std::size_t max_pairs_per_record,
                                            bool keep_first) {
  if (max_pairs_per_record == 0) return pairs;
  std::unordered_map<std::size_t, std::size_t> usage;
  std::vector<PairRef> kept;
  kept.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const PairRef& pair = pairs[i];
    if (i == 0 && keep_first) {
      kept.push_back(pair);
      continue;
    }
    std::size_t& first_uses = usage[pair.first];
    std::size_t& second_uses = usage[pair.second];
    if (first_uses >= max_pairs_per_record ||
        second_uses >= max_pairs_per_record) {
      continue;
    }
    ++first_uses;
    ++second_uses;
    kept.push_back(pair);
  }
  return kept;
}

}  // namespace perfxplain
