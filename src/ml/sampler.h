#ifndef PERFXPLAIN_ML_SAMPLER_H_
#define PERFXPLAIN_ML_SAMPLER_H_

#include <vector>

#include "log/columnar.h"

namespace perfxplain {

/// Balanced-sampling parameters (§4.3). The default sample size matches the
/// paper's implementation. The acceptance draws themselves run over the
/// related-pair scan (ReplaySampleDraws / SampleFromScan in
/// core/pair_enumeration.h).
struct SamplerOptions {
  std::size_t sample_size = 2000;
};

/// Diversity post-filter — the sampling bias the paper leaves as future
/// work (§4.3: "ensuring that priority is given to executions that
/// correspond to a varied set of jobs"). Limits how many training pairs
/// any single execution may participate in, so a handful of extreme
/// executions cannot dominate the sample. Pairs are considered in order; a
/// pair is dropped once either of its records has already been used
/// `max_pairs_per_record` times. When `keep_first` is set, the first pair
/// (the pair of interest) is always retained and does not count against
/// the caps. 0 disables the filter.
std::vector<PairRef> EnforceRecordDiversity(std::vector<PairRef> pairs,
                                            std::size_t max_pairs_per_record,
                                            bool keep_first);

}  // namespace perfxplain

#endif  // PERFXPLAIN_ML_SAMPLER_H_
