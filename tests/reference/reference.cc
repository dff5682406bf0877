#include "reference/reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

namespace perfxplain::reference {

namespace {

constexpr double kSimFraction = 0.10;
const char* const kSuffix[] = {"_isSame", "_compare", "_diff", ""};

/// Footnote 1: numbers within 10% of the larger magnitude are similar.
/// The program also counts equal numbers (two zeros) as similar, and NaN as
/// similar to nothing.
bool Similar(double x, double y, double fraction) {
  return x == y ||
         std::abs(x - y) <= fraction * std::max(std::abs(x), std::abs(y));
}

// Table 1. A missing input leaves every feature of its raw feature
// missing; compare exists for numbers only, diff for nominals only.
Value FeatureValue(std::size_t f, const ExecutionRecord& a,
                   const ExecutionRecord& b, double sim_fraction) {
  const std::size_t k = a.values.size();
  const Value& x = a.values[f % k];
  const Value& y = b.values[f % k];
  if (x.is_missing() || y.is_missing()) return Value::Missing();
  const bool numbers = x.is_numeric();
  const bool similar =
      numbers && Similar(x.number(), y.number(), sim_fraction);
  switch (f / k) {
    case 0:  // isSame: measured numbers are rarely bitwise equal
      return Value::Nominal((numbers ? similar : x == y) ? "T" : "F");
    case 1:  // compare; NaN is data, below nothing, so GT
      if (!numbers) return Value::Missing();
      return Value::Nominal(similar                    ? "SIM"
                            : x.number() < y.number() ? "LT"
                                                      : "GT");
    case 2:  // diff
      if (numbers) return Value::Missing();
      return Value::Nominal("(" + x.nominal() + "," + y.nominal() + ")");
    default:  // base: exact agreement (never NaN); a zero keeps a's sign
      return x == y ? x : Value::Missing();
  }
}

/// The index of the pair feature called `name`, if any.
std::optional<std::size_t> IndexOf(const Schema& raw,
                                   const std::string& name) {
  const std::vector<std::string> names = PairFeatureNames(raw);
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return std::nullopt;
  return static_cast<std::size_t>(it - names.begin());
}

/// §3.2: an atom holds for a present value. `!=` needs a constant of the
/// value's kind; ordering needs numbers and compares as IEEE does (NaN
/// fails), as the program does.
bool Satisfies(const Atom& atom, const Value& v) {
  const Value& c = atom.constant();
  const double x = v.is_numeric() ? v.number() : 0.0;
  const double y = c.is_numeric() ? c.number() : 0.0;
  const bool numbers = v.is_numeric() && c.is_numeric();
  switch (atom.op()) {
    case CompareOp::kEq: return !v.is_missing() && v == c;
    case CompareOp::kNe: return !v.is_missing() && v.kind() == c.kind() &&
                                !(v == c);
    case CompareOp::kLt: return numbers && x < y;
    case CompareOp::kLe: return numbers && x <= y;
    case CompareOp::kGt: return numbers && x > y;
    case CompareOp::kGe: return numbers && x >= y;
  }
  return false;
}

double Ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Information gain of a split (§4.2, Figure 2), in the program's order of
/// operations.
double InfoGain(std::size_t in, std::size_t in_positive, std::size_t out,
                std::size_t out_positive) {
  const auto entropy = [](std::size_t positives, std::size_t total) {
    const double p = Ratio(positives, total);
    return p <= 0.0 || p >= 1.0
               ? 0.0
               : -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
  };
  const std::size_t n = in + out;
  if (n == 0) return 0.0;
  return entropy(in_positive + out_positive, n) -
         (Ratio(in, n) * entropy(in_positive, in) +
          Ratio(out, n) * entropy(out_positive, out));
}

bool Contains(const std::vector<std::size_t>& set, std::size_t x) {
  return std::find(set.begin(), set.end(), x) != set.end();
}

}  // namespace

std::vector<std::string> PairFeatureNames(const Schema& raw) {
  std::vector<std::string> names;
  for (const char* suffix : kSuffix) {
    for (std::size_t r = 0; r < raw.size(); ++r) {
      names.push_back(raw.at(r).name + suffix);
    }
  }
  return names;
}

std::vector<Value> PairVector(const Schema& raw, const ExecutionRecord& a,
                              const ExecutionRecord& b, double sim_fraction) {
  std::vector<Value> values;
  for (std::size_t f = 0; f < 4 * raw.size(); ++f) {
    values.push_back(FeatureValue(f, a, b, sim_fraction));
  }
  return values;
}

bool Holds(const Predicate& predicate, const Schema& raw,
           const ExecutionRecord& a, const ExecutionRecord& b) {
  for (const Atom& atom : predicate.atoms()) {
    const std::optional<std::size_t> f = IndexOf(raw, atom.feature());
    if (!f.has_value() ||
        !Satisfies(atom, FeatureValue(*f, a, b, kSimFraction))) {
      return false;
    }
  }
  return true;
}

Label Classify(const Query& query, const Schema& raw, const ExecutionRecord& a,
               const ExecutionRecord& b) {
  // Definition 1 makes obs and exp disjoint; obs is tested first.
  if (!Holds(query.despite, raw, a, b)) return Label::kUnrelated;
  if (Holds(query.observed, raw, a, b)) return Label::kObserved;
  if (Holds(query.expected, raw, a, b)) return Label::kExpected;
  return Label::kUnrelated;
}

std::vector<Example> RelatedPairs(const ExecutionLog& log,
                                  const Query& query) {
  std::vector<Example> related;
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (std::size_t j = 0; j < log.size(); ++j) {
      if (i == j) continue;
      const Label label = Classify(query, log.schema(), log.at(i), log.at(j));
      if (label != Label::kUnrelated) {
        related.push_back({i, j, label == Label::kObserved, {}});
      }
    }
  }
  return related;
}

Result<std::pair<std::size_t, std::size_t>> FindPairOfInterest(
    const ExecutionLog& log, const Query& query, std::size_t skip) {
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (std::size_t j = 0; j < log.size(); ++j) {
      if (i != j &&
          Classify(query, log.schema(), log.at(i), log.at(j)) ==
              Label::kObserved &&
          skip-- == 0) {
        return std::make_pair(i, j);
      }
    }
  }
  return Status::NotFound("no pair satisfies DESPITE and OBSERVED");
}

Result<std::vector<Example>> Sample(const ExecutionLog& log,
                                    const Query& query, std::size_t poi_first,
                                    std::size_t poi_second,
                                    std::size_t sample_size, Rng& rng,
                                    bool balanced) {
  const std::size_t n = log.size();
  if (poi_first >= n || poi_second >= n || poi_first == poi_second) {
    return Status::InvalidArgument("pair of interest out of range");
  }
  std::vector<Example> related = RelatedPairs(log, query);
  if (related.empty()) {
    return Status::FailedPrecondition("no pair is related to the query");
  }
  std::size_t observed = 0;
  for (const Example& pair : related) observed += pair.observed;
  // §4.3: keep a pair with probability m / (2 |its label|), so the sample
  // holds about m/2 pairs of each label; m / |related| when unbalanced.
  const auto keep = [&](std::size_t count, std::size_t of) {
    return count == 0 ? 0.0
                      : std::min(1.0, static_cast<double>(sample_size) /
                                          static_cast<double>(of));
  };
  const std::size_t expected = related.size() - observed;
  const double p_observed =
      balanced ? keep(observed, 2 * observed) : keep(1, related.size());
  const double p_expected =
      balanced ? keep(expected, 2 * expected) : keep(1, related.size());
  std::vector<Example> sample = {{poi_first, poi_second, true, {}}};
  for (Example& pair : related) {
    if (pair.first == poi_first && pair.second == poi_second) continue;
    if (rng.Bernoulli(pair.observed ? p_observed : p_expected)) {
      sample.push_back(std::move(pair));
    }
  }
  for (Example& e : sample) {
    e.features = PairVector(log.schema(), log.at(e.first), log.at(e.second));
  }
  return sample;
}

std::optional<Candidate> BestPredicate(const std::string& name,
                                       const std::vector<Value>& values,
                                       const std::vector<bool>& positive,
                                       const Value& poi,
                                       std::size_t min_support) {
  // Only atoms the pair of interest satisfies, so the explanation applies
  // to it (Definition 3): f = poi, and for numbers f <= c and f >= c at
  // C4.5 thresholds — the extremes, the midpoints of adjacent distinct
  // values and the pair's own value. The program writes a zero threshold
  // as +0.0, whatever the signs of the zeros it came from.
  if (poi.is_missing()) return std::nullopt;
  std::vector<Atom> atoms = {Atom(name, CompareOp::kEq, poi)};
  std::vector<double> present;
  for (const Value& v : values) {
    if (v.is_numeric()) present.push_back(v.number());
  }
  std::sort(present.begin(), present.end());
  if (poi.is_numeric() && !present.empty()) {
    std::vector<double> thresholds = {present.front(), present.back(),
                                      poi.number()};
    for (std::size_t i = 0; i + 1 < present.size(); ++i) {
      if (present[i] != present[i + 1]) {
        thresholds.push_back((present[i] + present[i + 1]) / 2.0);
      }
    }
    for (double& c : thresholds) c = c == 0.0 ? 0.0 : c;
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    for (double c : thresholds) {
      const Value at = Value::Number(c);
      if (poi.number() <= c) atoms.emplace_back(name, CompareOp::kLe, at);
      if (poi.number() >= c) atoms.emplace_back(name, CompareOp::kGe, at);
    }
  }
  // The program's order and tie-break: equality, then thresholds
  // ascending, <= before >=; a later atom wins only on a strictly higher
  // gain. Equality needs the support of at least one example.
  const std::size_t positives = static_cast<std::size_t>(
      std::count(positive.begin(), positive.end(), true));
  std::optional<Candidate> best;
  for (const Atom& atom : atoms) {
    std::size_t in = 0;
    std::size_t in_positive = 0;
    for (std::size_t e = 0; e < values.size(); ++e) {
      if (Satisfies(atom, values[e])) {
        ++in;
        in_positive += positive[e];
      }
    }
    const bool eq = atom.op() == CompareOp::kEq;
    if (in < (eq ? std::max<std::size_t>(1, min_support) : min_support)) {
      continue;
    }
    const double gain = InfoGain(in, in_positive, values.size() - in,
                                 positives - in_positive);
    if (!best.has_value() || gain > best->gain) {
      best = Candidate{atom, gain, in, in_positive};
    }
  }
  return best;
}

Clause GrowClause(const Schema& raw, std::vector<Example> examples,
                  const ClauseOptions& options) {
  const std::vector<std::string> names = PairFeatureNames(raw);
  const std::size_t k = raw.size();
  std::vector<bool> used(names.size(), false);
  Clause clause;
  for (std::size_t step = 0; step < options.width && !examples.empty();
       ++step) {
    // The program's min-support: 3 examples, or 1% of the working set.
    const std::size_t min_support =
        std::max<std::size_t>(3, examples.size() / 100);
    std::vector<bool> positive;
    for (const Example& e : examples) {
      positive.push_back(e.observed != options.target_expected);
    }
    // Line 5: each feature's best atom; lines 6-7: its precision (or
    // relevance) and generality.
    struct Scored {
      Candidate split;
      std::size_t feature;
      double metric;
      double generality;
    };
    std::vector<Scored> scored;
    for (std::size_t f = 0; f < names.size(); ++f) {
      const int level = f < k ? 1 : f < 3 * k ? 2 : 3;
      if (level > options.level || used[f] ||
          Contains(options.excluded_raw, f % k)) {
        continue;
      }
      std::vector<Value> cells;
      for (const Example& e : examples) cells.push_back(e.features[f]);
      const std::optional<Candidate> split = BestPredicate(
          names[f], cells, positive, cells.front(), min_support);
      if (split.has_value() &&
          std::count(options.redundant.begin(), options.redundant.end(),
                     split->atom) == 0) {
        scored.push_back({*split, f,
                          Ratio(split->in_positive, split->in_total),
                          Ratio(split->in_total, examples.size())});
      }
    }
    if (scored.empty()) break;
    // Lines 8-14: blend the percentile-ranked metric and generality. The
    // program breaks a tie by the higher metric, then the higher gain,
    // then the earlier feature.
    const auto rank = [&](double Scored::*field, const Scored& s) {
      if (!options.normalize_scores) return s.*field;
      double below = 0.0;  // ties count half
      for (const Scored& t : scored) {
        below += t.*field < s.*field ? 1.0 : (t.*field == s.*field ? 0.5 : 0);
      }
      return below / static_cast<double>(scored.size());
    };
    const double w = options.precision_weight;
    const auto score = [&](const Scored& s) {
      return w * rank(&Scored::metric, s) +
             (1.0 - w) * rank(&Scored::generality, s);
    };
    const auto key = [&](const Scored& s) {
      return std::make_tuple(score(s), s.metric, s.split.gain);
    };
    const Scored* best = &scored.front();
    for (const Scored& s : scored) {
      if (key(s) > key(*best)) best = &s;
    }
    // Lines 16-17: extend the clause, keep the examples that satisfy it.
    used[best->feature] = true;
    const std::size_t before = examples.size();
    std::vector<Example> kept;
    std::size_t kept_positive = 0;
    for (Example& e : examples) {
      if (Satisfies(best->split.atom, e.features[best->feature])) {
        kept_positive += e.observed != options.target_expected;
        kept.push_back(std::move(e));
      }
    }
    examples = std::move(kept);
    clause.push_back({best->split.atom, best->split.gain,
                      Ratio(kept_positive, examples.size()),
                      Ratio(examples.size(), before), score(*best)});
  }
  return clause;
}

std::vector<std::size_t> OutcomeFeatures(const Schema& raw,
                                         const Query& query) {
  std::vector<std::size_t> mentioned;
  for (const Predicate* clause : {&query.observed, &query.expected}) {
    for (const Atom& atom : clause->atoms()) {
      if (auto f = IndexOf(raw, atom.feature())) {
        mentioned.push_back(*f % raw.size());
      }
    }
  }
  return mentioned;
}

Result<Clause> PerfXplain(const ExecutionLog& log, const Query& query,
                          std::size_t poi_first, std::size_t poi_second,
                          std::size_t width, std::size_t sample_size,
                          std::uint64_t seed) {
  Rng rng(seed);
  auto sample = Sample(log, query, poi_first, poi_second, sample_size, rng);
  if (!sample.ok()) return sample.status();
  ClauseOptions options;
  options.width = width;
  options.excluded_raw = OutcomeFeatures(log.schema(), query);
  options.redundant = query.despite.atoms();
  Clause because = GrowClause(log.schema(), *std::move(sample), options);
  if (because.empty()) return Status::Internal("no because clause");
  return because;
}

Result<Clause> SimButDiff(const ExecutionLog& log, const Query& query,
                          std::size_t poi_first, std::size_t poi_second,
                          std::size_t width, double similarity) {
  const Schema& raw = log.schema();
  const std::size_t k = raw.size();
  const auto is_same = [&](std::size_t i, std::size_t j) {
    std::vector<Value> values = PairVector(raw, log.at(i), log.at(j));
    values.resize(k);
    return values;
  };
  const std::vector<Value> poi = is_same(poi_first, poi_second);
  // Similar pairs agree with the pair of interest on ceil(s * k) isSame
  // features; the program leaves room for one disagreement unless s = 1.
  std::size_t need = static_cast<std::size_t>(
      std::ceil(similarity * static_cast<double>(k)));
  if (similarity < 1.0 && need >= k && k > 0) need = k - 1;
  std::size_t similar = 0;
  std::vector<std::size_t> disagree(k, 0);
  std::vector<std::size_t> disagree_expected(k, 0);
  for (const Example& pair : RelatedPairs(log, query)) {
    if (pair.first == poi_first && pair.second == poi_second) continue;
    const std::vector<Value> values = is_same(pair.first, pair.second);
    std::size_t agree = 0;
    for (std::size_t f = 0; f < k; ++f) agree += values[f] == poi[f];
    if (agree < need) continue;
    ++similar;
    for (std::size_t f = 0; f < k; ++f) {
      disagree[f] += !(values[f] == poi[f]);
      disagree_expected[f] += !(values[f] == poi[f]) && !pair.observed;
    }
  }
  if (similar == 0) return Status::FailedPrecondition("no similar pair");
  // What-if score: of the similar pairs differing on f, the share that
  // performed as expected. Ties go to more support, then feature order.
  const std::vector<std::size_t> outcome = OutcomeFeatures(raw, query);
  std::vector<std::size_t> order;
  for (std::size_t f = 0; f < k; ++f) {
    if (disagree[f] > 0 && !poi[f].is_missing() && !Contains(outcome, f)) {
      order.push_back(f);
    }
  }
  const auto key = [&](std::size_t f) {
    return std::make_pair(Ratio(disagree_expected[f], disagree[f]),
                          disagree[f]);
  };
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return key(a) > key(b); });
  Clause clause;
  const std::vector<std::string> names = PairFeatureNames(raw);
  for (std::size_t i = 0; i < order.size() && i < width; ++i) {
    const std::size_t f = order[i];
    clause.push_back({Atom(names[f], CompareOp::kEq, poi[f])});
    clause.back().score = key(f).first;
  }
  if (clause.empty()) return Status::FailedPrecondition("no scoring feature");
  return clause;
}

std::vector<double> RRelieff(const ExecutionLog& log, std::size_t target,
                             std::size_t iterations, std::size_t neighbors,
                             Rng& rng) {
  const std::size_t k = log.schema().size();
  const std::size_t n = log.size();
  std::vector<double> weights(k, 0.0);
  if (n < 2) return weights;
  // diff(f, i, j): |a - b| / range for numbers, 0/1 for nominals, 0.5 when
  // one side is missing, 0 when both are. As in the program, a NaN never
  // widens a range and differs from everything by 1.
  std::vector<double> lo(k, INFINITY);
  std::vector<double> hi(k, -INFINITY);
  for (const ExecutionRecord& record : log.records()) {
    for (std::size_t f = 0; f < k; ++f) {
      if (!record.values[f].is_numeric()) continue;
      const double v = record.values[f].number();
      if (v < lo[f]) lo[f] = v;
      if (hi[f] < v) hi[f] = v;
    }
  }
  const auto diff = [&](std::size_t f, std::size_t i, std::size_t j) {
    const Value& a = log.at(i).values[f];
    const Value& b = log.at(j).values[f];
    if (a.is_missing() || b.is_missing()) {
      return a.is_missing() && b.is_missing() ? 0.0 : 0.5;
    }
    if (!a.is_numeric()) return a == b ? 0.0 : 1.0;
    const double range = hi[f] - lo[f];
    if (!(range > 0.0) || !std::isfinite(range)) return 0.0;
    const double d = std::abs(a.number() - b.number()) / range;
    return d < 1.0 ? d : 1.0;
  };
  // `iterations` probes, each of the n rows once per pass through one
  // shuffled order, each with its `neighbors` nearest rows (ties to the
  // lower row), weighted uniformly where the original weighs by rank.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  const std::size_t kk = std::min(neighbors, n - 1);
  const double w = 1.0 / static_cast<double>(kk);
  double n_dc = 0.0;
  double m = 0.0;
  std::vector<double> n_da(k, 0.0);
  std::vector<double> n_dcda(k, 0.0);
  for (std::size_t probe = 0; probe < iterations; ++probe) {
    const std::size_t i = order[probe % std::min(iterations, n)];
    std::vector<std::pair<double, std::size_t>> near;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double distance = 0.0;
      for (std::size_t f = 0; f < k; ++f) {
        if (f != target) distance += diff(f, i, j);
      }
      near.emplace_back(distance, j);
    }
    std::sort(near.begin(), near.end());
    for (std::size_t t = 0; t < kk; ++t) {
      const std::size_t j = near[t].second;
      const double d_target = diff(target, i, j);
      n_dc += d_target * w;
      for (std::size_t f = 0; f < k; ++f) {
        if (f == target) continue;
        n_da[f] += diff(f, i, j) * w;
        n_dcda[f] += d_target * diff(f, i, j) * w;
      }
      m += w;
    }
  }
  // W[f] = P(diff f | diff target) - P(diff f | same target), by Bayes;
  // with a degenerate target the program keeps the defined first term.
  for (std::size_t f = 0; f < k; ++f) {
    if (f == target || n_dc <= 0.0) continue;
    weights[f] = n_dcda[f] / n_dc;
    if (m - n_dc > 0.0) weights[f] -= (n_da[f] - n_dcda[f]) / (m - n_dc);
  }
  return weights;
}

std::vector<std::size_t> RankByWeight(const std::vector<double>& weights,
                                      std::size_t target) {
  std::vector<std::size_t> order;
  for (std::size_t f = 0; f < weights.size(); ++f) {
    if (f != target) order.push_back(f);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return weights[a] > weights[b]; });
  return order;
}

Result<Clause> RuleOfThumb(const ExecutionLog& log, const Query& query,
                           std::size_t poi_first, std::size_t poi_second,
                           std::size_t width,
                           const std::vector<std::size_t>& ranking) {
  // The top-w generally important features the two executions disagree
  // on; the query counts only for its outcome features.
  const std::vector<Value> poi =
      PairVector(log.schema(), log.at(poi_first), log.at(poi_second));
  const std::vector<std::string> names = PairFeatureNames(log.schema());
  const std::vector<std::size_t> outcome =
      OutcomeFeatures(log.schema(), query);
  Clause clause;
  for (std::size_t f : ranking) {
    if (clause.size() < width && !Contains(outcome, f) &&
        poi[f] == Value::Nominal("F")) {
      clause.push_back({Atom(names[f], CompareOp::kEq, poi[f])});
    }
  }
  if (clause.empty()) return Status::FailedPrecondition("no disagreement");
  return clause;
}

}  // namespace perfxplain::reference
