#include "trace.h"

#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

struct OpenSpan {
  std::uint32_t id;
  std::uint64_t request;
};

thread_local std::vector<OpenSpan> open_spans;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::NewRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_request_++;
}

std::int64_t Tracer::NowNs(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer),
      start_(std::chrono::steady_clock::now()),
      name_(name),
      recording_(tracer.enabled()) {
  if (!recording_) return;
  {
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    id_ = tracer_.next_span_++;
  }
  if (!open_spans.empty()) {
    parent_ = open_spans.back().id;
    if (request == 0) request = open_spans.back().request;
  }
  request_ = request;
  open_spans.push_back(OpenSpan{id_, request_});
}

Tracer::Scope::~Scope() {
  if (!recording_) return;
  const auto end = std::chrono::steady_clock::now();
  open_spans.pop_back();
  Span span{name_, tracer_.NowNs(start_), tracer_.NowNs(end), id_, parent_,
            request_};
  std::lock_guard<std::mutex> lock(tracer_.mutex_);
  tracer_.spans_.push_back(std::move(span));
}

double Tracer::Scope::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%u,\"parent\":%u,\"request\":%llu}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

void Samples::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_[name].push_back(value);
}

std::vector<double> Samples::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

double Samples::Sum(const std::string& name) const {
  const std::vector<double> values = Get(name);
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace perfbench
