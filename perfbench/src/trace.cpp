#include "trace.hpp"

#include <cstdlib>

#include "common.hpp"

namespace perfbench {

namespace {
constexpr std::size_t kMaxDepth = 64;
}

Tracer::Tracer(std::uint32_t run_id, std::string run_name,
               std::size_t capacity)
    : run_id_(run_id),
      run_name_(std::move(run_name)),
      capacity_(capacity),
      origin_ns_(now_ns()) {
  records_.reserve(capacity_);
  stack_.reserve(kMaxDepth);
}

Tracer::LayerId Tracer::layer(const std::string& name) {
  for (std::size_t i = 0; i < layers_.size(); ++i)
    if (layers_[i].name == name) return static_cast<LayerId>(i);
  layers_.push_back(Layer{name});
  return static_cast<LayerId>(layers_.size() - 1);
}

const Tracer::Layer* Tracer::find(const std::string& name) const {
  for (const Layer& l : layers_)
    if (l.name == name) return &l;
  return nullptr;
}

void Tracer::begin(LayerId id) {
  std::uint32_t record = kNoParent;
  const std::uint64_t start = now_ns();
  if (records_.size() < capacity_) {
    record = static_cast<std::uint32_t>(records_.size());
    const std::uint32_t parent =
        stack_.empty() ? kNoParent : stack_.back().record;
    records_.push_back(Record{start, start, parent, id});
  }
  if (stack_.size() == kMaxDepth) std::abort();  // decorators nest shallowly
  stack_.push_back(Open{id, record, start, 0});
}

void Tracer::end() {
  const std::uint64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - open.start_ns;
  Layer& l = layers_[open.layer];
  ++l.count;
  l.total_ns += dur;
  l.self_ns += dur - open.child_ns;
  if (open.record != kNoParent) records_[open.record].end_ns = end;
  if (stack_.empty())
    root_ns_ += dur;
  else
    stack_.back().child_ns += dur;
}

std::uint64_t Tracer::count(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr ? 0 : l->count;
}

double Tracer::mean_ns(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr || l->count == 0
             ? 0.0
             : static_cast<double>(l->total_ns) / static_cast<double>(l->count);
}

double Tracer::mean_self_ns(const std::string& name) const {
  const Layer* l = find(name);
  return l == nullptr || l->count == 0
             ? 0.0
             : static_cast<double>(l->self_ns) / static_cast<double>(l->count);
}

std::uint64_t Tracer::self_sum_ns() const {
  std::uint64_t sum = 0;
  for (const Layer& l : layers_) sum += l.self_ns;
  return sum;
}

void Tracer::write_chrome_events(std::FILE* out, bool& first) const {
  std::fprintf(out,
               "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
               "\"args\":{\"name\":\"%s\"}}",
               first ? "" : ",\n", run_id_, run_name_.c_str());
  first = false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double ts_us = static_cast<double>(r.start_ns - origin_ns_) / 1e3;
    const double dur_us = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"run\":%u}}",
                 layers_[r.layer].name.c_str(), run_id_, ts_us, dur_us, i,
                 r.parent == kNoParent ? -1LL
                                       : static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.start_ns - origin_ns_),
                 static_cast<unsigned long long>(r.end_ns - origin_ns_),
                 run_id_);
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Tracer* t : tracers) t->write_chrome_events(out, first);
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
