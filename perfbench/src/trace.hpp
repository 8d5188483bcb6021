// Span tracer of the traced runs.
//
// A span is one call across a layer boundary, timed from the benchmark's own
// decorators (instruments.hpp) with std::chrono::steady_clock.  Spans nest:
// a span opened while another is open is its child.  Every span feeds the
// per-layer aggregates (count, total time, self time = total minus the time
// its children cover), so the per-layer table covers the whole run exactly.
// The first `capacity` spans are also kept verbatim in a buffer allocated
// up front (no allocation while tracing) and written at exit as Chrome
// trace-event JSON with name, start, end, parent and run id.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using LayerId = std::uint16_t;

  struct Layer {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// `run_id` tags every span of this tracer (one traced workload episode).
  Tracer(std::uint32_t run_id, std::string run_name, std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Register (or look up) the layer named `name`.  Call before tracing.
  LayerId layer(const std::string& name);

  void begin(LayerId id);
  void end();

  /// Calls, and mean total / self time per call, of the layer named `name`
  /// (0 when it never ran).
  std::uint64_t count(const std::string& name) const;
  double mean_ns(const std::string& name) const;
  double mean_self_ns(const std::string& name) const;

  /// Summed duration of the outermost spans; by construction the layers'
  /// self times add up to exactly this.
  std::uint64_t root_ns() const { return root_ns_; }
  std::uint64_t self_sum_ns() const;

  /// Append this tracer's kept spans as Chrome "X" events (comma-separated,
  /// `first` tracks whether a separator is needed).
  void write_chrome_events(std::FILE* out, bool& first) const;

 private:
  struct Record {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;  // record index, kNoParent at the root
    LayerId layer;
  };
  struct Open {
    LayerId layer;
    std::uint32_t record;  // kNoRecord once the buffer is full
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  const Layer* find(const std::string& name) const;

  std::uint32_t run_id_;
  std::string run_name_;
  std::size_t capacity_;
  std::vector<Layer> layers_;
  std::vector<Record> records_;  // reserved to capacity_ up front
  std::vector<Open> stack_;      // reserved up front
  std::uint64_t root_ns_ = 0;
  std::uint64_t origin_ns_;
};

/// Scoped span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, Tracer::LayerId id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(id);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Write every tracer's kept spans to `path` as one Chrome trace JSON file.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
