#include "instruments.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <utility>

#include "util/mapped_file.hpp"

namespace perfbench {

using namespace rdtgc;

// ---- TracingTransport -----------------------------------------------------

TracingTransport::TracingTransport(transport::Transport& inner, Tracer& tracer)
    : inner_(inner),
      tracer_(tracer),
      send_id_(tracer.layer("sim.network_send")),
      deliver_id_(tracer.layer("ckpt.deliver")) {}

void TracingTransport::connect(ProcessId p, transport::DeliveryFn sink) {
  inner_.connect(p, [this, sink = std::move(sink)](const sim::Message& m) {
    Span span(&tracer_, deliver_id_);
    sink(m);
  });
}

void TracingTransport::disconnect(ProcessId p) { inner_.disconnect(p); }

sim::MessageId TracingTransport::send(sim::Message m) {
  Span span(&tracer_, send_id_);
  return inner_.send(std::move(m));
}

sim::Message TracingTransport::make_message() { return inner_.make_message(); }

// ---- TracingProtocol ------------------------------------------------------

TracingProtocol::TracingProtocol(
    std::unique_ptr<ckpt::CheckpointingProtocol> inner, Tracer& tracer)
    : inner_(std::move(inner)),
      tracer_(&tracer),
      must_force_id_(tracer.layer("ckpt.protocol.must_force")),
      on_send_id_(tracer.layer("ckpt.protocol.on_send")),
      on_deliver_id_(tracer.layer("ckpt.protocol.on_deliver")),
      on_checkpoint_id_(tracer.layer("ckpt.protocol.on_checkpoint")) {}

void TracingProtocol::initialize(ProcessId self, std::size_t process_count) {
  inner_->initialize(self, process_count);
}

std::size_t TracingProtocol::control_words() const {
  return inner_->control_words();
}

void TracingProtocol::on_send(ProcessId dst,
                              std::vector<sim::ControlWord>& out) {
  Span span(tracer_, on_send_id_);
  inner_->on_send(dst, out);
}

bool TracingProtocol::must_force(const causality::DependencyVector& dv,
                                 const sim::Message& m,
                                 bool sent_since_checkpoint) const {
  Span span(tracer_, must_force_id_);
  return inner_->must_force(dv, m, sent_since_checkpoint);
}

void TracingProtocol::on_deliver(const sim::Message& m) {
  Span span(tracer_, on_deliver_id_);
  inner_->on_deliver(m);
}

void TracingProtocol::on_checkpoint(ccp::CheckpointKind kind) {
  Span span(tracer_, on_checkpoint_id_);
  inner_->on_checkpoint(kind);
}

void TracingProtocol::on_rollback() { inner_->on_rollback(); }

bool TracingProtocol::ensures_rdt() const { return inner_->ensures_rdt(); }

bool TracingProtocol::ensures_no_useless() const {
  return inner_->ensures_no_useless();
}

std::string TracingProtocol::name() const { return inner_->name(); }

// ---- TracingGc ------------------------------------------------------------

TracingGc::TracingGc(std::unique_ptr<core::RdtLgc> inner, Tracer& tracer,
                     std::uint64_t& lag_peak)
    : inner_(std::move(inner)),
      tracer_(tracer),
      lag_peak_(lag_peak),
      deps_id_(tracer.layer("core.gc_deps")),
      ckpt_id_(tracer.layer("core.gc_ckpt")) {}

void TracingGc::initialize(ProcessId self, std::size_t process_count,
                           ckpt::ShardedCheckpointStore& store) {
  store_ = &store;
  inner_->initialize(self, process_count, store);
}

void TracingGc::on_new_dependency(ProcessId j) {
  inner_->on_new_dependency(j);
  sample_lag();
}

void TracingGc::on_new_dependencies(std::span<const ProcessId> changed) {
  {
    Span span(&tracer_, deps_id_);
    inner_->on_new_dependencies(changed);
  }
  sample_lag();
}

void TracingGc::on_checkpoint_stored(CheckpointIndex index) {
  {
    Span span(&tracer_, ckpt_id_);
    inner_->on_checkpoint_stored(index);
  }
  sample_lag();
}

void TracingGc::on_rollback(const ckpt::RollbackInfo& info,
                            const causality::DependencyVector& dv) {
  inner_->on_rollback(info, dv);
}

void TracingGc::on_peer_recovery(const std::vector<IntervalIndex>& li,
                                 const causality::DependencyVector& dv) {
  inner_->on_peer_recovery(li, dv);
}

void TracingGc::on_attach(const causality::DependencyVector& dv) {
  inner_->on_attach(dv);
}

std::string TracingGc::name() const { return inner_->name(); }

void TracingGc::sample_lag() {
  if (store_ == nullptr || !store_->pipelined()) return;
  const std::uint64_t lag = store_->durability().lag_ops();
  if (lag > lag_peak_) lag_peak_ = lag;
}

// ---- IoHooks --------------------------------------------------------------

namespace {

Tracer* g_tracer = nullptr;
Tracer::LayerId g_fsync_id = 0;
Tracer::LayerId g_msync_id = 0;
std::uint64_t g_fsyncs = 0;
std::uint64_t g_msyncs = 0;

// The stores under test drain inline (group commit) on the driver thread,
// the only thread that calls these.
int hooked_fsync(int fd) {
  ++g_fsyncs;
  Span span(g_tracer, g_fsync_id);
  return ::fsync(fd);
}

int hooked_msync(void* addr, std::size_t length, int flags) {
  ++g_msyncs;
  Span span(g_tracer, g_msync_id);
  return ::msync(addr, length, flags);
}

}  // namespace

IoHooks::IoHooks(Tracer* tracer) {
  g_tracer = tracer;
  if (tracer != nullptr) {
    g_fsync_id = tracer->layer("ckpt.store.fsync");
    g_msync_id = tracer->layer("ckpt.store.msync");
  }
  g_fsyncs = 0;
  g_msyncs = 0;
  util::set_io_fsync_for_test(&hooked_fsync);
  util::set_io_msync_for_test(&hooked_msync);
}

IoHooks::~IoHooks() {
  util::set_io_fsync_for_test(nullptr);
  util::set_io_msync_for_test(nullptr);
  g_tracer = nullptr;
}

std::uint64_t IoHooks::fsyncs() const { return g_fsyncs; }
std::uint64_t IoHooks::msyncs() const { return g_msyncs; }

}  // namespace perfbench
