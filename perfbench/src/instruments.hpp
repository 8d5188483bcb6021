// Decorators of the traced runs.  Each forwards every call unchanged to the
// real object behind it and wraps the call in a span, so a traced run makes
// exactly the calls an untraced one makes (the equivalence gate in
// sim_workloads.cpp checks the counts match).
//
//  * TracingTransport — around sim::Network; also wraps each node's
//    delivery sink when the node registers it;
//  * TracingProtocol — around the protocol make_protocol() returns;
//  * TracingGc       — around core::RdtLgc (by composition: RdtLgc is
//    final); it also samples the store's durability lag after every hook;
//  * IoHooks         — pass-through fsync/msync overrides that count (and,
//    with a tracer, time) every durability syscall, then make the real call.
#pragma once

#include <cstdint>
#include <memory>

#include "ckpt/garbage_collector.hpp"
#include "ckpt/protocol.hpp"
#include "core/rdt_lgc.hpp"
#include "trace.hpp"
#include "transport/transport.hpp"

namespace perfbench {

class TracingTransport final : public rdtgc::transport::Transport {
 public:
  TracingTransport(rdtgc::transport::Transport& inner, Tracer& tracer);

  void connect(rdtgc::ProcessId p, rdtgc::transport::DeliveryFn sink) override;
  void disconnect(rdtgc::ProcessId p) override;
  rdtgc::sim::MessageId send(rdtgc::sim::Message m) override;
  rdtgc::sim::Message make_message() override;

 private:
  rdtgc::transport::Transport& inner_;
  Tracer& tracer_;
  Tracer::LayerId send_id_;
  Tracer::LayerId deliver_id_;
};

class TracingProtocol final : public rdtgc::ckpt::CheckpointingProtocol {
 public:
  TracingProtocol(std::unique_ptr<rdtgc::ckpt::CheckpointingProtocol> inner,
                  Tracer& tracer);

  void initialize(rdtgc::ProcessId self, std::size_t process_count) override;
  std::size_t control_words() const override;
  void on_send(rdtgc::ProcessId dst,
               std::vector<rdtgc::sim::ControlWord>& out) override;
  bool must_force(const rdtgc::causality::DependencyVector& dv,
                  const rdtgc::sim::Message& m,
                  bool sent_since_checkpoint) const override;
  void on_deliver(const rdtgc::sim::Message& m) override;
  void on_checkpoint(rdtgc::ccp::CheckpointKind kind) override;
  void on_rollback() override;
  bool ensures_rdt() const override;
  bool ensures_no_useless() const override;
  std::string name() const override;

 private:
  std::unique_ptr<rdtgc::ckpt::CheckpointingProtocol> inner_;
  Tracer* tracer_;  // pointer: must_force is const
  Tracer::LayerId must_force_id_;
  Tracer::LayerId on_send_id_;
  Tracer::LayerId on_deliver_id_;
  Tracer::LayerId on_checkpoint_id_;
};

class TracingGc final : public rdtgc::ckpt::GarbageCollector {
 public:
  /// `lag_peak` is raised to the store's acknowledged-minus-durable
  /// operation count after every hook.
  TracingGc(std::unique_ptr<rdtgc::core::RdtLgc> inner, Tracer& tracer,
            std::uint64_t& lag_peak);

  void initialize(rdtgc::ProcessId self, std::size_t process_count,
                  rdtgc::ckpt::ShardedCheckpointStore& store) override;
  void on_new_dependency(rdtgc::ProcessId j) override;
  void on_new_dependencies(std::span<const rdtgc::ProcessId> changed) override;
  void on_checkpoint_stored(rdtgc::CheckpointIndex index) override;
  void on_rollback(const rdtgc::ckpt::RollbackInfo& info,
                   const rdtgc::causality::DependencyVector& dv) override;
  void on_peer_recovery(const std::vector<rdtgc::IntervalIndex>& li,
                        const rdtgc::causality::DependencyVector& dv) override;
  void on_attach(const rdtgc::causality::DependencyVector& dv) override;
  std::string name() const override;

 private:
  void sample_lag();

  std::unique_ptr<rdtgc::core::RdtLgc> inner_;
  Tracer& tracer_;
  std::uint64_t& lag_peak_;
  const rdtgc::ckpt::ShardedCheckpointStore* store_ = nullptr;
  Tracer::LayerId deps_id_;
  Tracer::LayerId ckpt_id_;
};

/// Installs the fsync/msync overrides for its lifetime (process-global, so
/// at most one instance at a time).  Without a tracer the hooks only count.
class IoHooks {
 public:
  explicit IoHooks(Tracer* tracer);
  ~IoHooks();
  IoHooks(const IoHooks&) = delete;
  IoHooks& operator=(const IoHooks&) = delete;

  std::uint64_t fsyncs() const;
  std::uint64_t msyncs() const;
};

}  // namespace perfbench
