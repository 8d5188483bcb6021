// Top-level wiring: a complete simulated system (simulator, network, CCP
// recorder, n checkpointing processes with a protocol and a collector).
// This is the entry point library users touch first — see examples/.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ccp/recorder.hpp"
#include "ckpt/node.hpp"
#include "ckpt/protocol.hpp"
#include "core/rdt_lgc.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace rdtgc::harness {

/// Which collector runs inside each process.
enum class GcChoice {
  kNone,           ///< retain everything (baseline)
  kRdtLgc,         ///< the paper's algorithm (binary-search rollback)
  kRdtLgcLinear,   ///< RDT-LGC with the linear rollback scan (ablation)
};

std::string gc_choice_name(GcChoice choice);

struct SystemConfig {
  std::size_t process_count = 4;
  ckpt::ProtocolKind protocol = ckpt::ProtocolKind::kFdas;
  GcChoice gc = GcChoice::kRdtLgc;
  sim::Network::Config network;
  std::uint64_t seed = 1;
  /// Per-node middleware config; node.storage selects the stable-storage
  /// backend every process writes its checkpoints through (in-memory /
  /// mmap / log-structured; the persistent kinds need
  /// node.storage.directory set — one file per process, so all n processes
  /// share the directory).
  ckpt::Node::Config node;
};

class System {
 public:
  explicit System(SystemConfig config);

  sim::Simulator& simulator() { return simulator_; }
  sim::Network& network() { return network_; }
  ccp::CcpRecorder& recorder() { return recorder_; }
  const ccp::CcpRecorder& recorder() const { return recorder_; }

  std::size_t process_count() const { return nodes_.size(); }
  ckpt::Node& node(ProcessId p);
  const ckpt::Node& node(ProcessId p) const;
  /// Mutable borrowed pointers for drivers (workload, recovery, probes).
  /// NOTE: restart_node() replaces the pointed-to Node — drivers of a system
  /// under churn must use node_provider() instead.
  std::vector<ckpt::Node*> node_ptrs();
  std::vector<const ckpt::Node*> node_ptrs() const;

  /// Restart-safe accessor for drivers: always resolves to the CURRENT Node
  /// of p, surviving restart_node() replacements.  The function borrows this
  /// System and must not outlive it.
  std::function<ckpt::Node&(ProcessId)> node_provider();

  /// Kill process p and warm-restart it from its own media: the Node is
  /// destroyed (its volatile state dies), its in-flight messages drop
  /// (sim::Network::disconnect), and a replacement is constructed with
  /// OpenMode::kAttach over the same directory — the persisted lineage
  /// resumes past the highest stored index (see ckpt::Node's attach path).
  /// Requires a persistent storage kind in config().node.storage.  No
  /// recovery session runs here; pair with RecoveryManager::recover({p})
  /// to restore a consistent global line.
  ckpt::Node& restart_node(ProcessId p);

  /// Total restart_node() calls.
  std::uint64_t restarts() const { return restarts_; }

  /// The RDT-LGC instance of process p; contract-checked against GcChoice.
  const core::RdtLgc& rdt_lgc(ProcessId p) const;

  /// Sum of stored checkpoints across processes.
  std::size_t total_stored() const;
  /// Sum of GC-collected checkpoints across processes.
  std::uint64_t total_collected() const;

  const SystemConfig& config() const { return config_; }

 private:
  std::unique_ptr<ckpt::Node> make_node(ProcessId p, ckpt::OpenMode open_mode);

  SystemConfig config_;
  sim::Simulator simulator_;
  ccp::CcpRecorder recorder_;
  sim::Network network_;
  std::vector<std::unique_ptr<ckpt::Node>> nodes_;
  std::uint64_t restarts_ = 0;
};

}  // namespace rdtgc::harness
