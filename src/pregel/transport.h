#ifndef GRAFT_PREGEL_TRANSPORT_H_
#define GRAFT_PREGEL_TRANSPORT_H_

namespace graft {
namespace pregel {

/// Which backend carries the engine's cross-worker traffic (DESIGN.md §15).
/// Thread-sharded partitions in one process — the lock-free
/// WorkerPool/MessageStore paths — are the only backend.
enum class TransportKind {
  kInProc,
};

/// Transport knobs on a JobSpec.
struct TransportOptions {
  TransportKind kind = TransportKind::kInProc;
};

/// The backend's name as the run report and the HTTP API spell it.
inline const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc:
      return "inproc";
  }
  return "unknown";
}

}  // namespace pregel
}  // namespace graft

#endif  // GRAFT_PREGEL_TRANSPORT_H_
