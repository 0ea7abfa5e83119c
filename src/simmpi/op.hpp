// Operation model for simulated per-rank MPI programs.
//
// A rank program is a static sequence of operations. All modelled
// workloads have data-independent control flow, so a static sequence is
// exactly as expressive as running real code — and keeps the simulator a
// deterministic fixed-point computation over virtual time.
#pragma once

#include <string>

#include "common/types.hpp"

namespace metascope::simmpi {

enum class OpKind : std::uint8_t {
  Compute,   ///< busy CPU for work/speed seconds
  Enter,     ///< enter a user region
  Exit,      ///< exit the current user region
  Send,      ///< blocking standard send
  Recv,      ///< blocking receive
  Isend,     ///< nonblocking send; completes at Wait
  Irecv,     ///< nonblocking receive; completes at Wait
  Wait,      ///< wait for one request
  SendRecv,  ///< combined send+receive (deadlock-free halo exchange)
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Allgather,
  Scatter,
  Alltoall,
};

/// True for the group operations that involve a whole communicator.
constexpr bool is_collective(OpKind k) {
  switch (k) {
    case OpKind::Barrier:
    case OpKind::Bcast:
    case OpKind::Reduce:
    case OpKind::Allreduce:
    case OpKind::Gather:
    case OpKind::Allgather:
    case OpKind::Scatter:
    case OpKind::Alltoall:
      return true;
    default:
      return false;
  }
}

/// MPI function name used as the implicit region for an operation.
const char* mpi_region_name(OpKind k);

/// One operation. Widest fields first and the kind tag last, so the
/// record packs into 56 bytes.
struct Op {
  /// Compute: nominal seconds of work at speed factor 1.0.
  double work{0.0};
  /// Payload bytes (send side; collectives: per-rank contribution).
  double bytes{0.0};
  /// SendRecv: bytes of the receive half.
  double recv_bytes{0.0};
  /// Enter: user region id (interned in the program's region table).
  RegionId region;
  /// Send/Isend: destination. Recv/Irecv: source. SendRecv: destination.
  Rank peer{kNoRank};
  /// SendRecv: source of the receive half.
  Rank recv_peer{kNoRank};
  int tag{0};
  CommId comm{0};
  /// Rooted collectives: root as a *global* rank.
  Rank root{kNoRank};
  /// Isend/Irecv: request slot assigned by the builder; Wait: slot waited.
  int request{-1};
  OpKind kind{OpKind::Compute};
};
static_assert(sizeof(Op) == 56, "ops stay 56 bytes");

}  // namespace metascope::simmpi
