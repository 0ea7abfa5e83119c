// Communicators and groups for the simulated MPI layer.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace metascope::simmpi {

/// A communicator: an ordered set of distinct global ranks. Position in
/// `members` is the communicator-local rank.
struct Communicator {
  CommId id;
  std::string name;
  std::vector<Rank> members;
  /// Dense global -> local index over the world ranks (-1 for
  /// non-members), built by CommSet so local_rank() is O(1).
  std::vector<int> local_of;

  [[nodiscard]] int size() const { return static_cast<int>(members.size()); }
  /// Local rank of a global rank, or -1 if not a member.
  [[nodiscard]] int local_rank(Rank global) const {
    return global >= 0 && static_cast<std::size_t>(global) < local_of.size()
               ? local_of[static_cast<std::size_t>(global)]
               : -1;
  }
  [[nodiscard]] bool contains(Rank global) const {
    return local_rank(global) >= 0;
  }
};

/// Registry of communicators. Communicator 0 is always MPI_COMM_WORLD.
class CommSet {
 public:
  /// Creates the world communicator over ranks [0, nranks).
  explicit CommSet(int nranks);

  [[nodiscard]] CommId world() const { return CommId{0}; }

  /// Defines a sub-communicator; members must be distinct, valid world
  /// ranks. A repeated member throws Error with the rank in its context.
  CommId create(const std::string& name, std::vector<Rank> members);

  [[nodiscard]] const Communicator& get(CommId id) const;
  [[nodiscard]] std::size_t size() const { return comms_.size(); }
  [[nodiscard]] int world_size() const { return world_size_; }

 private:
  int world_size_;
  std::vector<Communicator> comms_;
};

}  // namespace metascope::simmpi
