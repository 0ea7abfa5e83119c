#include "simmpi/comm.hpp"

#include <string>

#include "common/error.hpp"

namespace metascope::simmpi {

CommSet::CommSet(int nranks) : world_size_(nranks) {
  MSC_CHECK(nranks > 0, "communicator world must be non-empty");
  std::vector<Rank> all(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) all[static_cast<std::size_t>(r)] = r;
  create("MPI_COMM_WORLD", std::move(all));
}

CommId CommSet::create(const std::string& name, std::vector<Rank> members) {
  MSC_CHECK(!members.empty(), "communicator must be non-empty");
  Communicator c;
  c.id = CommId{static_cast<int>(comms_.size())};
  c.name = name;
  c.local_of.assign(static_cast<std::size_t>(world_size_), -1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Rank r = members[i];
    MSC_CHECK(r >= 0 && r < world_size_, "communicator member out of range");
    int& local = c.local_of[static_cast<std::size_t>(r)];
    if (local >= 0)
      throw Error(ErrorCode::None,
                  "communicator '" + name + "' lists rank " +
                      std::to_string(r) + " more than once",
                  ErrorContext{{}, r, -1});
    local = static_cast<int>(i);
  }
  c.members = std::move(members);
  comms_.push_back(std::move(c));
  return comms_.back().id;
}

const Communicator& CommSet::get(CommId id) const {
  MSC_CHECK(id.valid() && static_cast<std::size_t>(id.get()) < comms_.size(),
            "unknown communicator");
  return comms_[static_cast<std::size_t>(id.get())];
}

}  // namespace metascope::simmpi
