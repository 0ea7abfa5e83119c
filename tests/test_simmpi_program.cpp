#include "simmpi/program.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace metascope::simmpi {
namespace {

TEST(CommSet, WorldIsDense) {
  CommSet cs(4);
  const Communicator& w = cs.get(cs.world());
  EXPECT_EQ(w.size(), 4);
  EXPECT_EQ(w.name, "MPI_COMM_WORLD");
  for (Rank r = 0; r < 4; ++r) EXPECT_EQ(w.local_rank(r), r);
}

TEST(CommSet, SubCommunicatorLocalRanks) {
  CommSet cs(8);
  const CommId sub = cs.create("half", {1, 3, 5, 7});
  const Communicator& c = cs.get(sub);
  EXPECT_EQ(c.local_rank(3), 1);
  EXPECT_EQ(c.local_rank(0), -1);
  EXPECT_TRUE(c.contains(7));
  EXPECT_FALSE(c.contains(6));
}

TEST(CommSet, RejectsBadMembers) {
  CommSet cs(4);
  EXPECT_THROW(cs.create("bad", {0, 9}), Error);
  EXPECT_THROW(cs.create("empty", {}), Error);
  EXPECT_THROW((void)cs.get(CommId{5}), Error);
}

TEST(CommSet, RejectsDuplicateMembersNamingTheRank) {
  CommSet cs(4);
  try {
    cs.create("dup", {1, 3, 3});
    FAIL() << "duplicate member accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.context().rank, 3);
    EXPECT_NE(std::string(e.what()).find("rank 3"), std::string::npos)
        << e.what();
  }
  // The rejected communicator was not registered.
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs.get(cs.create("ok", {3, 1})).local_rank(1), 1);
}

TEST(ProgramBuilder, MpiRegionsPreInterned) {
  Program p(2);
  EXPECT_TRUE(p.regions.contains("MPI_Send"));
  EXPECT_TRUE(p.regions.contains("MPI_Barrier"));
  EXPECT_TRUE(p.regions.contains("MPI_Alltoall"));
}

TEST(ProgramBuilder, CursorBuildsOps) {
  ProgramBuilder b(2);
  b.on(0).enter("main").compute(0.5).send(1, 7, 100.0).exit();
  b.on(1).enter("main").recv(0, 7).exit();
  const Program p = b.take();
  ASSERT_EQ(p.ops[0].size(), 4u);
  EXPECT_EQ(p.ops[0][0].kind, OpKind::Enter);
  EXPECT_EQ(p.regions.name(p.ops[0][0].region), "main");
  EXPECT_EQ(p.ops[0][1].kind, OpKind::Compute);
  EXPECT_DOUBLE_EQ(p.ops[0][1].work, 0.5);
  EXPECT_EQ(p.ops[0][2].peer, 1);
  EXPECT_EQ(p.ops[0][2].tag, 7);
}

TEST(ProgramBuilder, RequestSlotsSequential) {
  ProgramBuilder b(2);
  auto& c0 = b.on(0);
  c0.enter("m");
  const int r1 = c0.isend(1, 0, 10.0);
  const int r2 = c0.irecv(1, 1);
  EXPECT_EQ(r1, 0);
  EXPECT_EQ(r2, 1);
  c0.wait(r1).wait(r2).exit();
  b.on(1).enter("m").recv(0, 0).send(0, 1, 5.0).exit();
  EXPECT_NO_THROW(b.take());
}

TEST(ProgramValidate, UnbalancedEnterExit) {
  ProgramBuilder b(1);
  b.on(0).enter("main");
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, ExitWithoutEnter) {
  ProgramBuilder b(1);
  b.on(0).exit();
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, UnmatchedSend) {
  ProgramBuilder b(2);
  b.on(0).send(1, 0, 8.0);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, UnmatchedRecv) {
  ProgramBuilder b(2);
  b.on(1).recv(0, 0);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, TagMismatchIsUnmatched) {
  ProgramBuilder b(2);
  b.on(0).send(1, 1, 8.0);
  b.on(1).recv(0, 2);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, SelfSendRejected) {
  ProgramBuilder b(2);
  b.on(0).send(0, 0, 8.0);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, PeerOutOfRange) {
  ProgramBuilder b(2);
  b.on(0).send(5, 0, 8.0);
  b.on(1).recv(0, 0);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, CollectiveSequenceMismatch) {
  ProgramBuilder b(2);
  b.on(0).barrier();
  // rank 1 never calls the barrier.
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, CollectiveKindMismatch) {
  ProgramBuilder b(2);
  b.on(0).barrier();
  b.on(1).allreduce(8.0);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, CollectiveOnNonMemberComm) {
  ProgramBuilder b(4);
  const CommId sub = b.comms().create("sub", {0, 1});
  b.on(2).barrier(sub);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, RootedCollectiveNeedsMemberRoot) {
  ProgramBuilder b(4);
  const CommId sub = b.comms().create("sub", {0, 1});
  b.on(0).bcast(3, 8.0, sub);
  b.on(1).bcast(3, 8.0, sub);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, WaitWithoutRequest) {
  ProgramBuilder b(1);
  Op op;
  op.kind = OpKind::Wait;
  op.request = 0;
  ProgramBuilder b2(1);
  b2.program().ops[0].push_back(op);
  EXPECT_THROW(b2.take(), Error);
}

TEST(ProgramValidate, DoubleWaitRejected) {
  ProgramBuilder b(2);
  auto& c = b.on(0);
  c.enter("m");
  const int req = c.isend(1, 0, 4.0);
  c.wait(req).wait(req).exit();
  b.on(1).enter("m").recv(0, 0).exit();
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, UnwaitedRequestRejected) {
  ProgramBuilder b(2);
  b.on(0).isend(1, 0, 4.0);
  b.on(1).recv(0, 0);
  EXPECT_THROW(b.take(), Error);
}

TEST(ProgramValidate, SendRecvBalances) {
  ProgramBuilder b(2);
  b.on(0).sendrecv(1, 8.0, 1, 8.0, 0);
  b.on(1).sendrecv(0, 8.0, 0, 8.0, 0);
  EXPECT_NO_THROW(b.take());
}

TEST(ProgramValidate, NegativeWorkRejected) {
  ProgramBuilder b(1);
  b.on(0).compute(-1.0);
  EXPECT_THROW(b.take(), Error);
}

TEST(Program, TotalOpsCounts) {
  ProgramBuilder b(2);
  b.on(0).enter("m").compute(1.0).exit();
  b.on(1).enter("m").exit();
  EXPECT_EQ(b.program().total_ops(), 5u);
}

}  // namespace
}  // namespace metascope::simmpi
