#include <gtest/gtest.h>

#include <cstring>

#include "blockdev/disk.hpp"
#include "blockdev/drbd.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace nlc::blk {
namespace {

using namespace nlc::literals;
using sim::task;

kern::PagePayload block_of(char fill) {
  return std::make_shared<const kern::PageBytes>(kPageSize,
                                                 static_cast<std::byte>(fill));
}

TEST(DiskTest, WriteReadRoundTrip) {
  Disk d;
  auto data = block_of('A');
  d.write_block(5, 0, data);
  auto back = d.read_block(5, 0);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, *data);
  EXPECT_EQ(back, data);  // the stored handle, not a copy
  EXPECT_EQ(d.read_block(5, 1), nullptr);
  EXPECT_EQ(d.read_block(6, 0), nullptr);
  EXPECT_EQ(d.writes(), 1u);
  EXPECT_EQ(d.bytes_written(), kPageSize);
}

TEST(DiskTest, SameContentComparison) {
  Disk a, b;
  a.write_block(1, 0, block_of('x'));
  EXPECT_FALSE(a.same_content(b));
  b.write_block(1, 0, block_of('x'));
  EXPECT_TRUE(a.same_content(b));
}

TEST(DiskTest, SameContentComparesBytesNotHandles) {
  Disk a, b;
  // Equal bytes in distinct payloads: the same content.
  a.write_block(1, 3, block_of('x'));
  b.write_block(1, 3, block_of('x'));
  ASSERT_NE(a.read_block(1, 3), b.read_block(1, 3));
  EXPECT_TRUE(a.same_content(b));
  EXPECT_TRUE(b.same_content(a));
  // One shared payload: the same content too.
  kern::PagePayload shared = block_of('s');
  a.write_block(2, 0, shared);
  b.write_block(2, 0, shared);
  EXPECT_TRUE(a.same_content(b));
  // Different bytes at one block.
  b.write_block(2, 0, block_of('t'));
  EXPECT_FALSE(a.same_content(b));
  EXPECT_FALSE(b.same_content(a));
  // The same number of blocks, at different addresses.
  Disk c, d;
  c.write_block(1, 0, block_of('x'));
  d.write_block(1, 1, block_of('x'));
  EXPECT_FALSE(c.same_content(d));
  EXPECT_FALSE(d.same_content(c));
}

struct DrbdRig {
  sim::Simulation s;
  sim::DomainPtr primary_dom = std::make_shared<sim::Domain>("primary");
  sim::DomainPtr backup_dom = std::make_shared<sim::Domain>("backup");
  net::Link link{s, net::kTenGigabit, 20_us};
  net::Channel<DrbdMessage> chan{s, link, backup_dom};
  Disk primary_disk, backup_disk;
  DrbdPrimary primary{primary_disk, chan};
  DrbdBackup backup{s, backup_disk, chan};

  DrbdRig() { s.spawn(backup_dom, backup.run()); }
  ~DrbdRig() { s.shutdown(); }
};

TEST(DrbdTest, WritesBufferedUntilCommit) {
  DrbdRig r;
  r.primary.write_block(1, 0, block_of('a'));
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom, [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
  }(r));
  r.s.run();
  // Arrived and buffered, not applied.
  EXPECT_EQ(r.backup.buffered_writes(), 1u);
  EXPECT_FALSE(r.backup_disk.read_block(1, 0) != nullptr);
  r.backup.commit(1);
  EXPECT_TRUE(r.primary_disk.same_content(r.backup_disk));
  EXPECT_EQ(r.backup.committed_epoch(), 1u);
}

/// Zero-copy replication: with two directly-fed replicas (star fan-out),
/// the primary disk and both backup disks end up holding the one payload
/// the filesystem handed to the primary.
TEST(DrbdTest, FanOutAndCommitShareOnePayload) {
  DrbdRig r;
  net::Channel<DrbdMessage> chan2{r.s, r.link, r.backup_dom};
  Disk disk2;
  DrbdBackup backup2{r.s, disk2, chan2};
  r.primary.add_channel(chan2);
  r.s.spawn(r.backup_dom, backup2.run());
  kern::PagePayload page = block_of('p');
  r.primary.write_block(4, 2, page);
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom, [](DrbdRig& rr, DrbdBackup& b2) -> task<> {
    co_await rr.backup.wait_barrier(1);
    co_await b2.wait_barrier(1);
    rr.backup.commit(1);
    b2.commit(1);
  }(r, backup2));
  r.s.run();
  EXPECT_EQ(r.primary_disk.read_block(4, 2), page);
  EXPECT_EQ(r.backup_disk.read_block(4, 2), page);
  EXPECT_EQ(disk2.read_block(4, 2), page);
  EXPECT_EQ(r.backup.buffered_writes(), 0u);
  EXPECT_EQ(backup2.buffered_writes(), 0u);
  r.s.shutdown();  // before backup2 and chan2 go out of scope
}

TEST(DrbdTest, PrimaryAppliesLocallyImmediately) {
  DrbdRig r;
  r.primary.write_block(3, 7, block_of('z'));
  EXPECT_TRUE(r.primary_disk.read_block(3, 7) != nullptr);
  auto back = r.primary.read_block(3, 7);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ((*back)[0], static_cast<std::byte>('z'));
}

TEST(DrbdTest, DiscardUncommittedProtectsBackupDisk) {
  DrbdRig r;
  // Epoch 1 committed, epoch 2 in flight at failure.
  r.primary.write_block(1, 0, block_of('1'));
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom, [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
    rr.backup.commit(1);
  }(r));
  r.s.run();
  r.primary.write_block(1, 0, block_of('2'));  // uncommitted epoch 2
  r.primary.send_barrier(2);
  r.s.run();
  r.backup.discard_uncommitted();
  auto back = r.backup_disk.read_block(1, 0);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ((*back)[0], static_cast<std::byte>('1'));  // epoch-1 content
}

TEST(DrbdTest, MultiEpochCommitInOrder) {
  DrbdRig r;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    r.primary.write_block(e, 0, block_of(static_cast<char>('0' + e)));
    r.primary.send_barrier(e);
  }
  r.s.spawn(r.backup_dom, [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(3);
  }(r));
  r.s.run();
  r.backup.commit(2);
  EXPECT_EQ(r.backup.committed_epoch(), 2u);
  EXPECT_TRUE(r.backup_disk.read_block(2, 0) != nullptr);
  EXPECT_FALSE(r.backup_disk.read_block(3, 0) != nullptr);
  r.backup.commit(3);
  EXPECT_TRUE(r.primary_disk.same_content(r.backup_disk));
}

TEST(DrbdTest, BarrierWithNoWrites) {
  DrbdRig r;
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom, [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
  }(r));
  r.s.run();
  r.backup.commit(1);
  EXPECT_EQ(r.backup.committed_epoch(), 1u);
  EXPECT_EQ(r.backup.writes_committed(), 0u);
}

TEST(DrbdTest, WriteAfterBarrierLandsInNextEpoch) {
  DrbdRig r;
  r.primary.write_block(1, 0, block_of('a'));
  r.primary.send_barrier(1);
  r.primary.write_block(2, 0, block_of('b'));
  r.primary.send_barrier(2);
  r.s.spawn(r.backup_dom, [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(2);
  }(r));
  r.s.run();
  r.backup.commit(1);
  EXPECT_TRUE(r.backup_disk.read_block(1, 0) != nullptr);
  EXPECT_FALSE(r.backup_disk.read_block(2, 0) != nullptr);
}

TEST(DrbdTest, ReplicationStopsWhenBackupDead) {
  DrbdRig r;
  r.backup_dom->kill();
  r.primary.write_block(1, 0, block_of('a'));
  r.primary.send_barrier(1);
  r.s.run();
  EXPECT_EQ(r.backup.buffered_writes(), 0u);
  // Primary disk unaffected.
  EXPECT_TRUE(r.primary_disk.read_block(1, 0) != nullptr);
}

/// Filesystem + DRBD integration: writeback on the primary reaches the
/// backup disk only after commit.
TEST(DrbdTest, FilesystemWritebackFlowsThroughReplication) {
  DrbdRig r;
  kern::Filesystem fs(r.primary);
  auto ino = fs.create("/db");
  const char msg[] = "durable";
  std::vector<std::byte> data(sizeof msg - 1);
  std::memcpy(data.data(), msg, data.size());
  fs.write(ino, 0, data, 1);
  fs.sync_all();
  r.primary.send_barrier(1);
  r.s.spawn(r.backup_dom, [](DrbdRig& rr) -> task<> {
    co_await rr.backup.wait_barrier(1);
    rr.backup.commit(1);
  }(r));
  r.s.run();

  // A filesystem mounted over the backup disk reads the same bytes.
  kern::Filesystem backup_fs(r.backup_disk);
  auto ino2 = backup_fs.create("/db");
  auto back = backup_fs.read(ino2, 0, data.size());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace nlc::blk
