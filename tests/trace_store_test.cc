// Tests for the TraceStore ("HDFS" substitute), parameterized over both
// backends, plus durability checks specific to the local-directory backend.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "io/trace_store.h"

namespace graft {
namespace {

namespace fs = std::filesystem;

struct BackendParam {
  std::string name;
  std::function<std::unique_ptr<TraceStore>(const std::string& dir)> make;
};

// Without this gtest prints the parameter as its raw bytes, which hold heap
// addresses, so every build would list the tests under different names.
void PrintTo(const BackendParam& param, std::ostream* os) { *os << param.name; }

class TraceStoreTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/graft_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    store_ = GetParam().make(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  std::unique_ptr<TraceStore> store_;
};

TEST_P(TraceStoreTest, AppendAndReadBackInOrder) {
  ASSERT_TRUE(store_->Append("job/a", "first").ok());
  ASSERT_TRUE(store_->Append("job/a", "second").ok());
  ASSERT_TRUE(store_->Append("job/a", "third").ok());
  auto records = store_->ReadAll("job/a");
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0], "first");
  EXPECT_EQ((*records)[1], "second");
  EXPECT_EQ((*records)[2], "third");
}

TEST_P(TraceStoreTest, EmptyAndBinaryRecordsSurvive) {
  std::string binary("\x00\x01\xff\x80", 4);
  ASSERT_TRUE(store_->Append("f", "").ok());
  ASSERT_TRUE(store_->Append("f", binary).ok());
  auto records = store_->ReadAll("f");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0], "");
  EXPECT_EQ((*records)[1], binary);
}

TEST_P(TraceStoreTest, MissingFileIsNotFound) {
  EXPECT_TRUE(store_->ReadAll("nope").status().IsNotFound());
  EXPECT_FALSE(store_->Exists("nope"));
  EXPECT_EQ(store_->RecordCount("nope"), 0u);
}

TEST_P(TraceStoreTest, ExistsAfterAppend) {
  ASSERT_TRUE(store_->Append("x/y/z", "r").ok());
  EXPECT_TRUE(store_->Exists("x/y/z"));
  EXPECT_EQ(store_->RecordCount("x/y/z"), 1u);
}

TEST_P(TraceStoreTest, ListFilesFiltersByPrefixSorted) {
  ASSERT_TRUE(store_->Append("job1/superstep_000001/w0", "r").ok());
  ASSERT_TRUE(store_->Append("job1/superstep_000002/w0", "r").ok());
  ASSERT_TRUE(store_->Append("job2/superstep_000001/w0", "r").ok());
  auto files = store_->ListFiles("job1/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "job1/superstep_000001/w0");
  EXPECT_EQ(files[1], "job1/superstep_000002/w0");
  EXPECT_EQ(store_->ListFiles("").size(), 3u);
  EXPECT_TRUE(store_->ListFiles("nothing/").empty());
}

TEST_P(TraceStoreTest, TotalBytesGrowsWithData) {
  EXPECT_EQ(store_->TotalBytes("j/"), 0u);
  ASSERT_TRUE(store_->Append("j/a", std::string(100, 'x')).ok());
  ASSERT_TRUE(store_->Flush().ok());
  uint64_t bytes = store_->TotalBytes("j/");
  EXPECT_GE(bytes, 100u);
  EXPECT_LE(bytes, 110u);  // payload + small framing
}

TEST_P(TraceStoreTest, DeletePrefixRemovesOnlyMatching) {
  ASSERT_TRUE(store_->Append("j1/a", "r").ok());
  ASSERT_TRUE(store_->Append("j2/a", "r").ok());
  ASSERT_TRUE(store_->DeletePrefix("j1/").ok());
  EXPECT_FALSE(store_->Exists("j1/a"));
  EXPECT_TRUE(store_->Exists("j2/a"));
}

TEST_P(TraceStoreTest, AppendAfterDeleteStartsFresh) {
  ASSERT_TRUE(store_->Append("j/a", "old").ok());
  ASSERT_TRUE(store_->DeletePrefix("j/").ok());
  ASSERT_TRUE(store_->Append("j/a", "new").ok());
  auto records = store_->ReadAll("j/a");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "new");
}

TEST_P(TraceStoreTest, ConcurrentAppendsToDistinctFiles) {
  // The instrumenter appends from every worker thread; per-worker files.
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      std::string file = "job/worker_" + std::to_string(w);
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(store_->Append(file, std::to_string(i)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < 4; ++w) {
    auto records = store_->ReadAll("job/worker_" + std::to_string(w));
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 200u);
    for (int i = 0; i < 200; ++i) EXPECT_EQ((*records)[i], std::to_string(i));
  }
}

TEST_P(TraceStoreTest, ConcurrentAppendsToSameFileKeepAllRecords) {
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(store_->Append("shared", "r").ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store_->RecordCount("shared"), 400u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TraceStoreTest,
    ::testing::Values(
        BackendParam{"InMemory",
                     [](const std::string&) -> std::unique_ptr<TraceStore> {
                       return std::make_unique<InMemoryTraceStore>();
                     }},
        BackendParam{"LocalDir",
                     [](const std::string& dir) -> std::unique_ptr<TraceStore> {
                       auto store = LocalDirTraceStore::Open(dir);
                       GRAFT_CHECK(store.ok());
                       return std::move(store).value();
                     }}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return info.param.name;
    });

TEST(LocalDirTraceStoreTest, DataSurvivesReopen) {
  std::string dir = ::testing::TempDir() + "/graft_store_reopen";
  fs::remove_all(dir);
  {
    auto store = LocalDirTraceStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("job/traces", "persistent record").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = LocalDirTraceStore::Open(dir);
    ASSERT_TRUE(store.ok());
    auto records = (*store)->ReadAll("job/traces");
    ASSERT_TRUE(records.ok()) << records.status();
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ((*records)[0], "persistent record");
  }
  fs::remove_all(dir);
}

TEST(LocalDirTraceStoreTest, TruncatedFileReportsIOError) {
  std::string dir = ::testing::TempDir() + "/graft_store_trunc";
  fs::remove_all(dir);
  {
    auto store = LocalDirTraceStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("f", std::string(100, 'x')).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Chop the file mid-record.
  fs::resize_file(dir + "/f", 20);
  {
    auto store = LocalDirTraceStore::Open(dir);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE((*store)->ReadAll("f").status().IsIOError());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace graft
