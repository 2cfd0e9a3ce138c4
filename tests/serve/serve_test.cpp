// balbench-serve unit tests: wire protocol round trips and hostile
// input, the durable result cache's journal replay / quarantine
// machinery, admission-queue ordering, the shared backoff schedule,
// and the cache-key/byte-identity contract across --jobs values
// (DESIGN.md Sec. 17).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/serve/cache.hpp"
#include "core/serve/protocol.hpp"
#include "core/serve/service.hpp"
#include "obs/metrics.hpp"
#include "util/backoff.hpp"

namespace bs = balbench::serve;
namespace obs = balbench::obs;

namespace {

std::string scratch(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "serve_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Protocol

TEST(ServeProtocol, RequestRoundTripsEveryField) {
  bs::ServeRequest req;
  req.id = "req-7";
  req.kind = bs::RequestKind::Sweep;
  req.scope = "doc";
  req.scenario = "{\"schema\":\"balbench-scenario/1\"}\nsecond line";
  req.faults = "seed=7,link=0.1";
  req.deadline_s = 2.5;
  const bs::ServeRequest back = bs::parse_request(bs::write_request(req));
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.kind, bs::RequestKind::Sweep);
  EXPECT_EQ(back.scope, req.scope);
  EXPECT_EQ(back.scenario, req.scenario);
  EXPECT_EQ(back.faults, req.faults);
  EXPECT_DOUBLE_EQ(back.deadline_s, req.deadline_s);
}

TEST(ServeProtocol, RequestLineIsSingleLine) {
  bs::ServeRequest req;
  req.kind = bs::RequestKind::Sweep;
  req.scenario = "line one\nline two";  // newlines must be escaped away
  const std::string line = bs::write_request(req);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
}

TEST(ServeProtocol, ResponseCarriesRecordBytesVerbatim) {
  bs::ServeResponse resp;
  resp.id = "r";
  resp.status = bs::ResponseStatus::Ok;
  resp.cache = bs::CacheDisposition::Hit;
  resp.key = "rev:cfg:-";
  // Record bytes with everything that must survive the escape trip:
  // newlines, quotes, backslashes, control bytes.
  resp.record = "{\n \"a\": \"q\\\"uo\\\\te\",\n \"b\": 1\n}\n\x01\x1f";
  const bs::ServeResponse back = bs::parse_response(bs::write_response(resp));
  EXPECT_EQ(back.record, resp.record);
  EXPECT_EQ(back.cache, bs::CacheDisposition::Hit);
  EXPECT_EQ(back.key, resp.key);
}

TEST(ServeProtocol, StatsRoundTrip) {
  bs::ServeResponse resp;
  resp.status = bs::ResponseStatus::Ok;
  resp.stats["serve.hits"] = 3.0;
  resp.stats["serve.queue_depth"] = 1.0;
  const bs::ServeResponse back = bs::parse_response(bs::write_response(resp));
  EXPECT_EQ(back.stats.size(), 2u);
  EXPECT_DOUBLE_EQ(back.stats.at("serve.hits"), 3.0);
}

TEST(ServeProtocol, HostileInputsAreRejectedWithPointedErrors) {
  // Unknown key: a typo'd or future-version field must fail loudly.
  EXPECT_THROW(bs::parse_request("{\"schema\":\"balbench-serve-request/1\","
                                 "\"kind\":\"ping\",\"bogus\":1}"),
               std::runtime_error);
  // Foreign schema.
  EXPECT_THROW(
      bs::parse_request("{\"schema\":\"balbench-run-record/1\"}"),
      std::runtime_error);
  // Unknown kind.
  EXPECT_THROW(bs::parse_request("{\"schema\":\"balbench-serve-request/1\","
                                 "\"kind\":\"explode\"}"),
               std::runtime_error);
  // Negative deadline.
  EXPECT_THROW(bs::parse_request("{\"schema\":\"balbench-serve-request/1\","
                                 "\"kind\":\"sweep\",\"deadline_s\":-1}"),
               std::runtime_error);
  // Not JSON at all.
  EXPECT_THROW(bs::parse_request("MAYHEM"), std::runtime_error);
}

TEST(ServeProtocol, StatusExitCodesMatchTheReadmeTable) {
  EXPECT_EQ(bs::status_exit_code(bs::ResponseStatus::Ok), 0);
  EXPECT_EQ(bs::status_exit_code(bs::ResponseStatus::Degraded), 3);
  EXPECT_EQ(bs::status_exit_code(bs::ResponseStatus::Failed), 3);
  EXPECT_EQ(bs::status_exit_code(bs::ResponseStatus::Overloaded), 4);
  EXPECT_EQ(bs::status_exit_code(bs::ResponseStatus::Error), 1);
}

// ---------------------------------------------------------------------------
// Backoff (the schedule shared between robust retries and the client)

TEST(Backoff, CappedExponentialSchedule) {
  const balbench::util::Backoff b{0.25, 8.0};
  EXPECT_DOUBLE_EQ(b.delay_for(1), 0.25);
  EXPECT_DOUBLE_EQ(b.delay_for(2), 0.5);
  EXPECT_DOUBLE_EQ(b.delay_for(3), 1.0);
  EXPECT_DOUBLE_EQ(b.delay_for(6), 8.0);    // saturates at the cap
  EXPECT_DOUBLE_EQ(b.delay_for(60), 8.0);   // and stays there
  EXPECT_DOUBLE_EQ(b.delay_for(0), 0.25);   // clamped to attempt 1
}

// ---------------------------------------------------------------------------
// ResultCache

TEST(ResultCache, StoreLookupAndJournalReplay) {
  const std::string dir = scratch("replay");
  const std::string key = "rev1:cafe:-";
  const std::string record = "{\"schema\":\"balbench-run-record/1\"}\n";
  {
    bs::ResultCache cache(dir + "/CACHE.json");
    cache.open();
    EXPECT_FALSE(cache.lookup(key).has_value());
    cache.store(key, record);
    EXPECT_EQ(cache.lookup(key).value(), record);
  }
  // A fresh instance replays the journal from disk.
  bs::ResultCache cache(dir + "/CACHE.json");
  const auto stats = cache.open();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.orphans, 0u);
  EXPECT_EQ(cache.lookup(key).value(), record);
}

TEST(ResultCache, CorruptEntryIsQuarantinedNotServed) {
  const std::string dir = scratch("corrupt");
  const std::string path = dir + "/CACHE.json";
  const std::string key = "rev1:cafe:-";
  {
    bs::ResultCache cache(path);
    cache.open();
    cache.store(key, "good bytes good bytes");
  }
  // Disk-level damage: flip a byte in the committed entry.  The
  // journaled hash no longer matches, so open() must quarantine it.
  std::string entry_file;
  for (const auto& de :
       std::filesystem::directory_iterator(path + ".entries")) {
    entry_file = de.path().string();
  }
  ASSERT_FALSE(entry_file.empty());
  std::string bytes = slurp(entry_file);
  bytes[3] = 'X';
  std::ofstream(entry_file, std::ios::binary | std::ios::trunc) << bytes;

  bs::ResultCache cache(path);
  const auto stats = cache.open();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_TRUE(std::filesystem::exists(entry_file + ".quarantined"));
  // The rewritten journal is clean: a third open sees a healthy,
  // empty cache.
  bs::ResultCache again(path);
  const auto stats2 = again.open();
  EXPECT_EQ(stats2.quarantined, 0u);
}

TEST(ResultCache, OrphanEntryFileIsQuarantined) {
  const std::string dir = scratch("orphan");
  const std::string path = dir + "/CACHE.json";
  {
    bs::ResultCache cache(path);
    cache.open();
    cache.store("rev1:cafe:-", "committed");
  }
  // A crash between "write entry" and "append to journal" leaves an
  // unreferenced entry file behind.
  std::ofstream(path + ".entries/stray.json", std::ios::binary) << "half";
  bs::ResultCache cache(path);
  const auto stats = cache.open();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.orphans, 1u);
  EXPECT_TRUE(
      std::filesystem::exists(path + ".entries/stray.json.quarantined"));
  // Checkpoint journals are NOT orphans -- they are how interrupted
  // sweeps resume.
  const std::string ckpt = cache.checkpoint_path("rev1:other:-");
  std::ofstream(ckpt, std::ios::binary) << "{\"schema\":\"x\"}";
  bs::ResultCache again(path);
  const auto stats2 = again.open();
  EXPECT_EQ(stats2.orphans, 0u);
  EXPECT_TRUE(std::filesystem::exists(ckpt));
}

TEST(ResultCache, CorruptJournalFailsWithPathQualifiedError) {
  const std::string dir = scratch("torn_journal");
  const std::string path = dir + "/CACHE.json";
  {
    bs::ResultCache cache(path);
    cache.open();
    cache.store("rev1:cafe:-", "bytes");
  }
  const std::string text = slurp(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << text.substr(0, text.size() / 2);
  bs::ResultCache cache(path);
  try {
    cache.open();
    FAIL() << "torn journal did not throw";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  }
}

TEST(ResultCache, BadIndexRecordFailsWithPathQualifiedError) {
  // Well-formed JSON that is not a usable index: each must refuse to
  // open with the index path leading the message, never a bare
  // "JSON: missing key" from deep inside the decoder.
  const std::string head =
      R"({"schema":"balbench-journal/1","kind":"serve-cache","config":"",)";
  const std::vector<std::string> docs = {
      head + R"("records":[["k",{"file":"f.json","bytes":1}]]})",
      head + R"("records":"x"})",
      head + R"("records":[["k"]]})",
      head + R"("records":[[7,{"file":"f.json","bytes":1,"hash":"0"}]]})",
      head + R"("records":[["k",{"file":"../f.json","bytes":1,"hash":"0"}]]})",
      R"({"schema":"balbench-journal/1","kind":"serve-queue","config":"",)"
      R"("records":[]})",
      R"({"schema":"other/1","entries":[{"key":"k","file":"f.json"}]})",
  };
  const std::string dir = scratch("bad_record");
  const std::string path = dir + "/CACHE.json";
  for (const auto& doc : docs) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
    bs::ResultCache cache(path);
    try {
      cache.open();
      ADD_FAILURE() << "accepted: " << doc;
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u)
          << e.what() << "\n  for: " << doc;
    }
  }
}

TEST(ResultCache, CheckpointPathIsStableAcrossInstances) {
  const std::string dir = scratch("ckpt");
  bs::ResultCache a(dir + "/CACHE.json");
  bs::ResultCache b(dir + "/CACHE.json");
  // A restarted server must resume the exact journal its predecessor
  // was writing, so the path is a pure function of (cache, key).
  EXPECT_EQ(a.checkpoint_path("rev:cfg:-"), b.checkpoint_path("rev:cfg:-"));
  EXPECT_NE(a.checkpoint_path("rev:cfg:-"), a.checkpoint_path("rev:other:-"));
  // The on-disk name maps every character outside [A-Za-z0-9._-] to '_'.
  EXPECT_EQ(a.checkpoint_path("rev:cfg:-"),
            dir + "/CACHE.json.entries/rev_cfg_-.checkpoint.json");
}

// ---------------------------------------------------------------------------
// AdmissionQueue

namespace {
bs::Job sweep_job(const std::string& id, int conn = 1) {
  bs::Job job;
  job.req.kind = bs::RequestKind::Sweep;
  job.req.id = id;
  job.conn = conn;
  return job;
}
}  // namespace

TEST(AdmissionQueue, FifoOrderAndExplicitRejection) {
  bs::AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push(sweep_job("a")));
  EXPECT_TRUE(q.try_push(sweep_job("b")));
  // Rejection ordering contract: the queue is full, so "c" is refused
  // NOW; the earlier admissions are untouched and still FIFO.
  EXPECT_FALSE(q.try_push(sweep_job("c")));
  EXPECT_EQ(q.pop().value().req.id, "a");
  // A slot freed -> the next admission succeeds.
  EXPECT_TRUE(q.try_push(sweep_job("d")));
  EXPECT_EQ(q.pop().value().req.id, "b");
  EXPECT_EQ(q.pop().value().req.id, "d");
}

TEST(AdmissionQueue, RecoveredJobsBypassTheBound) {
  bs::AdmissionQueue q(1);
  EXPECT_TRUE(q.try_push(sweep_job("client")));
  EXPECT_FALSE(q.try_push(sweep_job("client2")));
  // conn < 0 marks a job re-admitted from a persisted queue: it was
  // accepted by a previous incarnation, so a restart must not turn it
  // into a rejection.
  EXPECT_TRUE(q.try_push(sweep_job("recovered", -1)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, DrainReturnsLeftoversAndCloses) {
  bs::AdmissionQueue q(4);
  EXPECT_TRUE(q.try_push(sweep_job("a")));
  EXPECT_TRUE(q.try_push(sweep_job("b")));
  const auto rest = q.drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].req.id, "a");
  EXPECT_EQ(rest[1].req.id, "b");
  EXPECT_FALSE(q.try_push(sweep_job("late")));  // closed
  EXPECT_FALSE(q.pop().has_value());            // closed and empty
}

TEST(DrainQueue, PersistsAndReloadsInAdmissionOrder) {
  const std::string path = bs::queue_file_path(scratch("queue") + "/C.json");
  EXPECT_TRUE(bs::load_queue(path).empty());  // no file: nothing queued
  bs::Job b = sweep_job("b");
  b.req.scope = "doc";
  bs::persist_queue(path, {sweep_job("z"), b, sweep_job("a")});
  const auto back = bs::load_queue(path);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].id, "z");
  EXPECT_EQ(back[1].id, "b");
  EXPECT_EQ(back[1].scope, "doc");
  EXPECT_EQ(back[2].id, "a");
}

// ---------------------------------------------------------------------------
// execute_sweep: cache keys, jobs-independence, deadlines

TEST(ExecuteSweep, CacheKeyIgnoresServerJobsKnob) {
  bs::ServeRequest req;
  req.kind = bs::RequestKind::Sweep;
  req.scope = "quick";
  const bs::CacheKey key = bs::sweep_cache_key(req, "rev");
  EXPECT_EQ(key.git_rev, "rev");
  EXPECT_EQ(key.scenario_hash, "-");
  EXPECT_FALSE(key.config_hash.empty());
  // The key type has no jobs field at all -- the knob cannot leak in.
  EXPECT_EQ(key.str(), "rev:" + key.config_hash + ":-");
}

TEST(ExecuteSweep, RecordsAreByteIdenticalAcrossJobsAndShareOneCacheLine) {
  bs::ServeRequest req;
  req.kind = bs::RequestKind::Sweep;
  req.scope = "quick";
  obs::Registry reg1, reg2;

  const std::string dir1 = scratch("jobs1");
  bs::ServeConfig cfg1;
  cfg1.jobs = 1;
  bs::ResultCache cache1(dir1 + "/CACHE.json");
  cache1.open();
  const bs::ServeResponse r1 =
      bs::execute_sweep(req, "rev", cache1, cfg1, reg1);
  ASSERT_EQ(r1.status, bs::ResponseStatus::Ok) << r1.error;
  EXPECT_EQ(r1.cache, bs::CacheDisposition::Miss);

  const std::string dir2 = scratch("jobs2");
  bs::ServeConfig cfg2;
  cfg2.jobs = 2;
  bs::ResultCache cache2(dir2 + "/CACHE.json");
  cache2.open();
  const bs::ServeResponse r2 =
      bs::execute_sweep(req, "rev", cache2, cfg2, reg2);
  ASSERT_EQ(r2.status, bs::ResponseStatus::Ok) << r2.error;

  // Same key, same bytes: requests served at any --jobs N share one
  // cache line and one record.
  EXPECT_EQ(r1.key, r2.key);
  EXPECT_EQ(r1.record, r2.record);

  // Re-issue against cache2 at yet another jobs value: a pure hit.
  bs::ServeConfig cfg4;
  cfg4.jobs = 4;
  const bs::ServeResponse r3 =
      bs::execute_sweep(req, "rev", cache2, cfg4, reg2);
  EXPECT_EQ(r3.cache, bs::CacheDisposition::Hit);
  EXPECT_EQ(r3.record, r1.record);
}

TEST(ExecuteSweep, DeadlineDegradesInsteadOfHangingAndBypassesTheCache) {
  bs::ServeRequest req;
  req.kind = bs::RequestKind::Sweep;
  req.scope = "quick";
  req.deadline_s = 1e-9;  // every cell exhausts this instantly
  obs::Registry reg;
  const std::string dir = scratch("deadline");
  bs::ServeConfig cfg;
  bs::ResultCache cache(dir + "/CACHE.json");
  cache.open();
  const bs::ServeResponse resp =
      bs::execute_sweep(req, "rev", cache, cfg, reg);
  // The sweep completes -- partial cells recorded, nothing hangs --
  // and reports its degradation instead of pretending success.
  EXPECT_TRUE(resp.status == bs::ResponseStatus::Degraded ||
              resp.status == bs::ResponseStatus::Failed)
      << bs::status_name(resp.status) << " " << resp.error;
  EXPECT_EQ(resp.cache, bs::CacheDisposition::Bypass);
  EXPECT_FALSE(resp.record.empty());
  // Bypass means bypass: nothing was committed.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ExecuteSweep, BadScopeComesBackAsErrorResponse) {
  bs::ServeRequest req;
  req.kind = bs::RequestKind::Sweep;
  req.scope = "enormous";
  obs::Registry reg;
  const std::string dir = scratch("badscope");
  bs::ServeConfig cfg;
  bs::ResultCache cache(dir + "/CACHE.json");
  cache.open();
  const bs::ServeResponse resp =
      bs::execute_sweep(req, "rev", cache, cfg, reg);
  EXPECT_EQ(resp.status, bs::ResponseStatus::Error);
  EXPECT_NE(resp.error.find("enormous"), std::string::npos) << resp.error;
}
