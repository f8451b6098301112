// idseval_cli option checking: each command declares the options it
// reads, and any other --name exits 2 with a message naming it, before
// the command does any work. A misspelt or retired flag must never be
// accepted silently.
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct CliRun {
  int status = -1;
  std::string output;  ///< stdout and stderr, interleaved.
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(IDSEVAL_CLI) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int raw = pclose(pipe);
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

TEST(CliOptionsTest, UnknownFlagIsRejected) {
  const CliRun run = run_cli("products --no-such-flag");
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.output.find("error: unknown option --no-such-flag for "
                            "products"),
            std::string::npos)
      << run.output;
}

TEST(CliOptionsTest, MisspeltOptionIsRejectedBeforeAnyWork) {
  // --shard (for --shards) used to be ignored, and the evaluation ran.
  const CliRun run = run_cli("evaluate --product SentryNID --shard 2");
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.output.find("error: unknown option --shard for evaluate"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("evaluating"), std::string::npos) << run.output;
}

TEST(CliOptionsTest, OptionOfAnotherCommandIsRejected) {
  const CliRun run = run_cli("sweep --product SentryNID --jobs 2");
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.output.find("error: unknown option --jobs for sweep"),
            std::string::npos)
      << run.output;
}

TEST(CliOptionsTest, DeclaredOptionsAreAccepted) {
  EXPECT_EQ(run_cli("products").status, 0);
  EXPECT_EQ(run_cli("catalog Lethal").status, 0);
  const std::string csv =
      ::testing::TempDir() + "idseval_cli_options_test.csv";
  {
    std::ofstream out(csv);
    out << "a,b\n1,2\n";
  }
  const CliRun run = run_cli("trace-check --csv " + csv + " --expect-rows 1");
  EXPECT_EQ(run.status, 0) << run.output;
  std::remove(csv.c_str());
}

TEST(CliOptionsTest, MalformedNumbersNameTheOptionAndValue) {
  // Every rejected value exits 2 before the command starts: no
  // "evaluating" banner, no campaign store, no trace read.
  const struct {
    const char* args;
    const char* message;
  } cases[] = {
      {"evaluate --product SentryNID --seed abc",
       "error: --seed: expected a non-negative integer, got 'abc'"},
      {"rank --jobs -1",
       "error: --jobs: expected a non-negative integer, got '-1'"},
      {"evaluate --product SentryNID --shards 2x",
       "error: --shards: expected a non-negative integer, got '2x'"},
      {"sweep --product SentryNID --steps 1.5",
       "error: --steps: expected a non-negative integer, got '1.5'"},
      {"sweep --product SentryNID --seed 99999999999999999999",
       "error: --seed: expected a non-negative integer, got "
       "'99999999999999999999'"},
      {"evaluate --product SentryNID --sensitivity -0.5",
       "error: --sensitivity: expected a non-negative number, got '-0.5'"},
      {"rank --sensitivity nan",
       "error: --sensitivity: expected a non-negative number, got 'nan'"},
      {"campaign --spec no-such.spec --jobs",
       "error: --jobs: expected a non-negative integer, got ''"},
      {"trace-check --csv no-such.csv --expect-rows ' 3'",
       "error: --expect-rows: expected a non-negative integer, got ' 3'"},
  };
  for (const auto& c : cases) {
    const CliRun run = run_cli(c.args);
    EXPECT_EQ(run.status, 2) << c.args << "\n" << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.args << "\n" << run.output;
    EXPECT_EQ(run.output.find("evaluating"), std::string::npos) << c.args;
  }
}

TEST(CliOptionsTest, TraceCheckRejectsDeeplyNestedJson) {
  // One line of a million '[' once overflowed the parser's stack; it is
  // now an ordinary invalid line.
  const std::string path =
      ::testing::TempDir() + "idseval_cli_deep_nesting.jsonl";
  {
    std::ofstream out(path);
    out << std::string(1'000'000, '[') << "\n";
  }
  const CliRun run = run_cli("trace-check " + path);
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_NE(run.output.find("line 1 is not valid JSON"), std::string::npos)
      << run.output;
  std::remove(path.c_str());
}

TEST(CliOptionsTest, UnknownCommandPrintsUsage) {
  const CliRun run = run_cli("no-such-command");
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.output.find("usage: idseval_cli"), std::string::npos)
      << run.output;
}

}  // namespace
