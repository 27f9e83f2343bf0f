#include "cli_run.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <streambuf>

#include "cli/cli.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// An unbuffered stream buffer that keeps everything written to it and
// timestamps the end of each line that starts with `prefix` (every line when
// prefix is 0), so the caller learns when each line left the program.
class StampedBuf : public std::streambuf {
 public:
  StampedBuf(Clock::time_point start, char prefix)
      : start_(start), prefix_(prefix) {}

  struct Stamp {
    size_t line_start;
    double seconds;
  };
  const std::string& text() const { return text_; }
  const std::vector<Stamp>& stamps() const { return stamps_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      char c = traits_type::to_char_type(ch);
      Append(&c, 1);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    Append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  void Append(const char* s, size_t n) {
    const size_t begin = text_.size();
    text_.append(s, n);
    for (size_t i = begin; i < text_.size(); ++i) {
      if (text_[i] != '\n') continue;
      if (prefix_ == 0 || text_[line_start_] == prefix_) {
        stamps_.push_back(
            {line_start_,
             std::chrono::duration<double>(Clock::now() - start_).count()});
      }
      line_start_ = i + 1;
    }
  }

  Clock::time_point start_;
  char prefix_;
  std::string text_;
  std::vector<Stamp> stamps_;
  size_t line_start_ = 0;
};

// Reads "key=<integer>" from a stats line; -1 when absent.
long long Field(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + key.size() + 2);
}

// Reads the count in "key=<seconds>s (<count>)"; -1 when absent.
long long Count(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return -1;
  const size_t open = line.find('(', at);
  return open == std::string::npos ? -1 : std::atoll(line.c_str() + open + 1);
}

bool ParseStats(const std::string& err, CliStats* stats) {
  std::istringstream in(err);
  std::string line;
  bool graph = false, init = false, tier = false;
  while (std::getline(in, line)) {
    if (line.rfind("graph:", 0) == 0) {
      stats->n = Field(line, "n");
      stats->m = Field(line, "m");
      graph = true;
    } else if (line.rfind("init:", 0) == 0) {
      stats->minseps = Count(line, "minseps");
      stats->pmcs = Count(line, "pmcs");
      init = true;
    } else if (line.rfind("tier[", 0) == 0) {
      std::istringstream fields(line);
      std::string mode;
      fields >> mode >> stats->tier;
      stats->atoms = Field(line, "atoms");
      stats->reduced_vertices = Field(line, "reduced_vertices");
      stats->ms_terminated = Field(line, "ms_terminated");
      stats->pmc_terminated = Field(line, "pmc_terminated");
      tier = true;
    }
  }
  return graph && init && tier && stats->ms_terminated >= 0 &&
         stats->pmc_terminated >= 0;
}

double ProcessPeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // kB on Linux
}

}  // namespace

CliRun RunRank(const std::string& graph_text, long long k) {
  const std::vector<std::string> args = {
      "rank",        "--cost=width", "--tier=auto",
      "--threads=1", "--format=td",  "--stats",
      "--top=" + std::to_string(k)};
  std::istringstream in(graph_text);

  const Clock::time_point start = Clock::now();
  StampedBuf out_buf(start, 'c');
  StampedBuf err_buf(start, 0);
  std::ostream out(&out_buf);
  std::ostream err(&err_buf);
  CliRun run;
  run.exit_code = mintri::RunCli(args, in, out, err);

  run.process_peak_rss_mb = ProcessPeakRssMb();
  run.out = out_buf.text();
  run.err = err_buf.text();
  for (const auto& stamp : out_buf.stamps()) {
    run.result_s.push_back(stamp.seconds);
  }
  run.setup_s = -1;
  for (const auto& stamp : err_buf.stamps()) {
    if (run.err.compare(stamp.line_start, 6, "graph:") == 0) {
      run.setup_s = stamp.seconds;
    }
  }
  run.stats_ok = ParseStats(run.err, &run.stats) && run.setup_s >= 0;
  return run;
}

}  // namespace perfbench
