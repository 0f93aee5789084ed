#include "common.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "crypto/isa.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

Params::Params(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --key value, got " + key);
    }
    values_[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    throw std::invalid_argument("flag without a value: " +
                                std::string(argv[argc - 1]));
  }
}

std::string Params::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double Params::Num(const std::string& key) const {
  const std::string s = Str(key);
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument("bad number for --" + key);
  return v;
}

std::size_t Params::Size(const std::string& key) const {
  const double v = Num(key);
  if (v < 0 || v != static_cast<double>(static_cast<std::size_t>(v))) {
    throw std::invalid_argument("--" + key + " must be a whole number");
  }
  return static_cast<std::size_t>(v);
}

std::vector<double> Params::List(const std::string& key) const {
  std::vector<double> out;
  std::stringstream ss(Str(key));
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  if (out.empty()) throw std::invalid_argument("empty list for --" + key);
  return out;
}

void Result::Fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
  std::fflush(stdout);
}

std::string HostBlockJson() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"crypto_isa\": \"%s\", \"build_type\": "
                "\"%s\", \"compiler\": \"%s\", \"threads\": %u}",
                sysconf(_SC_NPROCESSORS_ONLN),
                caltrain::crypto::ActiveIsaSummary(), PERFBENCH_BUILD_TYPE,
                __VERSION__, caltrain::util::Parallelism::threads());
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string FileSystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "fs-0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

ScratchDir::ScratchDir(const RunContext& ctx, const std::string& tag) {
  static int counter = 0;
  path_ = ctx.out_dir + "/" + tag + "-" + std::to_string(getpid()) + "-" +
          std::to_string(counter++);
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
