//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double relativeIqr(std::vector<double> V) {
  double Med = quantile(V, 0.5);
  if (Med == 0)
    return 0;
  return (quantile(V, 0.75) - quantile(V, 0.25)) / std::fabs(Med);
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

uint64_t hashText(std::string_view Bytes) {
  uint64_t H = 0x9e3779b97f4a7c15ull ^ Bytes.size();
  auto Mix = [&H](uint64_t W) {
    H = (H ^ W) * 0xff51afd7ed558ccdull;
    H ^= H >> 32;
  };
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Bytes.data() + I, 8);
    Mix(W);
  }
  uint64_t Tail = 0;
  std::memcpy(&Tail, Bytes.data() + I, Bytes.size() - I);
  Mix(Tail ^ 0xa5);
  return H;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void Result::add(std::string Name, double Value, std::string Unit,
                 std::vector<double> Samples, std::string Note) {
  Metrics.push_back(
      {std::move(Name), Value, std::move(Unit), std::move(Samples),
       std::move(Note)});
}

void Result::fail(std::string What) {
  ++Failed;
  if (Mismatches.size() < 8)
    Mismatches.push_back(std::move(What));
}

//===----------------------------------------------------------------------===//
// Child-process reference computation
//===----------------------------------------------------------------------===//

namespace {
bool writeAll(int Fd, const char *P, size_t N) {
  while (N) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    P += W;
    N -= size_t(W);
  }
  return true;
}
} // namespace

std::vector<uint64_t>
runInChild(const std::function<std::vector<uint64_t>()> &Work) {
  int Fds[2];
  if (::pipe(Fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(2);
  }
  std::fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::perror("perfbench: fork");
    std::exit(2);
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    std::vector<uint64_t> Out = Work();
    uint64_t N = Out.size();
    bool Ok = writeAll(Fds[1], reinterpret_cast<const char *>(&N), sizeof N) &&
              writeAll(Fds[1], reinterpret_cast<const char *>(Out.data()),
                       Out.size() * sizeof(uint64_t));
    std::fflush(nullptr);
    ::_exit(Ok ? 0 : 3);
  }
  ::close(Fds[1]);
  std::string Bytes;
  char Buf[1 << 16];
  for (;;) {
    ssize_t R = ::read(Fds[0], Buf, sizeof Buf);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      break;
    Bytes.append(Buf, size_t(R));
  }
  ::close(Fds[0]);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  uint64_t N = 0;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      Bytes.size() < sizeof N) {
    std::fprintf(stderr, "perfbench: reference computation failed\n");
    std::exit(2);
  }
  std::memcpy(&N, Bytes.data(), sizeof N);
  if (Bytes.size() != sizeof N + N * sizeof(uint64_t)) {
    std::fprintf(stderr, "perfbench: truncated reference data\n");
    std::exit(2);
  }
  std::vector<uint64_t> Out(N);
  std::memcpy(Out.data(), Bytes.data() + sizeof N, N * sizeof(uint64_t));
  return Out;
}

//===----------------------------------------------------------------------===//
// Host stamp
//===----------------------------------------------------------------------===//

namespace {
/// A fixed amount of dependent integer work the optimizer cannot fold.
uint64_t spin(uint64_t Seed) {
  uint64_t X = Seed | 1;
  for (int I = 0; I < 30'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}
} // namespace

HostStamp probeHost() {
  HostStamp H;
  H.VCpus = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  H.Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  H.Compiler = "gcc " __VERSION__;
#else
  H.Compiler = "unknown";
#endif
  H.BuildType = PERFBENCH_BUILD_TYPE;

  std::atomic<uint64_t> Sink{0};
  auto T0 = Clock::now();
  Sink += spin(1);
  H.SpinSingleS = secondsSince(T0);

  T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < H.VCpus; ++I)
    Threads.emplace_back([&Sink, I] { Sink += spin(I + 2); });
  for (std::thread &T : Threads)
    T.join();
  H.SpinAllCoreS = secondsSince(T0);
  H.ScalingFactor =
      H.SpinAllCoreS > 0 ? H.SpinSingleS * H.VCpus / H.SpinAllCoreS : 0;
  if (Sink.load() == 42)
    std::printf(" ");
  return H;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

int emitResult(const Options &O, const HostStamp &H, Result &R) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0);
  std::printf("host: vcpus=%u compiler=\"%s\" build=%s spin_single_s=%.4f "
              "spin_allcore_s=%.4f scaling=%.2f/%u\n",
              H.VCpus, H.Compiler.c_str(), H.BuildType.c_str(), H.SpinSingleS,
              H.SpinAllCoreS, H.ScalingFactor, H.VCpus);
  for (const std::string &N : R.Notes)
    std::printf("note: %s\n", N.c_str());
  std::printf("%-36s %14s %-8s %8s %9s %s\n", "metric", "value", "unit", "n",
              "iqr/med", "");
  for (const Metric &M : R.Metrics) {
    std::printf("%-36s %14.6g %-8s %8zu %8.1f%% %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples.size(),
                M.Samples.size() > 1 ? 100 * relativeIqr(M.Samples) : 0.0,
                M.Note.c_str());
  }
  double FailedFrac =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0;
  std::printf("failed_frac: %.6g (%lld of %lld operations)\n", FailedFrac,
              (long long)R.Failed, (long long)R.Attempted);
  for (const std::string &M : R.Mismatches)
    std::printf("mismatch: %s\n", M.c_str());

  std::string J = "{\"correct\": ";
  J += R.correct() ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::snprintf(Buf, sizeof Buf, "%.17g", V);
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return R.correct() ? 0 : 1;
}

} // namespace perfbench
