//===- perfbench/perfbench.cpp - Host-time benchmark ----------------------===//
//
// Part of the SuperPin reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Measures the host seconds a user waits for, on one named workload:
//
//   perfbench --workload gcc_live --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each was chosen):
//   gcc_live     gcc under icount1, live sp::runSuperPin
//   mcf_live     mcf under icount1, live sp::runSuperPin
//   swim_replay  swim captured under icount2 in set-up, then every
//                repetition decodes the log and replays it under opcodemix
//
// --trace 0 prints the end-to-end metrics from untraced runs; --trace 1
// prints the per-layer metrics from a traced run, records a span around
// every call into a layer's public function, and writes the spans to
// --spans PATH when the run ends. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Every instrumented run is checked against references computed
// independently (pin::runNative and pin::runSerialPin). A mismatch counts as
// a failed run and the program exits 1. --wrong-reference 1 corrupts the
// expected guest output on purpose, to prove the check can fail.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Passes.h"
#include "obs/HostTraceRecorder.h"
#include "os/Process.h"
#include "pin/Compiler.h"
#include "pin/Runner.h"
#include "prof/Profile.h"
#include "replay/CaptureWriter.h"
#include "replay/Log.h"
#include "replay/ReplayEngine.h"
#include "superpin/Engine.h"
#include "support/Json.h"
#include "support/RawOstream.h"
#include "tools/Icount.h"
#include "tools/OpcodeMix.h"
#include "workloads/Spec2000.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace spin;
using Clock = std::chrono::steady_clock;

namespace {

// --- Build fingerprint --------------------------------------------------

#ifdef NDEBUG
constexpr bool AssertsEnabled = false;
#else
constexpr bool AssertsEnabled = true;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif
#else
constexpr bool Sanitized = false;
#endif

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

// --- Timing helpers -----------------------------------------------------

/// Receives the guest-memory read loop's result so the loads stay live.
volatile uint64_t ReadSink = 0;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// End-to-end timings report the fastest repetition of a run, with the
/// median beside it on the human-readable lines. The hosts this runs on are
/// shared: neighbours slow even a plain CPU loop 2x for seconds at a time,
/// and the share of slowed repetitions changes from run to run. Measured
/// over five seeds of swim_replay, the per-run median moved by up to 27%
/// between runs while the fastest repetition moved by at most 8%.
double fastest(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

/// Most repetitions repeat() makes: enough for a steady median of a
/// microsecond-scale call without flooding the span log.
constexpr unsigned MaxReps = 200;

/// Runs \p Body until it has run at least \p MinReps times and \p MinSeconds
/// have passed (or MaxReps times); returns each repetition's host seconds.
template <typename Fn>
std::vector<double> repeat(unsigned MinReps, double MinSeconds, Fn Body) {
  std::vector<double> Times;
  Clock::time_point Start = Clock::now();
  while (Times.size() < MinReps ||
         (Times.size() < MaxReps &&
          secondsBetween(Start, Clock::now()) < MinSeconds)) {
    Clock::time_point T0 = Clock::now();
    Body(static_cast<unsigned>(Times.size()));
    Times.push_back(secondsBetween(T0, Clock::now()));
  }
  return Times;
}

// --- Spans --------------------------------------------------------------

/// In-memory span log of the traced run: one span per call into a layer's
/// public function, with its parent span and the repetition it belongs to.
/// Disabled (every call a no-op) in untraced runs.
class SpanLog {
public:
  static constexpr size_t None = ~size_t(0);

  explicit SpanLog(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  size_t open(std::string Name, uint64_t Rep) {
    if (!Enabled)
      return None;
    Spans.push_back({std::move(Name), nowNs(), 0,
                     Stack.empty() ? None : Stack.back(), Rep});
    Stack.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }

  void close(size_t Idx) {
    if (Idx == None)
      return;
    Spans[Idx].EndNs = nowNs();
    Stack.pop_back();
  }

  /// Self time: the span minus the time its direct children cover
  /// (children of one span never overlap: the benchmark is one thread).
  std::vector<uint64_t> selfNs() const {
    std::vector<uint64_t> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = Spans[I].EndNs - Spans[I].StartNs;
    for (const Span &S : Spans)
      if (S.Parent != None)
        Self[S.Parent] -= S.EndNs - S.StartNs;
    return Self;
  }

  /// Writes every span plus per-name self-time totals as JSON.
  bool write(const std::string &Path, const std::string &Workload,
             uint64_t Seed) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::vector<uint64_t> Self = selfNs();
    std::map<std::string, uint64_t> SelfByName;
    {
      RawFdOstream OS(F);
      JsonWriter J(OS);
      J.beginObject().field("workload", Workload).field("seed", Seed);
      J.key("spans").beginArray();
      for (size_t I = 0; I != Spans.size(); ++I) {
        const Span &S = Spans[I];
        SelfByName[S.Name] += Self[I];
        J.beginObject()
            .field("id", uint64_t(I))
            .field("name", S.Name)
            .field("start_ns", S.StartNs)
            .field("end_ns", S.EndNs)
            .field("parent", S.Parent == None ? int64_t(-1) : int64_t(S.Parent))
            .field("rep", S.Rep)
            .field("self_ns", Self[I])
            .endObject();
      }
      J.endArray().key("self_ns_by_name").beginObject();
      for (const auto &[Name, Ns] : SelfByName)
        J.field(Name, Ns);
      J.endObject().endObject();
      OS << "\n";
      OS.flush();
    }
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    size_t Parent = None;
    uint64_t Rep = 0;
  };

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }

  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
};

/// Runs \p Body inside span \p Name and returns its host seconds.
template <typename Fn>
double timed(SpanLog &Log, const char *Name, uint64_t Rep, Fn &&Body) {
  size_t Idx = Log.open(Name, Rep);
  Clock::time_point T0 = Clock::now();
  Body();
  double S = secondsBetween(T0, Clock::now());
  Log.close(Idx);
  return S;
}

// --- Workloads ----------------------------------------------------------

struct WorkloadDef {
  const char *Name;
  const char *Suite; ///< workloads::spec2000Suite() entry
  bool Replay;
};

// The tool of live workloads is icount1; swim_replay captures under icount2
// and replays under opcodemix, so replay runs a different tool than the one
// that shaped the capture. dcache is deliberately absent: its `reconciled`
// line legitimately differs between SuperPin and serial Pin, so its fini
// could not be checked against serial Pin.
constexpr WorkloadDef Workloads[] = {
    {"gcc_live", "gcc", false},
    {"mcf_live", "mcf", false},
    {"swim_replay", "swim", true},
};

/// Workload scale (workloads::buildWorkload's duration scale):
/// superpin_run's default, and the scale of the superpin_run host-seconds
/// table in ROADMAP.md that this benchmark supersedes. Peak memory grows
/// with it (mcf_live: 0.33 GiB at 0.3, 1.2 GiB at 1, 3.5 GiB at 3).
/// README.md gives the measurements behind the choice.
constexpr double Scale = 0.3;
/// superpin_run's defaults for the slice knobs.
constexpr uint64_t SliceMs = 100;
constexpr uint32_t MaxSlices = 8;
/// Closed loop: at least this many timed rounds, however short --seconds.
/// Otherwise rounds repeat until --seconds after the process started, so
/// set-up, references and warm-ups come out of the same budget and a run
/// lasts about --seconds.
constexpr unsigned MinRounds = 3;
/// run_s repetitions per round. The multi-threaded run spreads the most
/// from repetition to repetition, so it gets more samples than the
/// single-threaded configurations.
constexpr unsigned RunRepsPerRound = 2;

/// Tool results published at fini, read back by the output check.
struct Probe {
  std::shared_ptr<tools::IcountResult> Icount =
      std::make_shared<tools::IcountResult>();
  std::shared_ptr<tools::OpcodeMixResult> Mix =
      std::make_shared<tools::OpcodeMixResult>();
};

// --- Output check -------------------------------------------------------

/// What every run must reproduce, computed once from runNative and
/// runSerialPin.
struct Reference {
  std::string Output;
  int ExitCode = 0;
  uint64_t Insts = 0;
  os::Ticks NativeWall = 0;
  std::string Fini;
  /// Virtual WallTicks of the first 0-worker run; every later run at any
  /// worker count must match it.
  os::Ticks RunWall = 0;
};

class Checker {
public:
  /// Counts one checked run; \p Problems lists what it got wrong.
  void record(const char *Run, const std::vector<std::string> &Problems) {
    ++Attempted;
    if (Problems.empty())
      return;
    ++Failed;
    if (Failed <= 5)
      for (const std::string &P : Problems)
        std::fprintf(stderr, "check failed: %s: %s\n", Run, P.c_str());
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Compares a run's virtual WallTicks against the 0-worker reference, or
/// sets the reference when this is the first 0-worker run.
void checkWall(Reference &Ref, os::Ticks Wall, unsigned Workers,
               std::vector<std::string> &Problems) {
  if (Workers == 0 && Ref.RunWall == 0)
    Ref.RunWall = Wall;
  else if (Wall != Ref.RunWall)
    Problems.push_back("virtual WallTicks " + std::to_string(Wall) +
                       " differ from the 0-worker run's " +
                       std::to_string(Ref.RunWall));
}

std::vector<std::string> checkLive(const sp::SpRunReport &Rep, uint64_t Total,
                                   unsigned Workers, Reference &Ref) {
  std::vector<std::string> P;
  if (Rep.Output != Ref.Output || Rep.ExitCode != Ref.ExitCode)
    P.push_back("guest output differs from runNative's");
  if (Total != Ref.Insts)
    P.push_back("icount1 total " + std::to_string(Total) +
                " != runNative's " + std::to_string(Ref.Insts));
  if (Rep.FiniOutput != Ref.Fini)
    P.push_back("fini output differs from runSerialPin's");
  if (!Rep.PartitionOk)
    P.push_back("slice windows do not partition the master exactly");
  checkWall(Ref, Rep.WallTicks, Workers, P);
  return P;
}

std::vector<std::string> checkSerial(const pin::RunReport &Rep,
                                     uint64_t Total, const Reference &Ref) {
  std::vector<std::string> P;
  if (Rep.Output != Ref.Output || Rep.ExitCode != Ref.ExitCode)
    P.push_back("guest output differs from runNative's");
  if (Rep.Insts != Ref.Insts || Total != Ref.Insts)
    P.push_back("retired/tool instruction count differs from runNative's");
  if (Rep.FiniOutput != Ref.Fini)
    P.push_back("fini output differs from the reference serial run");
  return P;
}

std::vector<std::string> checkReplay(const replay::RunCapture &Cap,
                                     const replay::ReplayReport &Rep,
                                     uint64_t Total, unsigned Workers,
                                     Reference &Ref) {
  std::vector<std::string> P;
  if (Cap.Output != Ref.Output || Cap.ExitCode != Ref.ExitCode)
    P.push_back("captured guest output differs from runNative's");
  if (Rep.ParityFailed != 0 || Rep.SlicesReplayed != Cap.Slices.size() ||
      Rep.ParityOk != Rep.SlicesReplayed)
    P.push_back(std::to_string(Rep.ParityFailed) + " of " +
                std::to_string(Rep.SlicesReplayed) + " slices failed parity");
  if (Total != Ref.Insts)
    P.push_back("opcodemix total " + std::to_string(Total) +
                " != runNative's " + std::to_string(Ref.Insts));
  if (Rep.FiniOutput != Ref.Fini)
    P.push_back("opcodemix fini differs from runSerialPin's");
  checkWall(Ref, Rep.WallTicks, Workers, P);
  return P;
}

// --- Metrics ------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< human-readable only (repetition count, source)
};

/// Prints \p V with every digit it was measured with (the shortest form
/// that reads back as the same double); JsonWriter rounds doubles to six
/// decimals, which would flatten microsecond timings.
void printJsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  std::fwrite(Buf, 1, static_cast<size_t>(R.ptr - Buf), stdout);
}

// --- The benchmark ------------------------------------------------------

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  bool WrongReference = false;
  std::string SpansPath;
};

class Bench {
public:
  Bench(const Options &O, const WorkloadDef &Def)
      : O(O), Def(Def), Info(workloads::findWorkload(Def.Suite)),
        Workers(std::max(1u, hostCpus() - 1)), Log(O.Trace),
        Start(Clock::now()) {
    // The seed reaches the program only through its generated input.
    Info.Params.Seed = O.Seed;
    InstCost = static_cast<os::Ticks>(
        std::llround(Info.Cpi * static_cast<double>(Model.TicksPerInst)));
  }

  int run();

private:
  const Options &O;
  const WorkloadDef &Def;
  workloads::WorkloadInfo Info;
  unsigned Workers;
  SpanLog Log;
  Clock::time_point Start;
  os::CostModel Model;
  os::Ticks InstCost = 0;
  Probe Tool;
  Checker Check;
  Reference Ref;
  std::vector<Metric> Metrics;

  // Host seconds of every set-up and of its parts.
  std::vector<double> SetupT, BuildT, CaptureT, EncodeT;

  vm::Program Prog;
  // swim_replay: the encoded capture and the live run that produced it.
  std::vector<uint8_t> LogBytes;
  sp::SpRunReport CaptureRep;
  uint64_t CaptureIcount = 0;

  void add(std::string Name, double Value, std::string Unit,
           std::string Note = "") {
    Metrics.push_back({std::move(Name), Value, std::move(Unit),
                       std::move(Note)});
  }
  static std::string reps(const std::vector<double> &T) {
    return "median of " + std::to_string(T.size());
  }
  static std::string best(const std::vector<double> &T) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "fastest of %zu, median %.6g s",
                  T.size(), median(T));
    return Buf;
  }

  pin::ToolFactory runTool() {
    return Def.Replay ? tools::makeOpcodeMixTool(Tool.Mix)
                      : tools::makeIcountTool(
                            tools::IcountGranularity::Instruction,
                            Tool.Icount);
  }
  uint64_t toolTotal() const {
    return Def.Replay ? Tool.Mix->total() : Tool.Icount->Total;
  }
  void resetTool() {
    Tool.Icount->Total = 0;
    Tool.Mix->Counts.fill(0);
  }

  sp::SpOptions liveOptions(unsigned HostWorkers) const {
    sp::SpOptions Opts;
    Opts.SliceMs = SliceMs;
    Opts.MaxSlices = MaxSlices;
    Opts.HostWorkers = HostWorkers;
    Opts.Cpi = Info.Cpi;
    return Opts;
  }

  bool moreRounds(uint64_t Round) const {
    return Round <= MinRounds ||
           secondsBetween(Start, Clock::now()) < O.Seconds;
  }

  void setupOnce(uint64_t Rep);
  void reference();
  void endToEnd();
  void layers();

  // One checked repetition of each timed configuration; each returns the
  // host seconds of the timed call(s) only.
  double runLive(unsigned HostWorkers, uint64_t Rep,
                 obs::HostTraceRecorder *HostTrace = nullptr,
                 prof::ProfileCollector *Profile = nullptr,
                 sp::SpRunReport *Out = nullptr);
  double runReplay(unsigned HostWorkers, uint64_t Rep,
                   obs::HostTraceRecorder *HostTrace = nullptr,
                   prof::ProfileCollector *Profile = nullptr,
                   replay::ReplayReport *Out = nullptr,
                   double *DecodeSeconds = nullptr);
  double runSerial(uint64_t Rep, pin::RunReport *Out = nullptr);
  double runMain(unsigned HostWorkers, uint64_t Rep) {
    return Def.Replay ? runReplay(HostWorkers, Rep)
                      : runLive(HostWorkers, Rep);
  }

  void memoryLayers();
  void pinLayers();
};

/// One set-up: builds the program and, for swim_replay, captures and encodes
/// it. Both are deterministic in the seed, so each set-up reproduces the
/// same program and log and simply replaces the previous ones.
void Bench::setupOnce(uint64_t Rep) {
  SetupT.push_back(timed(Log, "setup", Rep, [&] {
    BuildT.push_back(timed(Log, "workloads.buildWorkload", Rep, [&] {
      Prog = workloads::buildWorkload(Info, Scale);
    }));
    if (!Def.Replay)
      return;
    // Captured under icount2 at the worker count users run with; replay
    // later runs a different tool.
    auto Icount2 = std::make_shared<tools::IcountResult>();
    replay::CaptureWriter Writer;
    sp::SpOptions Opts = liveOptions(Workers);
    Opts.Capture = &Writer;
    CaptureT.push_back(timed(Log, "replay.capture", Rep, [&] {
      CaptureRep = sp::runSuperPin(
          Prog,
          tools::makeIcountTool(tools::IcountGranularity::BasicBlock, Icount2),
          Opts, Model);
    }));
    CaptureIcount = Icount2->Total;
    EncodeT.push_back(timed(Log, "replay.encodeCapture", Rep, [&] {
      LogBytes = replay::encodeCapture(Writer.capture());
    }));
  }));
}

void Bench::reference() {
  pin::RunReport Native;
  timed(Log, "pin.runNative", 0,
        [&] { Native = pin::runNative(Prog, Model, InstCost); });
  Ref.Output = Native.Output;
  Ref.ExitCode = Native.ExitCode;
  Ref.Insts = Native.Insts;
  Ref.NativeWall = Native.WallTicks;
  resetTool();
  pin::RunReport Serial;
  timed(Log, "pin.runSerialPin", 0, [&] {
    Serial = pin::runSerialPin(Prog, Model, InstCost, runTool());
  });
  Ref.Fini = Serial.FiniOutput;
  Check.record("reference serial Pin", checkSerial(Serial, toolTotal(), Ref));
  if (O.WrongReference)
    Ref.Output += "(deliberately wrong)";
  if (Def.Replay) {
    std::vector<std::string> P;
    if (CaptureRep.Output != Ref.Output || !CaptureRep.PartitionOk)
      P.push_back("capture run output or partition is wrong");
    if (CaptureIcount != Ref.Insts)
      P.push_back("capture icount2 total differs from runNative's");
    Check.record("capture", P);
  }
}

double Bench::runLive(unsigned HostWorkers, uint64_t Rep,
                      obs::HostTraceRecorder *HostTrace,
                      prof::ProfileCollector *Profile,
                      sp::SpRunReport *Out) {
  sp::SpOptions Opts = liveOptions(HostWorkers);
  Opts.HostTrace = HostTrace;
  Opts.Profile = Profile;
  pin::ToolFactory Factory = runTool();
  resetTool();
  sp::SpRunReport Rep0;
  double S = timed(Log, "superpin.runSuperPin", Rep, [&] {
    Rep0 = sp::runSuperPin(Prog, Factory, Opts, Model);
  });
  Check.record(HostWorkers ? "live run" : "live run (0 workers)",
               checkLive(Rep0, toolTotal(), HostWorkers, Ref));
  if (Out)
    *Out = std::move(Rep0);
  return S;
}

double Bench::runReplay(unsigned HostWorkers, uint64_t Rep,
                        obs::HostTraceRecorder *HostTrace,
                        prof::ProfileCollector *Profile,
                        replay::ReplayReport *Out, double *DecodeSeconds) {
  pin::ToolFactory Factory = runTool();
  resetTool();
  std::optional<replay::RunCapture> Cap;
  replay::ReplayReport Rep0;
  double Decode = 0;
  double S = timed(Log, "replay.run", Rep, [&] {
    Decode = timed(Log, "replay.decodeCapture", Rep,
                   [&] { Cap = replay::decodeCapture(LogBytes); });
    if (!Cap)
      return;
    replay::ReplayEngine Engine(*Cap, Model);
    Engine.setHostWorkers(HostWorkers);
    Engine.setHostTrace(HostTrace);
    Engine.setProfile(Profile);
    timed(Log, "replay.replayAll", Rep,
          [&] { Rep0 = Engine.replayAll(Factory); });
  });
  if (!Cap)
    Check.record("replay", {"the encoded capture failed to decode"});
  else
    Check.record(HostWorkers ? "replay" : "replay (0 workers)",
                 checkReplay(*Cap, Rep0, toolTotal(), HostWorkers, Ref));
  if (DecodeSeconds)
    *DecodeSeconds = Decode;
  if (Out)
    *Out = std::move(Rep0);
  return S;
}

double Bench::runSerial(uint64_t Rep, pin::RunReport *Out) {
  pin::ToolFactory Factory = runTool();
  resetTool();
  pin::RunReport Rep0;
  double S = timed(Log, "pin.runSerialPin", Rep, [&] {
    Rep0 = pin::runSerialPin(Prog, Model, InstCost, Factory);
  });
  Check.record("serial Pin", checkSerial(Rep0, toolTotal(), Ref));
  if (Out)
    *Out = std::move(Rep0);
  return S;
}

void Bench::endToEnd() {
  // Untimed warm-up of every configuration; the 0-worker run goes first
  // because it fixes the virtual WallTicks every later run must match.
  runMain(0, 0);
  runMain(Workers, 0);
  runSerial(0);

  std::vector<double> Run, RunSim, Pin;
  for (uint64_t Round = 1; moreRounds(Round); ++Round) {
    // Set-up samples are spread over the whole run, like the run samples,
    // so both see the same host conditions.
    repeat(1, 0.02, [&](unsigned) { setupOnce(Round); });
    for (unsigned K = 0; K != RunRepsPerRound; ++K)
      Run.push_back(runMain(Workers, Round));
    RunSim.push_back(runMain(0, Round));
    Pin.push_back(runSerial(Round));
  }
  add("run_s", fastest(Run), "s",
      best(Run) + ", " + std::to_string(Workers) + " host workers");
  add("run_sim_s", fastest(RunSim), "s", best(RunSim) + ", 0 host workers");
  add("pin_run_s", fastest(Pin), "s", best(Pin) + ", serial Pin");
  add("setup_s", fastest(SetupT), "s", best(SetupT));
}

/// vm and os layers: guest-memory accesses, fork and first-write COW
/// copies over the workload's working set, measured on the public
/// Process/GuestMemory API.
void Bench::memoryLayers() {
  const workloads::GenParams &P = Info.Params;
  const uint64_t Base = vm::AddressLayout::DataBase;
  const uint64_t Pages = P.WorkingSetBytes / vm::PageSize;
  const uint64_t WordMask = P.WorkingSetBytes / 8 - 1;
  const unsigned StoreEvery = P.StoreEvery ? P.StoreEvery : 1;
  os::Process Parent = os::Process::create(Prog);
  for (uint64_t Pg = 0; Pg != Pages; ++Pg)
    Parent.Mem.write64(Base + Pg * vm::PageSize, Pg);

  constexpr uint64_t Accesses = 1 << 20;
  uint64_t Sink = 0;
  std::vector<double> Mem = repeat(5, 0.3, [&](unsigned Rep) {
    vm::GuestMemory Child = Parent.Mem.fork();
    timed(Log, "vm.GuestMemory.access", Rep, [&] {
      uint64_t X = O.Seed | 1;
      for (uint64_t I = 0; I != Accesses; ++I) {
        X = X * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t Addr = Base + ((X >> 17) & WordMask) * 8;
        if (I % StoreEvery == StoreEvery - 1)
          Child.write64(Addr, X);
        else
          Sink += Child.read64(Addr);
      }
    });
  });
  add("vm.mem_ns_per_access", median(Mem) * 1e9 / double(Accesses), "ns",
      reps(Mem) + " over the working set, 1 store in " +
          std::to_string(StoreEvery));

  std::vector<double> Fork, Cow;
  repeat(5, 0.3, [&](unsigned Rep) {
    std::optional<os::Process> Child;
    Fork.push_back(timed(Log, "os.Process.fork", Rep,
                         [&] { Child.emplace(Parent.fork(2)); }));
    Cow.push_back(timed(Log, "os.cowFirstWrite", Rep, [&] {
      for (uint64_t Pg = 0; Pg != Pages; ++Pg)
        Child->Mem.write64(Base + Pg * vm::PageSize + 8, Pg);
    }));
  });
  add("os.fork_us", median(Fork) * 1e6, "us",
      reps(Fork) + ", " + std::to_string(Pages) + " materialized pages");
  add("os.cow_copy_us", median(Cow) * 1e6 / double(Pages), "us",
      reps(Cow) + ", per page");
  ReadSink = Sink;
}

/// pin layer: compile a trace at every reachable CFG block leader with the
/// workload's tool, then destroy them (code-cache teardown).
void Bench::pinLayers() {
  analysis::Cfg G = analysis::buildCfg(Prog);
  std::vector<uint64_t> Leaders = G.reachableLeaderPcs();
  pin::SpServices Services;
  std::unique_ptr<pin::Tool> T = runTool()(Services);
  std::vector<double> Compile, Free;
  repeat(3, 0.3, [&](unsigned Rep) {
    std::vector<std::unique_ptr<pin::CompiledTrace>> Traces;
    Traces.reserve(Leaders.size());
    Compile.push_back(timed(Log, "pin.compileTrace", Rep, [&] {
      for (uint64_t Pc : Leaders)
        Traces.push_back(pin::compileTrace(Prog, Pc, Model, T.get()));
    }));
    Free.push_back(timed(Log, "pin.freeTraces", Rep, [&] { Traces.clear(); }));
  });
  double N = static_cast<double>(Leaders.empty() ? 1 : Leaders.size());
  add("pin.compile_us", median(Compile) * 1e6 / N, "us",
      reps(Compile) + ", per trace over " + std::to_string(Leaders.size()) +
          " block leaders");
  add("pin.free_us", median(Free) * 1e6 / N, "us", reps(Free) + ", per trace");
}

void Bench::layers() {
  repeat(3, 0.5, [&](unsigned Rep) { setupOnce(Rep); });
  add("workloads.build_s", median(BuildT), "s", reps(BuildT));
  if (Def.Replay) {
    add("replay.capture_s", median(CaptureT), "s", reps(CaptureT));
    add("replay.encode_s", median(EncodeT), "s", reps(EncodeT));
    add("replay.log_bytes", static_cast<double>(LogBytes.size()), "bytes");
  }

  std::vector<double> Analyze = repeat(5, 0.3, [&](unsigned Rep) {
    timed(Log, "analysis.analyzeProgram", Rep,
          [&] { analysis::analyzeProgram(Prog); });
  });
  add("analysis.analyze_s", median(Analyze), "s", reps(Analyze));

  pin::RunReport Native;
  std::vector<double> NativeT = repeat(3, 0.3, [&](unsigned Rep) {
    timed(Log, "pin.runNative", Rep,
          [&] { Native = pin::runNative(Prog, Model, InstCost); });
  });
  add("vm.native_s", median(NativeT), "s", reps(NativeT));
  add("vm.guest_insts", static_cast<double>(Native.Insts), "count");
  add("vm.native_ns_per_inst",
      ratio(median(NativeT) * 1e9, static_cast<double>(Native.Insts)), "ns");

  memoryLayers();
  pinLayers();

  pin::RunReport Serial;
  runSerial(1, &Serial);
  add("pin.analysis_calls", static_cast<double>(Serial.AnalysisCalls),
      "count", "serial Pin");

  // Closed loop alternating an untraced run with a traced one (host
  // recorder and profiler attached), both at the benchmark's worker count.
  runMain(0, 0);
  runMain(Workers, 0);
  std::vector<double> Plain, Traced, Decode, Replay;
  std::vector<double> Body, Dispatch, MergeWait, Idle, Retire, Util, Bodies;
  sp::SpRunReport Live;
  replay::ReplayReport Rep;
  std::unique_ptr<prof::ProfileCollector> Profile;
  for (uint64_t Round = 1; moreRounds(Round); ++Round) {
    Plain.push_back(runMain(Workers, 2 * Round));
    obs::HostTraceRecorder HostTrace;
    Profile = std::make_unique<prof::ProfileCollector>();
    if (Def.Replay) {
      double DecodeS = 0;
      Traced.push_back(runReplay(Workers, 2 * Round + 1, &HostTrace,
                                 Profile.get(), &Rep, &DecodeS));
      Decode.push_back(DecodeS);
      Replay.push_back(Traced.back() - DecodeS);
    } else {
      Traced.push_back(
          runLive(Workers, 2 * Round + 1, &HostTrace, Profile.get(), &Live));
    }
    obs::HostAttribution Attr = HostTrace.attribution();
    uint64_t Lifetime = 0, Jobs = 0;
    for (const obs::HostLaneAttribution &L : Attr.Workers) {
      Lifetime += L.LifetimeNs;
      Jobs += L.Bodies;
    }
    Body.push_back(1e-9 * double(Attr.totalNs(obs::HostSpanKind::Body)));
    Dispatch.push_back(
        1e-9 * double(Attr.totalNs(obs::HostSpanKind::DispatchWait)));
    MergeWait.push_back(
        1e-9 * double(Attr.totalNs(obs::HostSpanKind::MergeWait)));
    Idle.push_back(1e-9 * double(Attr.totalNs(obs::HostSpanKind::Idle)));
    Retire.push_back(1e-9 * double(Attr.totalNs(obs::HostSpanKind::Retire)));
    Util.push_back(ratio(1e9 * Body.back(), double(Lifetime)));
    Bodies.push_back(static_cast<double>(Jobs));
  }

  // Engine counts: from the live run, or for swim_replay from the live run
  // that produced the capture.
  const sp::SpRunReport &Eng = Def.Replay ? CaptureRep : Live;
  add("vm.cow_copies",
      static_cast<double>(Eng.MasterCowCopies + Eng.SliceCowCopies), "count",
      Def.Replay ? "capture run" : "");
  add("pin.traces_compiled", static_cast<double>(Eng.TracesCompiled),
      "count", Def.Replay ? "capture run" : "");
  add("superpin.slices",
      static_cast<double>(Def.Replay ? Rep.SlicesReplayed : Live.NumSlices),
      "count");
  add("superpin.slice_insts",
      static_cast<double>(Def.Replay ? Rep.ReplayedInsts : Live.SliceInsts),
      "count");
  add("superpin.sig_full_per_quick",
      ratio(double(Eng.Signature.FullChecks),
            double(Eng.Signature.QuickChecks)),
      "ratio", Def.Replay ? "capture run" : "");

  std::string Traces = reps(Traced) + " traced runs";
  add("host.body_s", median(Body), "s", Traces);
  add("host.dispatch_wait_s", median(Dispatch), "s", Traces);
  add("host.merge_wait_s", median(MergeWait), "s", Traces);
  add("host.idle_s", median(Idle), "s", Traces);
  add("host.retire_s", median(Retire), "s", Traces);
  add("host.utilization", median(Util), "ratio", Traces);
  // Replay bodies run to completion on the worker; it has no charge stream.
  add("host.stream_events",
      static_cast<double>(Def.Replay ? 0 : Live.HostStreamEvents), "count");
  add("host.dispatched_slices",
      Def.Replay ? median(Bodies)
                 : static_cast<double>(Live.HostDispatchedSlices),
      "count");

  // The replay layer is loaded only by swim_replay; live workloads report
  // it as zero work.
  if (Def.Replay) {
    add("replay.decode_s", median(Decode), "s", Traces);
    add("replay.replay_s", median(Replay), "s", Traces);
    add("replay.parity_ok_frac",
        ratio(double(Rep.ParityOk), double(Rep.SlicesReplayed)), "ratio");
  } else {
    for (const char *Name : {"replay.capture_s", "replay.encode_s",
                             "replay.decode_s", "replay.replay_s"})
      add(Name, 0, "s", "not loaded");
    add("replay.log_bytes", 0, "bytes", "not loaded");
    add("replay.parity_ok_frac", 0, "ratio", "not loaded");
  }

  // Virtual-time attribution: deterministic, a host-only change must leave
  // these exactly unchanged.
  double Attributed = static_cast<double>(Profile->totalAttributed());
  for (unsigned C = 0; C != prof::NumCauses; ++C) {
    prof::Cause Cause = static_cast<prof::Cause>(C);
    add(std::string("prof.share.") + prof::causeName(Cause),
        ratio(double(Profile->totalCause(Cause)), Attributed), "ratio",
        "virtual");
  }
  add("obs.trace_overhead", ratio(median(Traced), median(Plain)) - 1, "ratio",
      reps(Plain) + " untraced vs " + Traces);
}

int Bench::run() {
  unsigned Cpus = hostCpus();
  std::printf("perfbench: workload %s (suite %s, scale %g, seed %llu, %s)\n",
              Def.Name, Def.Suite, Scale,
              static_cast<unsigned long long>(O.Seed),
              O.Trace ? "traced" : "untraced");
  std::printf("machine: nproc %u, cpu \"%s\", host workers %u, build %s, "
              "%s\n",
              Cpus, cpuModel().c_str(), Workers,
              AssertsEnabled ? "asserts ON" : "NDEBUG",
              Sanitized ? "sanitized" : "no sanitizers");
  if (AssertsEnabled || Sanitized) {
    std::fprintf(stderr, "error: refusing to report timings from an "
                         "assert-enabled or sanitized build\n");
    return 2;
  }

  setupOnce(0);
  reference();
  if (O.Trace)
    layers();
  else
    endToEnd();

  if (!O.Trace) {
    rusage Usage{};
    getrusage(RUSAGE_SELF, &Usage);
    add("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0, "MiB");
    add("virtual_slowdown",
        ratio(double(Ref.RunWall), double(Ref.NativeWall)), "ratio",
        "virtual clock");
  }
  if (O.Trace && !O.SpansPath.empty() &&
      !Log.write(O.SpansPath, Def.Name, O.Seed))
    std::fprintf(stderr, "warning: cannot write spans to '%s'\n",
                 O.SpansPath.c_str());

  double FailedFrac = ratio(double(Check.Failed), double(Check.Attempted));
  for (const Metric &M : Metrics)
    std::printf("  %-30s %14.6g %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::printf("  %-30s %14.6g %-6s %llu of %llu checked runs failed\n",
              "failed_frac", FailedFrac, "ratio",
              static_cast<unsigned long long>(Check.Failed),
              static_cast<unsigned long long>(Check.Attempted));
  std::printf("  %-30s %14.6g %-6s whole run, set-up to last round\n",
              "elapsed_s", secondsBetween(Start, Clock::now()), "s");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Check.Failed ? "false" : "true",
              static_cast<unsigned long long>(Check.Attempted),
              static_cast<unsigned long long>(Check.Failed));
  for (size_t I = 0; I != Metrics.size(); ++I) {
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "",
                Metrics[I].Name.c_str());
    printJsonNumber(Metrics[I].Value);
    std::printf(", \"unit\": \"%s\"}", Metrics[I].Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return Check.Failed ? 1 : 0;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (*End != '\0' || errno == ERANGE || S[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Flag.c_str());
      return false;
    }
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed" && parseUnsigned(V, N)) {
      O.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseUnsigned(V, N) && N >= 1 &&
               N <= 3600) {
      O.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace" && parseUnsigned(V, N) && N <= 1) {
      O.Trace = N == 1;
      HaveTrace = true;
    } else if (Flag == "--wrong-reference" && parseUnsigned(V, N) && N <= 1) {
      O.WrongReference = N == 1;
    } else if (Flag == "--spans") {
      O.SpansPath = V;
    } else {
      std::fprintf(stderr, "error: bad option %s %s\n", Flag.c_str(), V);
      return false;
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 "
                         "[--wrong-reference 0|1] [--spans PATH]\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  for (const WorkloadDef &Def : Workloads)
    if (O.Workload == Def.Name)
      return Bench(O, Def).run();
  std::fprintf(stderr, "error: unknown workload '%s' (gcc_live, mcf_live, "
                       "swim_replay)\n",
               O.Workload.c_str());
  return 2;
}
