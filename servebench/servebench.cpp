// Open-loop HDCN serving benchmark.
//
// Two modes, both driven by servebench/run.py:
//
//   servebench fixture --dir=D
//     Trains the benchmark model (the phase II+III recipe of
//     examples/demo_pipeline_config.hpp: 64 CUB-synthetic classes, 48 seen /
//     16 unseen, resnet_micro_flat + FC at d = 256), freezes it as a joint
//     GZSL snapshot at x8 expansion (D/base.hdcsnap) and writes the
//     224-image held-out eval set with its embeddings (D/evalset.bin).
//     Files that exist are kept; fixtures use fixed seeds, so every workload
//     seed measures the same checksummed model. run.py names D after the
//     built program, so code that changes gets fixtures of its own.
//
//   servebench run --workload=W --seed=N --seconds=S --trace=0|1 --dir=D
//                  --out=O
//     Cold-starts ModelRegistry + NetServer on loopback from the fixture
//     file, drives the workload at a Poisson rate from one generator thread
//     over one NetClient connection for 70% of S, then saturates the server
//     with 64 reads in flight for the rest, checks every answer, and prints
//     one JSON result line last on stdout. --trace=0 reports the end-to-end
//     metrics from a server with request tracing off; --trace=1 replays the
//     nominal phase on a server with tracing off and on a cold-started one
//     with tracing on, and times each layer's public functions on the same
//     fixture and inputs, reporting the per-layer metrics. Spans and the
//     full result (with the hardware fingerprint, the fixture checksum and
//     the host's CPU steal share) are written under O.
//
// Workloads (servebench/PREDICTIONS.md says why each exists):
//   split_lsh8   [256] embeddings, x8 binary Hamming, k=5, 250 req/s
//   image_f32    [3,32,32] images, float32 backbone + float cosine, k=1, 100 req/s
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/pipeline.hpp"
#include "demo_pipeline_config.hpp"
#include "hdc/hypervector.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/model_registry.hpp"
#include "serve/snapshot_io.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/serialize.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

using namespace hdczsc;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kClasses = 64;
constexpr long kModelSeed = 1;  // training and growth seed of the fixtures
constexpr std::size_t kExpansion = 8;
// One compute thread: a batch forward split across two vCPUs waits for the
// slower one, so a stalled vCPU on a shared host moved image_f32's
// max_rate_rps by 0.17 (IQR ÷ median, 7 seeds) with two threads against
// 0.04 with one, measured interleaved on a 4-vCPU VM.
constexpr std::size_t kComputeThreads = 1;
constexpr std::size_t kSetupRepeats = 21;
constexpr const char* kModelKey = "bench";

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Median wall time (microseconds) of `reps` calls of `fn`.
double time_us(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(1e3 * ms_between(t0, Clock::now()));
  }
  return median(us);
}

/// Rows `idx` of a [N, ...] tensor as a new [idx.size(), ...] tensor.
tensor::Tensor take_rows(const tensor::Tensor& t, const std::vector<std::size_t>& idx) {
  tensor::Shape shape = t.shape();
  const std::size_t per = t.numel() / shape[0];
  shape[0] = idx.size();
  tensor::Tensor out(shape);
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::memcpy(out.data() + i * per, t.data() + idx[i] * per, per * sizeof(float));
  return out;
}

/// Row `i` of a [N, ...] tensor without the leading axis (one request input).
tensor::Tensor row(const tensor::Tensor& t, std::size_t i) {
  tensor::Shape shape(t.shape().begin() + 1, t.shape().end());
  tensor::Tensor out(shape);
  std::memcpy(out.data(), t.data() + i * out.numel(), out.numel() * sizeof(float));
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// CPU layout: the serving stack (IO thread, worker, compute pool) runs on
/// CPUs [0, n-2] and the load generator with its client reader on CPU n-1,
/// so the generator is never queued behind the system under test. Threads
/// inherit the mask of the thread that creates them. No-op on one CPU.
unsigned n_cpus() { return std::max(1u, std::thread::hardware_concurrency()); }
void pin_to_server_cpus() {
  if (n_cpus() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c + 1 < n_cpus(); ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}
void pin_to_client_cpu() {
  if (n_cpus() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(n_cpus() - 1, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Host CPU time counters from the "cpu" line of /proc/stat, in clock
/// ticks: steal and the sum of user..steal. Both 0 where it cannot be read.
struct CpuTicks {
  double steal = 0.0, total = 0.0;
};
CpuTicks host_cpu_ticks() {
  CpuTicks t;
  std::ifstream is("/proc/stat");
  std::string label;
  if (!(is >> label) || label != "cpu") return {};
  for (int i = 0; i < 8; ++i) {  // user nice system idle iowait irq softirq steal
    double v = 0.0;
    if (!(is >> v)) return {};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of the host's CPU time the hypervisor took between two readings
/// (-1 when unknown). Above kMaxComparableSteal the whole VM runs slower and
/// the run's timings are marked as not comparable with other runs.
constexpr double kMaxComparableSteal = 0.05;
double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double dt = b.total - a.total;
  return dt > 0.0 ? (b.steal - a.steal) / dt : -1.0;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// -- fixture ------------------------------------------------------------------

/// Seeded synthetic class-attribute rows for appended classes, with
/// strengths drawn from U(-1, 0). ϕ(A) = A·B is linear, so these prototypes
/// point away from every trained class and the real classes keep their
/// decisions.
tensor::Tensor synthetic_attribute_rows(std::size_t n, std::size_t alpha, std::uint64_t seed) {
  util::Rng rng(seed ^ 0xE7017E100ULL);
  return tensor::Tensor::rand_uniform({n, alpha}, rng, -1.0f, 0.0f);
}

/// Makes whatever fixture files are missing from `--dir`. Files are written
/// under a temporary name and renamed, so an interrupted build never leaves
/// a truncated fixture behind.
int make_fixture(const util::ArgMap& args) {
  const std::filesystem::path dir = args.get_str("dir", "");
  if (dir.empty()) throw std::invalid_argument("fixture: --dir is required");
  std::filesystem::create_directories(dir);
  const auto base_path = dir / "base.hdcsnap";
  const auto eval_path = dir / "evalset.bin";

  if (!std::filesystem::exists(base_path) || !std::filesystem::exists(eval_path)) {
    const std::string classes_arg = "--classes=" + std::to_string(kClasses);
    const std::string seed_arg = "--seed=" + std::to_string(kModelSeed);
    char* fake_argv[] = {const_cast<char*>("fixture"), const_cast<char*>(classes_arg.c_str()),
                         const_cast<char*>(seed_arg.c_str())};
    core::PipelineConfig cfg = examples::demo_pipeline_config(util::ArgMap(3, fake_argv));
    cfg.snapshot_gzsl = true;
    const core::TrainedPipeline tp = core::run_pipeline_trained(cfg);
    const auto snap = serve::make_gzsl_snapshot(tp.model, tp.seen_class_attributes,
                                                tp.test_class_attributes, kExpansion, 1);
    const data::Batch eval = core::joint_gzsl_eval_set(tp);
    std::vector<float> labels(eval.labels.begin(), eval.labels.end());
    {
      std::ofstream os(dir / "evalset.tmp", std::ios::binary);
      tensor::save_tensor(os, eval.images);
      tensor::save_tensor(os, snap->embed(eval.images));
      tensor::save_tensor(os, tensor::Tensor::from_vector(std::move(labels)));
      if (!os) throw std::runtime_error("fixture: cannot write eval set");
    }
    serve::save_snapshot_file((dir / "base.tmp").string(), *snap);
    std::filesystem::rename(dir / "evalset.tmp", eval_path);
    std::filesystem::rename(dir / "base.tmp", base_path);
    std::fprintf(stderr, "servebench: trained the fixture model (zs top-1 %.3f)\n",
                 tp.result.zsc.top1);
  }

  return 0;
}

// -- workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  bool image_input;         ///< true: [3,S,S] images; false: [d] embeddings
  serve::ScoringMode mode;
  std::uint32_t k;
  double nominal_rps;
};

std::optional<Workload> find_workload(const std::string& name) {
  const Workload all[] = {
      {"split_lsh8", false, serve::ScoringMode::kBinaryHamming, 5, 250.0},
      {"image_f32", true, serve::ScoringMode::kFloatCosine, 1, 100.0},
  };
  for (const Workload& w : all)
    if (w.name == name) return w;
  return std::nullopt;
}

/// Share of --seconds spent at the nominal rate; the rest saturates the
/// server to measure its capacity.
constexpr double kNominalShare = 0.7;
/// Reads kept in flight while saturating: eight full batches queued.
constexpr std::size_t kSaturationWindow = 64;

// -- load generation ----------------------------------------------------------

/// One completed request, as the generator saw it.
struct Sample {
  bool ok = false;
  double sched_ms = 0.0;       ///< scheduled send, ms since phase start
  double lag_ms = 0.0;         ///< actual send − scheduled send
  double latency_ms = 0.0;     ///< completion − scheduled send
  serve::InferTimings timings;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::size_t attempted = 0, failed = 0, rejected = 0;
  bool aborted = false;        ///< stopped early: backlog past the abort bound
  std::size_t end_backlog = 0; ///< unanswered operations when the schedule ended
  bool structure_ok = true;
  std::string first_error;

  std::vector<double> read_latencies() const {
    std::vector<double> v;
    for (const Sample& s : samples)
      if (s.ok) v.push_back(s.latency_ms);
    return v;
  }
};

/// Shared state of a benchmark run: the serving stack under test, the
/// client connection, the measured inputs and their reference answers.
struct Bench {
  Workload w;
  std::uint64_t seed = 1;
  tensor::Tensor inputs;            ///< measured half as request inputs [M, ...]
  tensor::Tensor embeddings;        ///< measured half embeddings [M, d]
  std::vector<std::size_t> labels;  ///< measured half ground truth
  std::size_t n_seen = 0;
  std::size_t alpha = 0;
  std::size_t n_classes = 0;        ///< served label-space size

  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<net::NetServer> server;
  std::unique_ptr<net::NetClient> client;
  bool correct = true;
  std::string first_error;

  void fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }

  serve::InferRequest read_request(std::size_t i) const {
    serve::InferRequest req;
    req.model_key = kModelKey;
    req.input = row(inputs, i);
    req.k = w.k;
    return req;
  }

  net::AppendRequest append_request(util::Rng& rng) const {
    net::AppendRequest req;
    req.model_key = kModelKey;
    req.attributes = synthetic_attribute_rows(1, alpha, rng.next_u64());
    return req;
  }

  /// Structural check of one ok response: min(k, C) hits ordered by
  /// (score desc, label asc) with labels < C.
  bool well_formed(const serve::InferResult& r) const {
    const std::size_t want = std::min<std::size_t>(w.k, n_classes);
    if (r.topk.size() != want) return false;
    for (std::size_t j = 0; j < r.topk.size(); ++j) {
      if (r.topk[j].label >= n_classes) return false;
      if (j > 0) {
        const serve::TopK& a = r.topk[j - 1];
        const serve::TopK& b = r.topk[j];
        if (a.score < b.score || (a.score == b.score && a.label >= b.label)) return false;
      }
    }
    return true;
  }
};

/// Open-loop Poisson phase at `rps` for `seconds`, one generator thread on
/// one connection. Arrivals follow a schedule drawn from `rng`; each request
/// is timed from its scheduled send, so a late generator or server shows
/// up as latency of the requests behind it. The phase aborts when the
/// unanswered backlog exceeds `abort_backlog`.
PhaseResult run_phase(Bench& b, double rps, double seconds, util::Rng& rng,
                      std::size_t abort_backlog) {
  struct Op {
    Sample s;
    Clock::time_point sched;
    std::future<serve::InferResult> read;
  };
  PhaseResult res;
  std::deque<Op> inflight;
  const Clock::time_point t0 = Clock::now();
  auto at = [&](double sec) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(sec));
  };
  auto complete = [&](Op& op) {
    op.s.latency_ms = ms_between(op.sched, Clock::now());
    const serve::InferResult r = op.read.get();
    op.s.ok = r.ok();
    op.s.timings = r.timings;
    if (r.status == serve::InferStatus::kOverloaded) ++res.rejected;
    if (r.ok() && !b.well_formed(r)) {
      res.structure_ok = false;
      if (res.first_error.empty()) res.first_error = "malformed top-k in a response";
    } else if (!r.ok() && res.first_error.empty()) {
      res.first_error = std::string("read: ") + serve::infer_status_name(r.status) + " " +
                        r.message;
    }
    if (!op.s.ok) ++res.failed;
    res.samples.push_back(op.s);
  };
  // Record every already-answered request at the head, then wait for the
  // head until `until`; returns when `until` passes or nothing is in flight.
  auto drain_until = [&](Clock::time_point until) {
    while (!inflight.empty()) {
      if (inflight.front().read.wait_until(until) != std::future_status::ready) return;
      complete(inflight.front());
      inflight.pop_front();
    }
  };

  double due = -std::log(1.0 - rng.next_double()) / rps;
  for (; due < seconds; due += -std::log(1.0 - rng.next_double()) / rps) {
    const Clock::time_point sched = at(due);
    // Busy-poll until the send time, recording answers as they arrive: a
    // generator that sleeps would wait for its idle vCPU to be scheduled
    // again, and on a shared host that wait is milliseconds.
    do {
      while (!inflight.empty() && inflight.front().read.wait_for(std::chrono::seconds(0)) ==
                                      std::future_status::ready) {
        complete(inflight.front());
        inflight.pop_front();
      }
    } while (Clock::now() < sched);
    if (inflight.size() > abort_backlog) {
      res.aborted = true;
      break;
    }
    Op op;
    op.sched = sched;
    op.s.sched_ms = due * 1e3;
    op.read = b.client->submit(b.read_request(rng.next_below(b.labels.size())));
    op.s.lag_ms = ms_between(sched, Clock::now());
    inflight.push_back(std::move(op));
    ++res.attempted;
  }
  res.end_backlog = inflight.size();
  // Drain: give every outstanding request up to 20 s to answer.
  drain_until(Clock::now() + std::chrono::seconds(20));
  if (!inflight.empty()) {
    // The connection can no longer be trusted to pair answers; fail loudly.
    throw std::runtime_error("servebench: requests unanswered 20 s after the phase ended");
  }
  return res;
}

/// Closed-loop saturation: keeps `window` reads in flight on the one
/// connection for `seconds`, so the server's queue never runs dry and every
/// batch is full. Returns the server's capacity: after a 1 s warm-up, the
/// median over consecutive blocks of `window` completions of the block's
/// completion rate, so that a short host stall does not decide the figure.
/// Counts and checks go to `res`.
double saturate(Bench& b, double seconds, std::size_t window, util::Rng& rng, PhaseResult& res) {
  constexpr double kWarmS = 1.0;
  std::deque<std::future<serve::InferResult>> inflight;
  std::vector<double> done_s;  // completion times after the warm-up
  const Clock::time_point t0 = Clock::now();
  auto submit = [&] {
    inflight.push_back(b.client->submit(b.read_request(rng.next_below(b.labels.size()))));
    ++res.attempted;
  };
  auto complete = [&] {
    const serve::InferResult r = inflight.front().get();
    inflight.pop_front();
    if (r.status == serve::InferStatus::kOverloaded) ++res.rejected;
    if (!r.ok()) ++res.failed;
    else if (!b.well_formed(r) && res.structure_ok) {
      res.structure_ok = false;
      res.first_error = "malformed top-k in a response";
    }
    return ms_between(t0, Clock::now()) / 1e3;
  };
  while (inflight.size() < window) submit();
  for (;;) {
    const double t = complete();
    if (t >= seconds) break;
    if (t >= kWarmS) done_s.push_back(t);
    submit();
  }
  while (!inflight.empty()) complete();
  std::vector<double> rates;
  for (std::size_t i = window; i < done_s.size(); i += window)
    rates.push_back(static_cast<double>(window) / (done_s[i] - done_s[i - window]));
  return median(rates);
}

// -- serving stack ------------------------------------------------------------

struct SetupTiming {
  double total_s = 0.0;
  double load_ms = 0.0;
  double build_ms = 0.0;
};

/// Fixture file on disk → first ok response over the wire: load the
/// snapshot, build the engine (incl. GZSL calibration) and runtime, start
/// the server, connect and answer one measured request. `tracing` switches
/// the runtime's per-request stage tracer.
SetupTiming cold_start(Bench& b, const std::string& snapshot_path,
                       const std::shared_ptr<const serve::GzslCalibration>& calibration,
                       bool tracing) {
  SetupTiming t;
  pin_to_server_cpus();
  const Clock::time_point t0 = Clock::now();
  auto snapshot = serve::load_snapshot_file(snapshot_path);
  const Clock::time_point t1 = Clock::now();
  serve::ServerConfig cfg;  // netserve defaults: 1 worker, max_batch 8, 2 ms, queue 4096
  cfg.n_workers = 1;
  cfg.batch.max_batch = 8;
  cfg.batch.max_delay_ms = 2.0;
  cfg.batch.max_queue_depth = 4096;
  cfg.backbone_precision = serve::Precision::kFloat32;
  cfg.retrieval = serve::RetrievalMode::kExact;
  cfg.gzsl_calibration = calibration;
  cfg.tracing = tracing;
  b.registry = std::make_unique<serve::ModelRegistry>(cfg);
  b.registry->load(kModelKey, std::move(snapshot), b.w.mode);
  const Clock::time_point t2 = Clock::now();
  net::NetServerConfig ncfg;
  ncfg.n_io_threads = 1;
  b.server = std::make_unique<net::NetServer>(*b.registry, ncfg);
  b.server->start();
  pin_to_client_cpu();
  b.client = std::make_unique<net::NetClient>("127.0.0.1", b.server->port());
  const serve::InferResult first = b.client->infer(b.read_request(0));
  const Clock::time_point t3 = Clock::now();
  if (!first.ok())
    throw std::runtime_error(std::string("servebench: first request failed: ") +
                             serve::infer_status_name(first.status) + " " + first.message);
  t.total_s = ms_between(t0, t3) / 1e3;
  t.load_ms = ms_between(t0, t1);
  t.build_ms = ms_between(t1, t2);
  b.n_classes = b.registry->engine(kModelKey)->n_classes();
  return t;
}

void tear_down(Bench& b) {
  if (b.client) b.client->close();
  b.client.reset();
  if (b.server) b.server->stop();
  b.server.reset();
  if (b.registry) b.registry->stop_all();
  b.registry.reset();
}

struct CheckResult {
  double top1 = 0.0, seen = 0.0, unseen = 0.0, h = 0.0;
  std::size_t attempted = 0, failed = 0;
};

/// Pipelined pass over the measured half, compared with an in-process
/// InferenceEngine::topk_batch reference on the served engine: top-1
/// labels must agree, and on the binary path every hit's label and score.
CheckResult check_pass(Bench& b) {
  CheckResult c;
  const std::size_t m = b.labels.size();
  std::vector<std::future<serve::InferResult>> futs;
  futs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) futs.push_back(b.client->submit(b.read_request(i)));
  std::vector<serve::InferResult> served;
  served.reserve(m);
  for (auto& f : futs) served.push_back(f.get());
  const auto engine = b.registry->engine(kModelKey);
  b.n_classes = engine->n_classes();
  const auto ref = engine->topk_batch(b.inputs, b.w.k);
  const bool binary = b.w.mode == serve::ScoringMode::kBinaryHamming;
  std::size_t hit = 0, seen_hit = 0, seen_n = 0, unseen_hit = 0, unseen_n = 0;
  c.attempted = m;
  for (std::size_t i = 0; i < m; ++i) {
    const serve::InferResult& r = served[i];
    if (!r.ok()) {
      ++c.failed;
      b.fail("check pass: request failed: " + std::string(serve::infer_status_name(r.status)));
      continue;
    }
    if (!b.well_formed(r)) b.fail("check pass: malformed top-k");
    if (r.topk.empty() || ref[i].empty() || r.topk[0].label != ref[i][0].label) {
      b.fail("check pass: served top-1 differs from the in-process reference");
      continue;
    }
    if (binary) {
      bool same = r.topk.size() == ref[i].size();
      for (std::size_t j = 0; same && j < r.topk.size(); ++j)
        same = r.topk[j].label == ref[i][j].label && r.topk[j].score == ref[i][j].score;
      if (!same) b.fail("check pass: binary hits differ from the in-process reference");
    }
    const bool correct = r.topk[0].label == b.labels[i];
    hit += correct;
    if (b.labels[i] < b.n_seen) {
      ++seen_n;
      seen_hit += correct;
    } else {
      ++unseen_n;
      unseen_hit += correct;
    }
  }
  c.top1 = static_cast<double>(hit) / static_cast<double>(m);
  c.seen = seen_n ? static_cast<double>(seen_hit) / static_cast<double>(seen_n) : 0.0;
  c.unseen = unseen_n ? static_cast<double>(unseen_hit) / static_cast<double>(unseen_n) : 0.0;
  c.h = c.seen + c.unseen > 0.0 ? 2.0 * c.seen * c.unseen / (c.seen + c.unseen) : 0.0;
  return c;
}

/// Whether a phase kept its rate: no abort, zero failures and no growing
/// backlog: when the schedule ends, at most 5% of the operations it sent
/// (and at least 16) may still be unanswered.
bool meets_rate(const PhaseResult& p) {
  const double allowed = std::max(16.0, 0.05 * static_cast<double>(p.attempted));
  return !p.aborted && p.failed == 0 && static_cast<double>(p.end_backlog) <= allowed;
}

// -- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[128];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(ms[i].value) ? ms[i].value : -1.0);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

int run(const util::ArgMap& args) {
  const Clock::time_point started = Clock::now();
  const auto w_opt = find_workload(args.get_str("workload", ""));
  if (!w_opt) throw std::invalid_argument("run: unknown --workload");
  const std::filesystem::path dir = args.get_str("dir", "");
  const std::filesystem::path out = args.get_str("out", "");
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  pin_to_server_cpus();
  util::set_worker_count(kComputeThreads);
  util::parallel_for(0, 2 * kComputeThreads, [](std::size_t) {}, 1);  // pool on server CPUs

  Bench b;
  b.w = *w_opt;
  b.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string fixture = "base.hdcsnap";
  const std::string snapshot_path = (dir / fixture).string();
  const serve::SnapshotInfo info = serve::inspect_snapshot_file(snapshot_path);
  b.n_seen = info.n_seen;
  b.alpha = info.n_attributes;

  // Eval set: a seeded half calibrates the GZSL penalty, the other half is
  // what requests cycle over.
  tensor::Tensor images, embeddings, label_t;
  {
    std::ifstream is(dir / "evalset.bin", std::ios::binary);
    images = tensor::load_tensor(is);
    embeddings = tensor::load_tensor(is);
    label_t = tensor::load_tensor(is);
  }
  // Stratified by class, so both halves hold the same seen/unseen mix on
  // every seed.
  const std::size_t n_eval = label_t.numel();
  std::vector<std::vector<std::size_t>> by_class;
  for (std::size_t i = 0; i < n_eval; ++i) {
    const auto c = static_cast<std::size_t>(label_t[i]);
    if (c >= by_class.size()) by_class.resize(c + 1);
    by_class[c].push_back(i);
  }
  util::Rng split_rng(b.seed * 0x9E3779B97F4A7C15ULL + 0x5B1177ULL);
  std::vector<std::size_t> calib_idx, meas_idx;
  for (std::vector<std::size_t>& members : by_class) {
    for (std::size_t i = members.size(); i > 1; --i)
      std::swap(members[i - 1], members[split_rng.next_below(i)]);
    const bool calib_first = calib_idx.size() <= meas_idx.size();
    for (std::size_t i = 0; i < members.size(); ++i)
      ((i % 2 == 0) == calib_first ? calib_idx : meas_idx).push_back(members[i]);
  }
  auto calibration = std::make_shared<serve::GzslCalibration>();
  calibration->embeddings = take_rows(embeddings, calib_idx);
  for (std::size_t i : calib_idx)
    calibration->labels.push_back(static_cast<std::size_t>(label_t[i]));
  b.embeddings = take_rows(embeddings, meas_idx);
  b.inputs = b.w.image_input ? take_rows(images, meas_idx) : b.embeddings;
  for (std::size_t i : meas_idx) b.labels.push_back(static_cast<std::size_t>(label_t[i]));

  // -- set-up: cold start several times, keep the last stack ----------------
  // End-to-end figures come from a server with request tracing off.
  std::vector<double> setup_s, load_ms, build_ms;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) tear_down(b);
    const SetupTiming t = cold_start(b, snapshot_path, calibration, false);
    setup_s.push_back(t.total_s);
    load_ms.push_back(t.load_ms);
    build_ms.push_back(t.build_ms);
  }

  util::Rng gen_rng(b.seed * 0xD1B54A32D192ED03ULL + 0x6E4ULL);
  const CheckResult quality = check_pass(b);
  std::size_t attempted = quality.attempted, failed = quality.failed;
  const double nominal_s = seconds * kNominalShare;
  // Abort the nominal phase once a full second of requests is unanswered.
  const std::size_t abort_nominal =
      std::max<std::size_t>(64, static_cast<std::size_t>(b.w.nominal_rps));

  auto account = [&](const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (!p.structure_ok) b.fail(p.first_error);
  };

  std::vector<Metric> metrics;
  std::string extra;  // phase details for the info line
  char buf[1024];
  const CpuTicks ticks0 = host_cpu_ticks();
  CpuTicks ticks1;
  if (!trace) {
    // -- nominal phase --------------------------------------------------------
    const PhaseResult nominal = run_phase(b, b.w.nominal_rps, nominal_s, gen_rng, abort_nominal);
    account(nominal);
    const std::vector<double> lat = nominal.read_latencies();

    // -- saturation ----------------------------------------------------------
    const CheckResult saturation_check = check_pass(b);
    attempted += saturation_check.attempted;
    failed += saturation_check.failed;
    PhaseResult saturation;
    const double saturation_s = seconds - nominal_s;
    const double max_rate = saturate(b, saturation_s, kSaturationWindow, gen_rng, saturation);
    account(saturation);
    ticks1 = host_cpu_ticks();

    // -- write probes (idle, after the timed phases) --------------------------
    std::vector<double> append_ms;
    for (int i = 0; i < 21; ++i) {
      const Clock::time_point t0 = Clock::now();
      const net::AppendResult r = b.client->append_classes(b.append_request(gen_rng));
      ++attempted;
      if (r.status != serve::InferStatus::kOk) ++failed;
      else append_ms.push_back(ms_between(t0, Clock::now()));
    }
    const double ok_share =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"p50_ms", percentile(lat, 0.5), "ms"},
        {"max_rate_rps", max_rate, "req/s"},
        {"ok_share", ok_share, "fraction"},
        {"top1_acc", quality.top1, "fraction"},
        {"gzsl_h", quality.h, "fraction"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::vector<double> lags;
    for (const Sample& s : nominal.samples) lags.push_back(s.lag_ms);
    std::snprintf(buf, sizeof(buf),
                  "\"nominal\": {\"rps\": %.1f, \"seconds\": %.2f, \"reads_ok\": %zu, "
                  "\"failed\": %zu, \"met_rate\": %s, "
                  "\"p99_ms\": %.4f, \"gen_lag_p99_ms\": %.4f}, "
                  "\"saturation\": {\"seconds\": %.2f, \"in_flight\": %zu, \"reads\": %zu, "
                  "\"failed\": %zu}, "
                  "\"append_p50_ms\": %.4f, \"appends\": %zu, "
                  "\"seen_acc\": %.4f, \"unseen_acc\": %.4f, ",
                  b.w.nominal_rps, nominal_s, lat.size(), nominal.failed,
                  meets_rate(nominal) ? "true" : "false", percentile(lat, 0.99),
                  percentile(lags, 0.99), saturation_s, kSaturationWindow, saturation.attempted,
                  saturation.failed, median(append_ms), append_ms.size(), quality.seen,
                  quality.unseen);
    extra = buf;
  } else {
    // -- traced run: untraced replay, traced replay, layer pass --------------
    // The untraced replay runs on the set-up's server (tracing off); the
    // traced one on a server cold-started with tracing on, warmed by a check
    // pass. The server tracer's span counts show which was which.
    auto server_spans = [&] {
      std::uint64_t n = 0;
      for (const obs::Tracer::StageStat& st : b.registry->stage_stats(kModelKey))
        if (st.stage == "total") n = st.count;
      return n;
    };
    const PhaseResult plain = run_phase(b, b.w.nominal_rps, nominal_s, gen_rng, abort_nominal);
    account(plain);
    const std::uint64_t plain_server_spans = server_spans();
    tear_down(b);
    cold_start(b, snapshot_path, calibration, true);
    const CheckResult traced_check = check_pass(b);
    attempted += traced_check.attempted + 1;  // + the cold start's first request
    failed += traced_check.failed;
    const std::uint64_t spans1 = server_spans();
    const auto stats1 = b.registry->stats(kModelKey);
    const PhaseResult traced = run_phase(b, b.w.nominal_rps, nominal_s, gen_rng, abort_nominal);
    account(traced);
    const auto stats2 = b.registry->stats(kModelKey);
    const std::uint64_t traced_server_spans = server_spans() - spans1;
    ticks1 = host_cpu_ticks();

    // Spans: a root per request (scheduled send → response) with children
    // queue_wait, collect, embed, score from the response's InferTimings and
    // wire as the remainder; kept in memory, written when the run ends.
    std::vector<double> wire, queue_wait, collect, embed, score, lag;
    std::string spans;
    std::size_t n_spans = 0;
    for (const Sample& s : traced.samples) {
      lag.push_back(s.lag_ms);
      if (!s.ok) continue;
      const double client_ms = s.latency_ms - s.lag_ms;  // from the actual send
      wire.push_back(client_ms - s.timings.total_ms);
      queue_wait.push_back(s.timings.queue_wait_ms);
      collect.push_back(s.timings.collect_ms);
      embed.push_back(s.timings.embed_ms);
      score.push_back(s.timings.score_ms);
      std::snprintf(buf, sizeof(buf),
                    "{\"req\": %zu, \"start_ms\": %.4f, \"request_ms\": %.4f, \"gen_lag_ms\": %.4f, "
                    "\"queue_wait_ms\": %.4f, \"collect_ms\": %.4f, \"embed_ms\": %.4f, "
                    "\"score_ms\": %.4f, \"wire_ms\": %.4f}\n",
                    n_spans, s.sched_ms, s.latency_ms, s.lag_ms, s.timings.queue_wait_ms,
                    s.timings.collect_ms, s.timings.embed_ms, s.timings.score_ms,
                    client_ms - s.timings.total_ms);
      spans += buf;
      ++n_spans;
    }
    const double d_batches = static_cast<double>(stats2.batches - stats1.batches);
    const double mean_batch =
        d_batches > 0 ? static_cast<double>(stats2.completed - stats1.completed) / d_batches : 0.0;

    // Layer pass: time each layer's public functions on the same fixture and
    // inputs the served requests used.
    const auto engine = b.registry->engine(kModelKey);
    const serve::ModelSnapshot& snap = engine->snapshot();
    const serve::InferRequest probe_req = b.read_request(0);
    const std::vector<char> frame = net::encode_request_frame(probe_req);
    const double encode_us = time_us(200, [&] { (void)net::encode_request_frame(probe_req); });
    const double decode_us = time_us(200, [&] {
      (void)net::decode_request_payload(frame.data() + net::kHeaderBytes,
                                        frame.size() - net::kHeaderBytes);
    });
    const std::vector<std::size_t> one{0}, eight{0, 1, 2, 3, 4, 5, 6, 7};
    const tensor::Tensor img1 = take_rows(images, {meas_idx[0]});
    std::vector<std::size_t> img8_idx(meas_idx.begin(), meas_idx.begin() + 8);
    const tensor::Tensor img8 = take_rows(images, img8_idx);
    const double embed_b1 = time_us(30, [&] { (void)snap.embed(img1); }) / 1e3;
    const double embed_b8 = time_us(15, [&] { (void)snap.embed(img8); }) / 1e3;
    const auto pinned = engine->pin();
    const serve::PrototypeStore& store = *pinned->store;
    std::size_t q = 0;
    const double proj_us = time_us(200, [&] {
      (void)store.encode_query(b.embeddings.data() + (q++ % b.labels.size()) * store.dim());
    });
    const bool binary = b.w.mode == serve::ScoringMode::kBinaryHamming;
    const tensor::Tensor emb1 = take_rows(b.embeddings, one);
    const tensor::Tensor emb8 = take_rows(b.embeddings, eight);
    const std::size_t scan_reps = engine->n_classes() > 10000 ? 9 : 100;
    const double topk_b1 =
        time_us(scan_reps, [&] { (void)engine->topk_batch(emb1, b.w.k); }) / 1e3 -
        (binary ? proj_us / 1e3 : 0.0);
    const double topk_b8 =
        time_us(scan_reps, [&] { (void)engine->topk_batch(emb8, b.w.k); }) / 1e3 -
        (binary ? 8.0 * proj_us / 1e3 : 0.0);
    const double scan_bytes =
        static_cast<double>(engine->n_classes()) *
        (binary ? static_cast<double>(store.code_bits()) / 8.0
                : static_cast<double>(store.dim() * sizeof(float)));
    std::vector<double> append_ms;
    util::Rng arng(b.seed + 0xA99E2D);
    for (int i = 0; i < 3; ++i) {
      const tensor::Tensor attrs = synthetic_attribute_rows(1, b.alpha, arng.next_u64());
      const Clock::time_point t0 = Clock::now();
      engine->append_classes(attrs);
      append_ms.push_back(ms_between(t0, Clock::now()));
    }
    const double file_mb =
        static_cast<double>(std::filesystem::file_size(snapshot_path)) / (1024.0 * 1024.0);

    const std::vector<double> plain_lat = plain.read_latencies();
    const std::vector<double> traced_lat = traced.read_latencies();
    metrics = {
        {"net.req_bytes", static_cast<double>(frame.size()), "bytes"},
        {"net.encode_us", encode_us, "us"},
        {"net.decode_us", decode_us, "us"},
        {"net.wire_p50_ms", percentile(wire, 0.5), "ms"},
        {"net.wire_p99_ms", percentile(wire, 0.99), "ms"},
        {"batcher.queue_wait_p50_ms", percentile(queue_wait, 0.5), "ms"},
        {"batcher.queue_wait_p99_ms", percentile(queue_wait, 0.99), "ms"},
        {"batcher.collect_p50_ms", percentile(collect, 0.5), "ms"},
        {"batcher.mean_batch", mean_batch, "count"},
        {"batcher.fill", mean_batch / 8.0, "fraction"},
        {"batcher.rejected", static_cast<double>(plain.rejected + traced.rejected), "count"},
        {"nn.embed_b1_ms", embed_b1, "ms"},
        {"nn.embed_b8_ms", embed_b8, "ms"},
        {"proj.encode_us", proj_us, "us"},
        {"scan.score_p50_ms", percentile(score, 0.5), "ms"},
        {"scan.topk_b1_ms", topk_b1, "ms"},
        {"scan.topk_b8_ms", topk_b8, "ms"},
        {"scan.bytes_per_query", scan_bytes, "bytes"},
        {"evolve.append_ms", median(append_ms), "ms"},
        {"snapshot.load_ms", median(load_ms), "ms"},
        {"snapshot.file_mb", file_mb, "MB"},
        {"engine.build_ms", median(build_ms), "ms"},
        {"gen.lag_p99_ms", percentile(lag, 0.99), "ms"},
        {"gen.lag_max_ms", lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end()), "ms"},
        {"trace.overhead_p50_ms", percentile(traced_lat, 0.5) - percentile(plain_lat, 0.5), "ms"},
    };
    // The server's embed time reads 0 on every embedding request, so it is
    // reported here rather than as a metric that never moves.
    std::snprintf(buf, sizeof(buf),
                  "\"server_embed_p50_ms\": %.4f, \"client_spans\": %zu, "
                  "\"server_spans\": {\"untraced_replay\": %llu, \"traced_replay\": %llu}, ",
                  percentile(embed, 0.5), n_spans, static_cast<unsigned long long>(plain_server_spans),
                  static_cast<unsigned long long>(traced_server_spans));
    extra = buf;
    std::filesystem::create_directories(out);
    std::ofstream(out / ("spans-" + b.w.name + "-seed" + std::to_string(b.seed) + ".jsonl"))
        << spans;
  }
  tear_down(b);

  // -- result ---------------------------------------------------------------
  char head[1024];
  std::snprintf(head, sizeof(head),
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"fixture\": {\"file\": \"%s\", \"classes\": %zu, \"content_checksum\": "
                "\"%016llx\", \"store_version\": %llu}, "
                "\"hardware\": {\"cpu\": \"%s\", \"nproc\": %u, \"gemm_kernel\": \"%s\", "
                "\"gemm_int8_kernel\": \"%s\", \"hamming_kernel\": \"%s\", \"compute_pool\": %zu, "
                "\"build_type\": \"%s\"}, "
                "\"generator\": {\"processes\": 1, \"threads\": 1, \"client_reader_threads\": 1, "
                "\"connections\": 1, \"cpus\": \"%u\"}, \"server_cpus\": \"0-%u\", ",
                b.w.name.c_str(), static_cast<unsigned long long>(b.seed), trace ? 1 : 0,
                fixture.c_str(), info.n_classes,
                static_cast<unsigned long long>(info.content_checksum),
                static_cast<unsigned long long>(info.store_version), json_escape(cpu_model()).c_str(),
                std::thread::hardware_concurrency(), tensor::gemm_kernel_name(),
                tensor::gemm_int8_kernel_name(), hdc::hamming_kernel_name(), util::worker_count(),
                SERVEBENCH_BUILD_TYPE, n_cpus() - 1, n_cpus() > 1 ? n_cpus() - 2 : 0);
  const std::string mjson = metrics_json(metrics);
  // CPU steal over the timed phases; a run above the limit is marked as not
  // comparable with other runs, since the whole VM ran slower.
  const double steal = steal_share(ticks0, ticks1);
  const bool comparable = steal >= 0.0 && steal <= kMaxComparableSteal;
  if (!comparable)
    std::fprintf(stderr,
                 "servebench: host CPU steal %.4f over the timed phases (limit %.2f); "
                 "this run's timings are not comparable\n",
                 steal, kMaxComparableSteal);
  std::snprintf(buf, sizeof(buf),
                "\"host\": {\"steal_share\": %.4f, \"steal_limit\": %.2f, \"comparable\": %s}, "
                "\"wall_s\": %.2f, \"first_error\": \"%s\", ",
                steal, kMaxComparableSteal, comparable ? "true" : "false",
                ms_between(started, Clock::now()) / 1e3, json_escape(b.first_error).c_str());
  const std::string detail = std::string(head) + extra + buf;
  std::snprintf(buf, sizeof(buf), "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                b.correct ? "true" : "false", attempted, failed);
  const std::string result = std::string(buf) + "\"metrics\": " + mjson + "}";
  if (!out.empty()) {
    std::filesystem::create_directories(out);
    std::ofstream(out / ("result-" + b.w.name + "-seed" + std::to_string(b.seed) + "-trace" +
                         (trace ? "1" : "0") + ".json"))
        << detail << "\"result\": " << result << "}\n";
  }
  std::printf("servebench detail: %s\"result\": %s}\n", detail.c_str(), result.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return b.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servebench fixture|run --key=value...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const util::ArgMap args(argc, argv);
  try {
    if (mode == "fixture") return make_fixture(args);
    if (mode == "run") return run(args);
    std::fprintf(stderr, "servebench: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 3;
  }
}
