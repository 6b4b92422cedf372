// Open-loop network-serving load generator for the HDCN wire protocol
// (docs/protocol.md): the serving stack's end-to-end latency/goodput bench.
//
// Unlike the in-process serving storms (bench_serving_throughput), requests
// here arrive as a *Poisson process at a fixed offered rate*, independent
// of how fast the server answers — the open-loop discipline that actually
// exposes tail latency and overload behaviour (a closed loop self-throttles
// and hides both). The bench
//
//   1. calibrates peak loopback throughput with a pipelined burst,
//   2. sweeps offered load (fractions of the calibrated peak, or an
//      explicit --rates=r1,r2,... list) measuring achieved rate, goodput,
//      p50/p99/p999 client-observed latency and the status mix,
//   3. pushes past the peak into overload and checks that admission
//      control answers with named kOverloaded rejections (bounded queue →
//      fast rejects, not collapse), and
//   4. (self-hosted mode) asserts the network-served top-k is bit-identical
//      to in-process InferenceEngine::topk_batch on BOTH scoring paths.
//
// Self-hosted (default): trains a small model (or --snapshot=model.hdcsnap),
// registers it under float + binary keys and serves it from an in-process
// NetServer over loopback. Against a live server: --connect=HOST:PORT
// [--key=m0] [--dim=256] (embeddings are random; only transport/latency is
// scored, not accuracy).
//
// --input=embedding (default) streams [d] embedding requests — the wire +
// batching + scoring path. --input=image streams [3,S,S] images through
// the CNN embed stage as well (far lower peak on a small host).
//
// Gates for CI: --min-goodput=R fails the run when the best sustained
// goodput is below R req/s; --require-zero-transport fails it on any
// transport error anywhere in the sweep. --json=BENCH_netserve.json writes
// the artifact.
//
//   ./bench_netserve [--connect=HOST:PORT] [--input=embedding|image]
//                    [--connections=2] [--duration=1.5] [--rates=...]
//                    [--k=1] [--queue-depth=1024] [--batch=16]
//                    [--json=BENCH_netserve.json] [--min-goodput=0]
//                    [--require-zero-transport] [--seed=1]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/model_registry.hpp"
#include "tensor/gemm.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hdczsc;

namespace {

using Clock = std::chrono::steady_clock;

/// Copy row `i` of a [P, ...] pool into its own request tensor (shared
/// storage — requests only read the input).
nn::Tensor slice_row(const nn::Tensor& pool, std::size_t i) {
  tensor::Shape shape(pool.shape().begin() + 1, pool.shape().end());
  std::size_t per = 1;
  for (std::size_t s : shape) per *= s;
  nn::Tensor out(shape);
  std::copy(pool.data() + i * per, pool.data() + (i + 1) * per, out.data());
  return out;
}

/// In-flight (send-time, future) pairs handed from the paced generator to
/// the drain thread of one connection.
struct Pending {
  Clock::time_point sent;
  std::future<serve::InferResult> fut;
};

struct Channel {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> q;
  bool closed = false;

  void push(Pending p) {
    {
      std::lock_guard<std::mutex> guard(mu);
      q.push_back(std::move(p));
    }
    cv.notify_one();
  }
  bool pop(Pending& out) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !q.empty() || closed; });
    if (q.empty()) return false;
    out = std::move(q.front());
    q.pop_front();
    return true;
  }
  void close() {
    {
      std::lock_guard<std::mutex> guard(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

struct LoadPoint {
  double offered_rps = 0.0;   ///< target arrival rate of the Poisson process
  double achieved_rps = 0.0;  ///< what the generator actually sent
  double goodput_rps = 0.0;   ///< kOk responses per wall second
  std::size_t sent = 0, ok = 0, rejected = 0, transport = 0, other = 0;
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0, max_ms = 0.0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

/// One open-loop measurement: `n_conns` connections, each with a paced
/// generator thread (exponential inter-arrivals at offered/n_conns) and a
/// drain thread recording client-observed completion latency. Arrivals the
/// generator falls behind on are sent immediately (open loop: the schedule
/// never waits for the server).
LoadPoint run_open_loop(const std::string& host, std::uint16_t port, const std::string& key,
                        const std::vector<nn::Tensor>& inputs, std::size_t k,
                        double offered_rps, double duration_s, std::size_t n_conns,
                        std::uint64_t seed) {
  struct ConnStats {
    std::vector<double> lat_ms;
    std::size_t sent = 0, ok = 0, rejected = 0, transport = 0, other = 0;
  };
  std::vector<ConnStats> stats(n_conns);
  std::vector<std::thread> threads;
  util::Timer wall;
  for (std::size_t c = 0; c < n_conns; ++c) {
    threads.emplace_back([&, c] {
      ConnStats& st = stats[c];
      net::NetClient client(host, port);
      Channel channel;
      std::thread drain([&] {
        Pending p;
        while (channel.pop(p)) {
          const serve::InferResult r = p.fut.get();
          const double ms =
              1e3 * std::chrono::duration<double>(Clock::now() - p.sent).count();
          switch (r.status) {
            case serve::InferStatus::kOk:
              ++st.ok;
              st.lat_ms.push_back(ms);
              break;
            case serve::InferStatus::kOverloaded:
              ++st.rejected;
              break;
            case serve::InferStatus::kTransport:
              ++st.transport;
              break;
            default:
              ++st.other;
          }
        }
      });

      util::Rng rng(seed + 0x9E37ULL * (c + 1));
      const double rate = offered_rps / static_cast<double>(n_conns);
      const Clock::time_point t0 = Clock::now();
      double next_s = 0.0;
      for (;;) {
        next_s += -std::log(1.0 - rng.next_double()) / rate;
        if (next_s >= duration_s) break;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(next_s)));
        serve::InferRequest req;
        req.model_key = key;
        req.input = inputs[(st.sent * n_conns + c) % inputs.size()];
        req.k = k;
        const Clock::time_point sent_at = Clock::now();
        Pending p{sent_at, client.submit(std::move(req))};
        channel.push(std::move(p));
        ++st.sent;
      }
      channel.close();
      drain.join();
      client.close();
    });
  }
  for (auto& th : threads) th.join();
  const double elapsed = wall.seconds();

  LoadPoint point;
  point.offered_rps = offered_rps;
  std::vector<double> lat;
  for (const auto& st : stats) {
    point.sent += st.sent;
    point.ok += st.ok;
    point.rejected += st.rejected;
    point.transport += st.transport;
    point.other += st.other;
    lat.insert(lat.end(), st.lat_ms.begin(), st.lat_ms.end());
  }
  point.achieved_rps = static_cast<double>(point.sent) / duration_s;
  point.goodput_rps = static_cast<double>(point.ok) / elapsed;
  std::sort(lat.begin(), lat.end());
  point.p50_ms = percentile(lat, 0.50);
  point.p99_ms = percentile(lat, 0.99);
  point.p999_ms = percentile(lat, 0.999);
  point.max_ms = lat.empty() ? 0.0 : lat.back();
  return point;
}

/// Pipelined closed-window burst: an upper-bound throughput estimate used
/// to place the open-loop sweep points.
double calibrate_peak(const std::string& host, std::uint16_t port, const std::string& key,
                      const std::vector<nn::Tensor>& inputs, std::size_t k,
                      std::size_t n_requests) {
  net::NetClient client(host, port);
  util::Timer t;
  std::vector<std::future<serve::InferResult>> inflight;
  inflight.reserve(128);
  for (std::size_t i = 0; i < n_requests; ++i) {
    serve::InferRequest req;
    req.model_key = key;
    req.input = inputs[i % inputs.size()];
    req.k = k;
    inflight.push_back(client.submit(std::move(req)));
    if (inflight.size() >= 128) {
      for (auto& f : inflight) f.get();
      inflight.clear();
    }
  }
  for (auto& f : inflight) f.get();
  const double rps = static_cast<double>(n_requests) / t.seconds();
  client.close();
  return rps;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  const std::string input_kind = args.get_str("input", "embedding");
  if (input_kind != "embedding" && input_kind != "image") {
    std::fprintf(stderr, "bench_netserve: unknown --input=%s (embedding|image)\n",
                 input_kind.c_str());
    return 2;
  }
  const std::size_t n_conns =
      static_cast<std::size_t>(std::max<long>(1, args.get_int("connections", 2)));
  const double duration_s = args.get_double("duration", 1.5);
  const std::size_t topk = static_cast<std::size_t>(std::max<long>(1, args.get_int("k", 1)));
  const double min_goodput = args.get_double("min-goodput", 0.0);
  const bool require_zero_transport = args.has("require-zero-transport");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  util::Timer total_wall;
  // This process's kernels. They are the server's only when self-hosted;
  // against --connect they name the client's, and are labelled so.
  const bool self_hosted = !args.has("connect");
  const char* kernels_label = self_hosted ? "kernels" : "client kernels";
  std::printf("%s: gemm=%s hamming=%s encode=%s\n", kernels_label, tensor::gemm_kernel_name(),
              hdc::hamming_kernel_name(), serve::encode_kernel_name());

  // -- 1. a server to load: external (--connect) or self-hosted --------------
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string key = args.get_str("key", "m0");
  std::size_t dim = static_cast<std::size_t>(args.get_int("dim", 256));
  std::size_t image_size = 32;

  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<net::NetServer> server;
  std::string binary_key, float_key;
  if (self_hosted) {
    if (args.has("snapshot")) {
      snapshot = serve::load_snapshot_file(args.get_str("snapshot", ""));
      std::printf("loaded snapshot: %zu classes, d=%zu\n", snapshot->n_classes(),
                  snapshot->dim());
    } else {
      core::PipelineConfig cfg;
      cfg.n_classes = static_cast<std::size_t>(args.get_int("classes", 16));
      cfg.images_per_class = 4;
      cfg.train_instances = 3;
      cfg.image_size = 32;
      cfg.split = "zs";
      cfg.zs_train_classes = cfg.n_classes / 2;
      cfg.model.image.proj_dim = dim;
      cfg.run_phase1 = false;
      cfg.run_phase2 = false;
      cfg.phase3 = {2, 16, 1e-2f, 1e-4f, 5.0f, true, false};
      cfg.augment.enabled = false;
      cfg.seed = seed;
      std::printf("training a %zu-class model (d=%zu)...\n", cfg.n_classes, dim);
      auto tp = core::run_pipeline_trained(cfg);
      // Expansion 1 = direct d-bit sign codes: no per-query LSH projection,
      // the high-throughput serving configuration. x8 codes buy cosine
      // fidelity with the projection: one d=256 query encodes in ~0.5 us at
      // x1 and ~35 us at x8 on the avx512 encode kernel (~66 us on avx2;
      // median of one-row encode_rows calls, Release build, one thread of a
      // 4-vCPU AVX-512 Xeon).
      const std::size_t expansion =
          static_cast<std::size_t>(std::max<long>(1, args.get_int("expansion", 1)));
      snapshot = std::make_shared<const serve::ModelSnapshot>(
          tp.model, tp.test_class_attributes, expansion, /*shards=*/1);
    }
    dim = snapshot->dim();
    image_size = static_cast<std::size_t>(args.get_int("image-size", 32));

    serve::ServerConfig scfg;
    scfg.n_workers = static_cast<std::size_t>(args.get_int("workers", 1));
    scfg.batch.max_batch = static_cast<std::size_t>(args.get_int("batch", 16));
    scfg.batch.max_delay_ms = args.get_double("delay-ms", 0.5);
    scfg.batch.max_queue_depth =
        static_cast<std::size_t>(args.get_int("queue-depth", 1024));
    registry = std::make_unique<serve::ModelRegistry>(scfg);
    binary_key = "bench.binary";
    float_key = "bench.float";
    registry->load(binary_key, snapshot, serve::ScoringMode::kBinaryHamming);
    registry->load(float_key, snapshot, serve::ScoringMode::kFloatCosine);
    key = binary_key;

    net::NetServerConfig ncfg;
    ncfg.n_io_threads = static_cast<std::size_t>(args.get_int("io-threads", 1));
    server = std::make_unique<net::NetServer>(*registry, ncfg);
    server->start();
    port = server->port();
    std::printf("self-hosted server on 127.0.0.1:%u (keys %s, %s; queue depth %zu)\n",
                static_cast<unsigned>(port), binary_key.c_str(), float_key.c_str(),
                scfg.batch.max_queue_depth);
  } else {
    const std::string connect = args.get_str("connect", "");
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bench_netserve: --connect wants HOST:PORT\n");
      return 2;
    }
    host = connect.substr(0, colon);
    port = static_cast<std::uint16_t>(std::atoi(connect.c_str() + colon + 1));
    std::printf("targeting external server %s:%u (key %s, d=%zu)\n", host.c_str(),
                static_cast<unsigned>(port), key.c_str(), dim);
  }

  // -- 2. the request pool ----------------------------------------------------
  util::Rng rng(seed ^ 0xBE7C4ULL);
  const std::size_t pool_n = 64;
  nn::Tensor pool = input_kind == "embedding"
                        ? nn::Tensor::randn({pool_n, dim}, rng)
                        : nn::Tensor::randn({pool_n, 3, image_size, image_size}, rng);
  std::vector<nn::Tensor> inputs;
  inputs.reserve(pool_n);
  for (std::size_t i = 0; i < pool_n; ++i) inputs.push_back(slice_row(pool, i));

  // -- 3. bit-identity: network top-k == in-process engine, both paths -------
  bool identical_binary = true, identical_float = true;
  if (self_hosted) {
    nn::Tensor probe = input_kind == "embedding" ? pool : snapshot->embed(pool);
    const std::size_t check_k = std::min<std::size_t>(5, snapshot->n_classes());
    for (const bool binary : {true, false}) {
      const std::string& mkey = binary ? binary_key : float_key;
      bool& identical = binary ? identical_binary : identical_float;
      const auto engine = registry->engine(mkey);
      net::NetClient client(host, port);
      for (std::size_t i = 0; i < pool_n && identical; ++i) {
        // Reference at the same batch shape the blocking round-trip
        // produces server-side ([1, d]): float GEMM accumulation order is
        // batch-shape-dependent, so "bit-identical" is a per-request
        // statement, request in == request out.
        nn::Tensor row({1, dim});
        std::copy(probe.data() + i * dim, probe.data() + (i + 1) * dim, row.data());
        const auto expected = engine->topk_batch(row, check_k);
        serve::InferRequest req;
        req.model_key = mkey;
        req.input = slice_row(probe, i);
        req.k = check_k;
        const serve::InferResult r = client.infer(std::move(req));
        if (!r.ok() || r.topk.size() != expected[0].size()) {
          identical = false;
          break;
        }
        for (std::size_t j = 0; j < r.topk.size(); ++j)
          if (r.topk[j].label != expected[0][j].label ||
              r.topk[j].score != expected[0][j].score)
            identical = false;
      }
      client.close();
      std::printf("network top-%zu == in-process engine (%s): %s\n", check_k,
                  binary ? "binary-hamming" : "float-cosine",
                  identical ? "PASS" : "FAIL");
    }
  }

  // -- 4. calibrate, then sweep offered load ----------------------------------
  std::printf("calibrating peak loopback throughput (pipelined burst)...\n");
  const std::size_t cal_requests = static_cast<std::size_t>(
      std::max<long>(512, args.get_int("calibrate-requests", 4096)));
  const double peak_rps = calibrate_peak(host, port, key, inputs, topk, cal_requests);
  std::printf("calibrated peak: %.0f req/s\n", peak_rps);

  std::vector<double> rates;
  std::vector<bool> is_overload;
  const std::string rates_csv = args.get_str("rates", "");
  if (!rates_csv.empty()) {
    std::size_t pos = 0;
    while (pos < rates_csv.size()) {
      const std::size_t comma = rates_csv.find(',', pos);
      rates.push_back(std::atof(rates_csv.substr(pos, comma - pos).c_str()));
      is_overload.push_back(rates.back() > peak_rps);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  } else {
    for (const double frac : {0.25, 0.5, 0.75, 0.9}) {
      rates.push_back(frac * peak_rps);
      is_overload.push_back(false);
    }
    rates.push_back(1.4 * peak_rps);  // past the calibrated peak: overload
    is_overload.push_back(true);
  }

  util::Table table("open-loop load sweep — " + input_kind + " input, " +
                    std::to_string(n_conns) + " connection(s), " +
                    util::Table::num(duration_s, 1) + " s per point");
  table.set_header({"offered r/s", "achieved r/s", "goodput r/s", "ok", "rejected",
                    "transport", "p50 ms", "p99 ms", "p999 ms"});
  std::vector<LoadPoint> sweep;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("offered %.0f req/s%s...\n", rates[i],
                is_overload[i] ? " (overload point)" : "");
    LoadPoint p = run_open_loop(host, port, key, inputs, topk, rates[i], duration_s,
                                n_conns, seed + i);
    sweep.push_back(p);
    table.add_row({util::Table::num(p.offered_rps, 0), util::Table::num(p.achieved_rps, 0),
                   util::Table::num(p.goodput_rps, 0), std::to_string(p.ok),
                   std::to_string(p.rejected), std::to_string(p.transport),
                   util::Table::num(p.p50_ms, 2), util::Table::num(p.p99_ms, 2),
                   util::Table::num(p.p999_ms, 2)});
  }
  table.print();

  double peak_goodput = 0.0;
  std::size_t transport_total = 0, other_total = 0;
  for (const auto& p : sweep) {
    peak_goodput = std::max(peak_goodput, p.goodput_rps);
    transport_total += p.transport;
    other_total += p.other;
  }
  const LoadPoint* overload_point = nullptr;
  for (std::size_t i = 0; i < sweep.size(); ++i)
    if (is_overload[i]) overload_point = &sweep[i];

  // -- 5. verdicts -------------------------------------------------------------
  const bool identity_pass = identical_binary && identical_float;
  const bool transport_pass = !require_zero_transport || transport_total == 0;
  const bool goodput_pass = min_goodput <= 0.0 || peak_goodput >= min_goodput;
  // Overload must answer with named rejections (or absorb the offered rate
  // entirely — possible when the open loop cannot generate past the
  // server's true capacity on a shared host).
  const bool overload_pass =
      overload_point == nullptr || overload_point->rejected > 0 ||
      overload_point->goodput_rps >= 0.95 * overload_point->achieved_rps;

  std::printf("\npeak goodput: %.0f req/s%s\n", peak_goodput,
              min_goodput > 0.0
                  ? (" (target >= " + util::Table::num(min_goodput, 0) + ": " +
                     (goodput_pass ? "PASS" : "FAIL") + ")").c_str()
                  : "");
  if (overload_point != nullptr)
    std::printf("overload @ %.0f req/s: %zu kOverloaded rejections, goodput %.0f req/s, "
                "p99 %.2f ms (%s)\n",
                overload_point->offered_rps, overload_point->rejected,
                overload_point->goodput_rps, overload_point->p99_ms,
                overload_pass ? "PASS" : "FAIL");
  std::printf("transport errors across the sweep: %zu%s\n", transport_total,
              require_zero_transport ? (transport_pass ? " (PASS)" : " (FAIL)") : "");
  std::printf("wall time: %.1f s\n", total_wall.seconds());

  // -- 6. artifact ------------------------------------------------------------
  if (args.has("json")) {
    const std::string path = args.get_str("json", "BENCH_netserve.json");
    FILE* j = std::fopen(path.c_str(), "w");
    if (!j) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(j, "{\n  \"bench\": \"netserve\",\n");
    std::fprintf(j,
                 "  \"%s\": {\"gemm_kernel\": \"%s\", \"hamming_kernel\": \"%s\", "
                 "\"encode_kernel\": \"%s\"},\n",
                 self_hosted ? "fingerprint" : "client_fingerprint", tensor::gemm_kernel_name(),
                 hdc::hamming_kernel_name(), serve::encode_kernel_name());
    std::fprintf(j, "  \"input\": \"%s\",\n  \"connections\": %zu,\n", input_kind.c_str(),
                 n_conns);
    std::fprintf(j, "  \"self_hosted\": %s,\n  \"k\": %zu,\n  \"dim\": %zu,\n",
                 self_hosted ? "true" : "false", topk, dim);
    std::fprintf(j, "  \"duration_s\": %.2f,\n  \"calibrated_peak_rps\": %.1f,\n",
                 duration_s, peak_rps);
    std::fprintf(j, "  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto& p = sweep[i];
      std::fprintf(j,
                   "    {\"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
                   "\"goodput_rps\": %.1f, \"ok\": %zu, \"rejected\": %zu, "
                   "\"transport_errors\": %zu, \"other_errors\": %zu, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
                   "\"max_ms\": %.3f, \"overload\": %s}%s\n",
                   p.offered_rps, p.achieved_rps, p.goodput_rps, p.ok, p.rejected,
                   p.transport, p.other, p.p50_ms, p.p99_ms, p.p999_ms, p.max_ms,
                   is_overload[i] ? "true" : "false",
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    if (overload_point != nullptr)
      std::fprintf(j,
                   "  \"overload\": {\"offered_rps\": %.1f, \"rejected\": %zu, "
                   "\"goodput_rps\": %.1f, \"p99_ms\": %.3f, \"pass\": %s},\n",
                   overload_point->offered_rps, overload_point->rejected,
                   overload_point->goodput_rps, overload_point->p99_ms,
                   overload_pass ? "true" : "false");
    if (self_hosted)
      std::fprintf(j,
                   "  \"bit_identity\": {\"binary_hamming\": %s, \"float_cosine\": %s},\n",
                   identical_binary ? "true" : "false", identical_float ? "true" : "false");
    std::fprintf(j,
                 "  \"acceptance\": {\"peak_goodput_rps\": %.1f, \"min_goodput_rps\": %.1f, "
                 "\"transport_errors\": %zu, \"pass\": %s}\n",
                 peak_goodput, min_goodput, transport_total,
                 identity_pass && transport_pass && goodput_pass && overload_pass
                     ? "true"
                     : "false");
    std::fprintf(j, "}\n");
    std::fclose(j);
    std::printf("wrote %s\n", path.c_str());
  }

  if (server) server->stop();
  if (registry) registry->stop_all();
  return identity_pass && transport_pass && goodput_pass && overload_pass ? 0 : 1;
}
