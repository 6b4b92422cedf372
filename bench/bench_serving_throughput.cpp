// Serving-throughput Pareto: dynamic batching vs. single-request serving,
// and float-cosine vs. bit-packed binary prototype scoring.
//
// Three serving configurations are measured end-to-end under a concurrent
// request storm:
//  * direct      — no snapshot, no batching: every request pays a full
//                  ZscModel::class_logits (which re-encodes ϕ(A) and
//                  re-normalizes the prototypes per call) — what serving
//                  looked like before src/serve/ existed.
//  * engine b=1  — frozen snapshot, but one request per forward.
//  * engine b=N  — snapshot + DynamicBatcher coalescing at max_batch N.
// plus a scoring-stage microbenchmark isolating the per-query cost of the
// float cosine sweep vs. the XOR+popcount Hamming sweep, a cold-start
// section (retrain vs. .hdcsnap snapshot load) and a multi-model routing
// overhead measurement (ModelRegistry vs. a bare ServerRuntime).
//
// A sharded-scan section measures scatter/gather top-k retrieval
// (serve/sharded_store) against the flat full-logits + argsort path over a
// synthetic very-large label space: a (classes × shards) throughput curve
// on both scoring paths, written to its own artifact
// (--sharded-json=BENCH_sharded.json) so the scaling curve lands next to
// BENCH_serving.json.
//
// A GZSL section serves the *joint* seen+unseen label space and sweeps the
// calibrated-stacking penalty: per-domain accuracy, harmonic mean and
// served throughput per penalty point (the handicap must be telemetry-
// visible and throughput-neutral), plus a bit-identity check of the
// penalized sharded binary top-k against the penalized float argsort —
// written to --gzsl-json=BENCH_gzsl.json.
//
// An observability-overhead section storms the same runtime with the full
// instrumentation stack live (stats + per-request stage tracing + kernel
// profiling histograms) and with tracing/profiling off, and reports the
// throughput delta — the "metrics must not distort the p99 they report"
// acceptance number (target ≤ 3 %).
//
// Exit status: non-zero when either bitwise check fails — the sharded S=4
// binary top-k against the flat argsort, or the penalized top-k against the
// penalized argsort. Both are noise-free; the throughput PASS/FAIL rows are
// informational.
//
// --json=PATH writes every measured number as a machine-readable JSON
// document (the BENCH_serving.json CI artifact); --metrics-json=PATH
// additionally dumps every metric the instrumented storm registered
// (obs::to_json — the metrics.json CI artifact).
//
//   ./bench_serving_throughput [--classes=60] [--requests=512] [--clients=4]
//                              [--models=4] [--json=BENCH_serving.json]
//                              [--sharded-json=BENCH_sharded.json]
//                              [--gzsl-json=BENCH_gzsl.json]
//                              [--metrics-json=metrics.json]
//                              [--topk=10] [--scan-queries=48]
#include <algorithm>
#include <cstdio>
#include <future>
#include <numeric>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "serve/model_registry.hpp"
#include "serve/sharded_store.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hdczsc;

namespace {

/// Copy image `b` of a [N, 3, S, S] batch into its own [3, S, S] tensor.
nn::Tensor slice_image(const nn::Tensor& images, std::size_t b) {
  const std::size_t per = images.numel() / images.size(0);
  nn::Tensor out({images.size(1), images.size(2), images.size(3)});
  const float* src = images.data() + b * per;
  std::copy(src, src + per, out.data());
  return out;
}

struct RunResult {
  double throughput_rps = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
  double mean_batch = 0.0;
};

/// The one request-storm loop every serving measurement shares (so the
/// bare-runtime and registry numbers stay comparable): `clients` threads,
/// each submitting async bursts so the queue stays deep enough for full
/// coalescing windows. `submit(req)` maps a global request index to a
/// prediction future. Returns wall seconds for the whole storm.
template <typename Submit>
double storm_wall_seconds(Submit&& submit, std::size_t n_requests, std::size_t clients) {
  const std::size_t per_client = n_requests / clients;
  const std::size_t burst = 16;
  util::Timer t;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::invoke_result_t<Submit&, std::size_t>> inflight;
      for (std::size_t r = 0; r < per_client; ++r) {
        inflight.push_back(submit(c * per_client + r));
        if (inflight.size() >= burst) {
          for (auto& f : inflight) f.get();
          inflight.clear();
        }
      }
      for (auto& f : inflight) f.get();
    });
  }
  for (auto& th : threads) th.join();
  return t.seconds();
}

/// Storm a single runtime; latency/batch detail comes from its stats.
RunResult storm(serve::ServerRuntime& server, const nn::Tensor& images,
                std::size_t n_requests, std::size_t clients) {
  server.stats().reset();
  const std::size_t n_images = images.size(0);
  storm_wall_seconds(
      [&](std::size_t req) {
        serve::InferRequest r;
        r.input = slice_image(images, req % n_images);
        return server.submit(std::move(r));
      },
      n_requests, clients);
  const auto s = server.stats().summary();
  return {s.throughput_rps, s.p50_latency_ms, s.p99_latency_ms, s.mean_batch_size};
}

/// Storm the registry, round-robining requests across `keys`. Returns
/// wall-clock requests/s (the cross-model aggregate the per-model stats
/// can't see).
double storm_registry(serve::ModelRegistry& registry, const std::vector<std::string>& keys,
                      const nn::Tensor& images, std::size_t n_requests, std::size_t clients) {
  const std::size_t n_images = images.size(0);
  const std::size_t per_client = n_requests / clients;
  const double secs = storm_wall_seconds(
      [&](std::size_t req) {
        serve::InferRequest r;
        r.model_key = keys[req % keys.size()];
        r.input = slice_image(images, req % n_images);
        return registry.submit(std::move(r));
      },
      n_requests, clients);
  return static_cast<double>(per_client * clients) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgMap args(argc, argv);
  // CUB-scale serving: ~100 classes in the served label space (the paper's
  // ZS test split is 50 of 200; heavy-traffic serving would cover more).
  const std::size_t n_classes = static_cast<std::size_t>(args.get_int("classes", 140));
  const std::size_t n_train = static_cast<std::size_t>(args.get_int("train-classes", 40));
  const std::size_t n_requests = static_cast<std::size_t>(args.get_int("requests", 512));
  const std::size_t clients = static_cast<std::size_t>(args.get_int("clients", 4));
  util::Timer wall;
  std::printf("kernels: gemm=%s hamming=%s encode=%s\n", tensor::gemm_kernel_name(),
              hdc::hamming_kernel_name(), serve::encode_kernel_name());

  // -- train a small model, freeze a snapshot --------------------------------
  core::PipelineConfig cfg;
  cfg.n_classes = n_classes;
  cfg.images_per_class = 4;
  cfg.train_instances = 3;
  cfg.image_size = 32;
  cfg.split = "zs";
  cfg.zs_train_classes = n_train;
  cfg.model.image.proj_dim = 256;
  cfg.run_phase1 = false;
  cfg.run_phase2 = false;
  cfg.phase3 = {3, 16, 1e-2f, 1e-4f, 5.0f, true, false};
  cfg.augment.enabled = false;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.snapshot_gzsl = true;  // also hand back the seen-domain artifacts (GZSL section)
  std::printf("training (%zu classes, %zu served)...\n", n_classes,
              n_classes - cfg.zs_train_classes);
  auto tp = core::run_pipeline_trained(cfg);
  const nn::Tensor& images = tp.test_set.images;
  const std::size_t n_served_classes = tp.test_class_attributes.size(0);

  auto snapshot = std::make_shared<const serve::ModelSnapshot>(
      tp.model, tp.test_class_attributes);

  // -- baseline: direct single-request class_logits --------------------------
  std::printf("measuring direct single-request baseline...\n");
  util::Timer t0;
  const std::size_t n_direct = std::min<std::size_t>(n_requests, 128);
  for (std::size_t r = 0; r < n_direct; ++r) {
    nn::Tensor one = slice_image(images, r % images.size(0))
                         .reshape({1, images.size(1), images.size(2), images.size(3)});
    auto logits = tp.model->class_logits(one, tp.test_class_attributes, false);
    tensor::argmax_rows(logits);
  }
  const double direct_rps = static_cast<double>(n_direct) / t0.seconds();
  const double direct_ms = 1e3 * t0.seconds() / static_cast<double>(n_direct);

  // -- serving configurations ------------------------------------------------
  util::Table table("serving throughput — " + std::to_string(n_requests) + " requests, " +
                    std::to_string(clients) + " client threads, " +
                    std::to_string(n_served_classes) + " classes");
  table.set_header({"config", "scoring", "max batch", "req/s", "p50 ms", "p99 ms",
                    "mean batch", "vs direct"});
  table.add_row({"direct (no snapshot)", "float-cosine", "1", util::Table::num(direct_rps, 1),
                 util::Table::num(direct_ms, 2), util::Table::num(direct_ms, 2), "1.00",
                 "1.00x"});

  struct EngineRow {
    std::string scoring;
    std::size_t max_batch;
    RunResult r;
  };
  std::vector<EngineRow> engine_rows;
  double batched8_rps = 0.0;
  for (serve::ScoringMode mode :
       {serve::ScoringMode::kFloatCosine, serve::ScoringMode::kBinaryHamming}) {
    for (std::size_t max_batch : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                                  std::size_t{32}}) {
      auto engine = std::make_shared<const serve::InferenceEngine>(snapshot, mode);
      serve::ServerConfig scfg;
      scfg.n_workers = 1;
      scfg.batch.max_batch = max_batch;
      scfg.batch.max_delay_ms = 2.0;
      scfg.batch.max_queue_depth = 4096;
      serve::ServerRuntime server(engine, scfg);
      server.start();
      RunResult r = storm(server, images, n_requests, clients);
      server.stop();
      table.add_row({"engine", scoring_mode_name(mode), std::to_string(max_batch),
                     util::Table::num(r.throughput_rps, 1), util::Table::num(r.p50_ms, 2),
                     util::Table::num(r.p99_ms, 2), util::Table::num(r.mean_batch, 2),
                     util::Table::num(r.throughput_rps / direct_rps, 2) + "x"});
      engine_rows.push_back({scoring_mode_name(mode), max_batch, r});
      if (mode == serve::ScoringMode::kFloatCosine && max_batch == 8)
        batched8_rps = r.throughput_rps;
    }
  }
  table.print();

  // -- scoring-stage microbenchmark: float cosine vs. packed Hamming ---------
  nn::Tensor emb = snapshot->embed(images);
  const std::size_t n_queries = emb.size(0), d = emb.size(1);
  auto expanded = std::make_shared<const serve::ModelSnapshot>(
      tp.model, tp.test_class_attributes, 8);

  auto time_scoring = [&](auto&& score_one) {
    // Score row-by-row (the per-query serving view), repeated for stability.
    const std::size_t reps = 50;
    util::Timer t;
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (std::size_t i = 0; i < n_queries; ++i) score_one(i);
    return 1e6 * t.seconds() / static_cast<double>(reps * n_queries);
  };
  const auto& store1 = snapshot->prototypes();
  const auto& store8 = expanded->prototypes();
  auto row = [&](std::size_t i) {
    return tensor::Tensor({1, d},
                          std::vector<float>(emb.data() + i * d, emb.data() + (i + 1) * d));
  };
  const double us_float = time_scoring([&](std::size_t i) { store1.score_float(row(i)); });
  const double us_bin1 = time_scoring([&](std::size_t i) { store1.score_binary(row(i)); });
  const double us_bin8 = time_scoring([&](std::size_t i) { store8.score_binary(row(i)); });

  // Argmax agreement of each binary store with the float path.
  auto fl = tensor::argmax_rows(store1.score_float(emb));
  auto agreement = [&](const serve::PrototypeStore& st) {
    auto bl = tensor::argmax_rows(st.score_binary(emb));
    std::size_t a = 0;
    for (std::size_t i = 0; i < fl.size(); ++i) a += fl[i] == bl[i];
    return static_cast<double>(a) / static_cast<double>(fl.size());
  };

  const double agree1 = agreement(store1);
  const double agree8 = agreement(store8);
  util::Table pareto("prototype scoring Pareto — per-query scoring stage, C=" +
                     std::to_string(n_served_classes) + ", d=" + std::to_string(d));
  pareto.set_header({"path", "code bits", "us/query", "store bytes", "argmax agreement"});
  pareto.add_row({"float cosine", "-", util::Table::num(us_float, 2),
                  std::to_string(store1.float_bytes()), "1.000"});
  pareto.add_row({"binary hamming x1", std::to_string(store1.code_bits()),
                  util::Table::num(us_bin1, 2), std::to_string(store1.binary_bytes()),
                  util::Table::num(agree1, 3)});
  pareto.add_row({"binary hamming x8 (LSH)", std::to_string(store8.code_bits()),
                  util::Table::num(us_bin8, 2), std::to_string(store8.binary_bytes()),
                  util::Table::num(agree8, 3)});
  pareto.print();

  // -- cold start: retrain vs .hdcsnap load ----------------------------------
  const std::string snap_path = args.get_str("snapshot-path", "bench_serving.hdcsnap");
  util::Timer t_save;
  serve::save_snapshot_file(snap_path, *snapshot);
  const double save_s = t_save.seconds();
  util::Timer t_load;
  auto reloaded = serve::load_snapshot_file(snap_path);
  const double load_s = t_load.seconds();
  const double retrain_s = tp.result.train_seconds;
  std::remove(snap_path.c_str());

  util::Table cold("server cold start — " + std::to_string(n_served_classes) +
                   " served classes");
  cold.set_header({"path", "seconds", "vs retrain"});
  cold.add_row({"retrain from scratch", util::Table::num(retrain_s, 3), "1.00x"});
  cold.add_row({"snapshot save (once, offline)", util::Table::num(save_s, 3), "-"});
  cold.add_row({"snapshot load (per replica)", util::Table::num(load_s, 3),
                util::Table::num(retrain_s / load_s, 1) + "x faster"});
  cold.print();

  // -- multi-model routing overhead ------------------------------------------
  const std::size_t n_models =
      static_cast<std::size_t>(std::max<long>(1, args.get_int("models", 4)));
  serve::ServerConfig rcfg;
  rcfg.n_workers = 1;
  rcfg.batch.max_batch = 8;
  rcfg.batch.max_delay_ms = 2.0;
  rcfg.batch.max_queue_depth = 4096;

  auto registry_rps = [&](std::size_t k) {
    serve::ModelRegistry registry(rcfg);
    std::vector<std::string> keys;
    for (std::size_t m = 0; m < k; ++m) {
      keys.push_back("m" + std::to_string(m));
      registry.load(keys.back(), reloaded, serve::ScoringMode::kFloatCosine);
    }
    const double rps = storm_registry(registry, keys, images, n_requests, clients);
    registry.stop_all();
    return rps;
  };
  const double reg1_rps = registry_rps(1);
  const double regN_rps = registry_rps(n_models);
  const double routing_overhead_pct = 100.0 * (1.0 - reg1_rps / batched8_rps);

  util::Table multi("multi-model routing — float cosine, max_batch=8");
  multi.set_header({"host", "models", "req/s", "vs bare runtime"});
  multi.add_row({"bare ServerRuntime", "1", util::Table::num(batched8_rps, 1), "1.00x"});
  multi.add_row({"ModelRegistry", "1", util::Table::num(reg1_rps, 1),
                 util::Table::num(reg1_rps / batched8_rps, 2) + "x"});
  multi.add_row({"ModelRegistry", std::to_string(n_models), util::Table::num(regN_rps, 1),
                 util::Table::num(regN_rps / batched8_rps, 2) + "x"});
  multi.print();

  // -- observability overhead: full instrumentation vs instrumentation off --
  // Same engine, same request set, two runtimes: one with per-request
  // stage tracing + kernel profiling live (every histogram/counter in the
  // stack recording), one with tracing and profiling disabled. The true
  // cost per request is sub-microsecond against hundreds of microseconds
  // of work, so a threaded open storm would drown it in scheduler noise;
  // instead a single thread enqueues the whole set and drains the
  // futures — the worker loop (the instrumented path) runs saturated and
  // the wall clock measures it, not client-thread scheduling. A discarded
  // warmup pass per side, then seven interleaved best-of passes so any
  // remaining drift hits both sides alike.
  std::printf("measuring observability overhead (tracing+profiling on vs off)...\n");
  auto obs_storm = [&](bool instrumented) {
    obs::set_profiling_enabled(instrumented);
    auto engine = std::make_shared<const serve::InferenceEngine>(snapshot,
                                                                 serve::ScoringMode::kFloatCosine);
    serve::ServerConfig ocfg;
    ocfg.n_workers = 1;
    ocfg.batch.max_batch = 8;
    ocfg.batch.max_delay_ms = 2.0;
    ocfg.batch.max_queue_depth = 4096;  // >= n_requests: the drain never rejects
    ocfg.tracing = instrumented;
    if (instrumented) ocfg.name = "obs_bench";  // registered series → exporter-visible
    serve::ServerRuntime server(engine, ocfg);
    server.start();
    const std::size_t n_images = images.size(0);
    util::Timer clock;
    std::vector<std::future<serve::InferResult>> futs;
    futs.reserve(n_requests);
    for (std::size_t r = 0; r < n_requests; ++r) {
      serve::InferRequest req;
      req.input = slice_image(images, r % n_images);
      futs.push_back(server.submit(std::move(req)));
    }
    for (auto& f : futs) f.get();
    const double secs = clock.seconds();
    RunResult r;
    r.throughput_rps = static_cast<double>(n_requests) / secs;
    r.p99_ms = server.stats().summary().p99_latency_ms;
    server.stop();
    obs::set_profiling_enabled(false);
    return r;
  };
  obs_storm(false);  // warmup: page in code + data, settle the scheduler
  obs_storm(true);
  double obs_off_rps = 0.0, obs_on_rps = 0.0, obs_on_p99 = 0.0;
  for (int pass = 0; pass < 7; ++pass) {
    obs_off_rps = std::max(obs_off_rps, obs_storm(false).throughput_rps);
    const RunResult on = obs_storm(true);
    if (on.throughput_rps > obs_on_rps) {
      obs_on_rps = on.throughput_rps;
      obs_on_p99 = on.p99_ms;
    }
  }
  const double obs_overhead_pct = 100.0 * (1.0 - obs_on_rps / obs_off_rps);
  const bool obs_pass = obs_overhead_pct <= 3.0;
  util::Table obs_tbl("observability overhead — float cosine, max_batch=8, best of 7");
  obs_tbl.set_header({"instrumentation", "req/s", "p99 ms", "overhead"});
  obs_tbl.add_row({"off (no tracing, no profiling)", util::Table::num(obs_off_rps, 1), "-",
                   "baseline"});
  obs_tbl.add_row({"on (stats+tracing+profiling)", util::Table::num(obs_on_rps, 1),
                   util::Table::num(obs_on_p99, 2),
                   util::Table::num(obs_overhead_pct, 2) + " %"});
  obs_tbl.print();

  // -- sharded scan: scatter/gather top-k vs flat full-logits retrieval ------
  // Synthetic very-large label spaces (no training needed: retrieval only
  // touches the frozen store), swept over (classes × shards) on both
  // scoring paths. The flat baseline is what serving did before sharding:
  // materialize full [B, C] logits, then argsort every class per query.
  const std::size_t scan_k = static_cast<std::size_t>(args.get_int("topk", 10));
  const std::size_t scan_q = static_cast<std::size_t>(args.get_int("scan-queries", 48));
  const std::size_t scan_d = 256;
  const std::vector<std::size_t> scan_classes = {1000, 4000, 12000};
  const std::vector<std::size_t> scan_shards = {1, 2, 4, 8};

  // Adaptive repetition: run each retrieval closure until ≥ 0.25 s of wall
  // time (≥ 2 reps), so cheap binary sweeps get stable timings without the
  // big float GEMMs repeating for seconds.
  auto queries_per_second = [&](auto&& run_once) {
    run_once();  // warm-up (touch the store once)
    util::Timer t;
    std::size_t reps = 0;
    do {
      run_once();
      ++reps;
    } while (t.seconds() < 0.25 || reps < 2);
    return static_cast<double>(reps * scan_q) / t.seconds();
  };

  struct ScanPoint {
    std::size_t classes, shards;
    double binary_qps, float_qps, binary_speedup, float_speedup;
  };
  std::vector<ScanPoint> curve;
  double accept_binary_speedup = 0.0;  // S=4 at the largest label space
  bool sharded_exact = true;
  util::Table sharded_tbl("sharded scan — top-" + std::to_string(scan_k) + " of C classes, " +
                          std::to_string(scan_q) + " queries, d=" + std::to_string(scan_d));
  sharded_tbl.set_header({"classes", "shards", "binary q/s", "vs flat", "float q/s",
                          "vs flat"});
  for (std::size_t c : scan_classes) {
    util::Rng srng(0x5ca1ab1eULL + c);
    const serve::PrototypeStore store(nn::Tensor::randn({c, scan_d}, srng), 4.0f);
    const nn::Tensor q = nn::Tensor::randn({scan_q, scan_d}, srng);

    const double flat_bin = queries_per_second(
        [&] { tensor::topk_rows(store.score_binary(q), scan_k); });
    const double flat_fl = queries_per_second(
        [&] { tensor::topk_rows(store.score_float(q), scan_k); });
    sharded_tbl.add_row({std::to_string(c), "flat", util::Table::num(flat_bin, 0), "1.00x",
                         util::Table::num(flat_fl, 0), "1.00x"});

    for (std::size_t s : scan_shards) {
      const serve::ShardedPrototypeStore sharded(store, s);
      const double bin = queries_per_second([&] { sharded.topk_binary(q, scan_k); });
      const double fl = queries_per_second([&] { sharded.topk_float(q, scan_k); });
      curve.push_back({c, s, bin, fl, bin / flat_bin, fl / flat_fl});
      sharded_tbl.add_row({std::to_string(c), std::to_string(s), util::Table::num(bin, 0),
                           util::Table::num(bin / flat_bin, 2) + "x",
                           util::Table::num(fl, 0),
                           util::Table::num(fl / flat_fl, 2) + "x"});
      if (c == scan_classes.back() && s == 4) {
        accept_binary_speedup = bin / flat_bin;
        // Exactness spot-check: the gathered top-k must equal the flat
        // argsort (binary path: bit-identical at any scale).
        const auto logits = store.score_binary(q);
        const auto hits = sharded.topk_binary(q, scan_k);
        for (std::size_t b = 0; b < scan_q && sharded_exact; ++b) {
          std::vector<std::size_t> order(c);
          const float* row = logits.data() + b * c;
          std::iota(order.begin(), order.end(), std::size_t{0});
          std::sort(order.begin(), order.end(), [row](std::size_t x, std::size_t y) {
            return row[x] > row[y] || (row[x] == row[y] && x < y);
          });
          for (std::size_t i = 0; i < scan_k; ++i)
            if (hits[b][i].label != order[i] || hits[b][i].score != row[order[i]])
              sharded_exact = false;
        }
      }
    }
  }
  sharded_tbl.print();
  std::printf("sharded top-k == flat argsort (binary, C=%zu, S=4): %s\n",
              scan_classes.back(), sharded_exact ? "PASS" : "FAIL");

  // -- sharded-scan artifact (BENCH_sharded.json, uploaded next to
  //    BENCH_serving.json) ----------------------------------------------------
  if (args.has("json") || args.has("sharded-json")) {
    const std::string spath = args.get_str("sharded-json", "BENCH_sharded.json");
    FILE* j = std::fopen(spath.c_str(), "w");
    if (!j) {
      std::fprintf(stderr, "cannot open %s\n", spath.c_str());
      return 1;
    }
    std::fprintf(j, "{\n  \"bench\": \"sharded_scan\",\n");
    std::fprintf(j, "  \"dim\": %zu,\n  \"topk\": %zu,\n  \"queries\": %zu,\n", scan_d,
                 scan_k, scan_q);
    std::fprintf(j, "  \"curve\": [\n");
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const auto& p = curve[i];
      std::fprintf(j,
                   "    {\"classes\": %zu, \"shards\": %zu, \"binary_qps\": %.1f, "
                   "\"binary_speedup_vs_flat\": %.3f, \"float_qps\": %.1f, "
                   "\"float_speedup_vs_flat\": %.3f}%s\n",
                   p.classes, p.shards, p.binary_qps, p.binary_speedup, p.float_qps,
                   p.float_speedup, i + 1 < curve.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    std::fprintf(j,
                 "  \"acceptance\": {\"classes\": %zu, \"shards\": 4, "
                 "\"binary_speedup_vs_flat\": %.3f, \"target\": 1.5, "
                 "\"exact_vs_flat_argsort\": %s, \"pass\": %s}\n",
                 scan_classes.back(), accept_binary_speedup,
                 sharded_exact ? "true" : "false",
                 accept_binary_speedup >= 1.5 && sharded_exact ? "true" : "false");
    std::fprintf(j, "}\n");
    std::fclose(j);
    std::printf("wrote %s\n", spath.c_str());
  }

  // -- GZSL serving: joint seen+unseen label space, calibrated stacking ------
  // The snapshot freezes both domains (seen classes first, partition mask
  // in the .hdcsnap v3 record); the penalty sweep shows the seen/unseen
  // accuracy trade the knob buys and that the handicap is throughput-
  // neutral (one integer offset per seen row on the binary path). Eval
  // sets: held-out *instances* of the training classes (seen domain) and
  // the held-out classes (unseen domain), joint labels seen-first.
  auto gzsl_snapshot = serve::make_gzsl_snapshot(tp.model, tp.seen_class_attributes,
                                                 tp.test_class_attributes, /*expansion=*/8);
  const std::size_t n_seen_classes = tp.seen_class_attributes.size(0);
  const data::Batch joint = core::joint_gzsl_eval_set(tp);
  const nn::Tensor& joint_images = joint.images;
  const std::vector<std::size_t>& joint_labels = joint.labels;

  const float gzsl_scale = gzsl_snapshot->scale();
  struct GzslPoint {
    double penalty, seen_acc, unseen_acc, harmonic, rps;
  };
  std::vector<GzslPoint> gzsl_curve;
  bool gzsl_exact = true;

  util::Table gz("GZSL serving — joint " + std::to_string(gzsl_snapshot->n_seen()) + "+" +
                 std::to_string(gzsl_snapshot->n_unseen()) +
                 " label space, binary-hamming, penalty sweep");
  gz.set_header({"penalty", "seen acc", "unseen acc", "harmonic mean", "req/s"});
  for (double frac : {0.0, 0.05, 0.15, 0.3, 0.6}) {
    const float p = static_cast<float>(frac) * gzsl_scale;
    auto gengine = std::make_shared<const serve::InferenceEngine>(
        gzsl_snapshot, serve::ScoringMode::kBinaryHamming, /*n_shards=*/1, p);

    // Per-domain accuracy of the penalized decisions (direct inference;
    // the storm below serves bit-identical ones).
    const auto preds = gengine->classify_batch(joint_images);
    std::size_t sn = 0, sok = 0, un = 0, uok = 0;
    for (std::size_t i = 0; i < joint_labels.size(); ++i) {
      const bool seen = joint_labels[i] < n_seen_classes;
      (seen ? sn : un) += 1;
      (seen ? sok : uok) += preds[i].label == joint_labels[i];
    }
    const double sa = sn ? static_cast<double>(sok) / static_cast<double>(sn) : 0.0;
    const double ua = un ? static_cast<double>(uok) / static_cast<double>(un) : 0.0;
    const double hm = sa + ua > 0.0 ? 2.0 * sa * ua / (sa + ua) : 0.0;

    serve::ServerConfig gcfg;
    gcfg.n_workers = 1;
    gcfg.batch.max_batch = 8;
    gcfg.batch.max_delay_ms = 2.0;
    gcfg.batch.max_queue_depth = 4096;
    serve::ServerRuntime server(gengine, gcfg);
    server.start();
    const RunResult r =
        storm(server, joint_images, std::max<std::size_t>(n_requests / 2, 128), clients);
    server.stop();

    gzsl_curve.push_back({static_cast<double>(p), sa, ua, hm, r.throughput_rps});
    gz.add_row({util::Table::num(p, 3), util::Table::num(sa, 3), util::Table::num(ua, 3),
                util::Table::num(hm, 3), util::Table::num(r.throughput_rps, 1)});

    // Exactness: the penalized sharded binary top-k must reproduce the
    // penalized float full-argsort (flat logits) bit-for-bit — the ISSUE
    // acceptance bar, re-checked here on real trained prototypes.
    if (frac == 0.15) {
      const serve::InferenceEngine sharded4(gzsl_snapshot,
                                            serve::ScoringMode::kBinaryHamming, 4, p);
      const std::size_t nq = std::min<std::size_t>(8, joint_images.size(0));
      nn::Tensor probe({nq, joint_images.size(1), joint_images.size(2),
                        joint_images.size(3)});
      std::copy(joint_images.data(), joint_images.data() + probe.numel(), probe.data());
      const auto hits = sharded4.topk_batch(probe, 5);
      const auto logits = sharded4.logits(probe);
      const std::size_t cc = logits.size(1);
      for (std::size_t b = 0; b < nq && gzsl_exact; ++b) {
        const float* row = logits.data() + b * cc;
        std::vector<std::size_t> order(cc);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [row](std::size_t x, std::size_t y) {
          return row[x] > row[y] || (row[x] == row[y] && x < y);
        });
        for (std::size_t i = 0; i < hits[b].size(); ++i)
          if (hits[b][i].label != order[i] || hits[b][i].score != row[order[i]])
            gzsl_exact = false;
      }
    }
  }
  gz.print();
  std::printf("penalized sharded top-k == penalized float argsort: %s\n",
              gzsl_exact ? "PASS" : "FAIL");

  // -- GZSL artifact (BENCH_gzsl.json, uploaded next to the others) ----------
  if (args.has("json") || args.has("gzsl-json")) {
    const std::string gpath = args.get_str("gzsl-json", "BENCH_gzsl.json");
    FILE* j = std::fopen(gpath.c_str(), "w");
    if (!j) {
      std::fprintf(stderr, "cannot open %s\n", gpath.c_str());
      return 1;
    }
    std::fprintf(j, "{\n  \"bench\": \"gzsl_serving\",\n");
    std::fprintf(j, "  \"seen_classes\": %zu,\n  \"unseen_classes\": %zu,\n",
                 gzsl_snapshot->n_seen(), gzsl_snapshot->n_unseen());
    std::fprintf(j, "  \"scale\": %.4f,\n  \"scoring\": \"binary-hamming\",\n",
                 static_cast<double>(gzsl_scale));
    std::fprintf(j, "  \"curve\": [\n");
    for (std::size_t i = 0; i < gzsl_curve.size(); ++i) {
      const auto& c = gzsl_curve[i];
      std::fprintf(j,
                   "    {\"penalty\": %.4f, \"seen_acc\": %.4f, \"unseen_acc\": %.4f, "
                   "\"harmonic_mean\": %.4f, \"rps\": %.1f}%s\n",
                   c.penalty, c.seen_acc, c.unseen_acc, c.harmonic, c.rps,
                   i + 1 < gzsl_curve.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    std::fprintf(j,
                 "  \"acceptance\": {\"penalized_topk_exact_vs_float_argsort\": %s, "
                 "\"pass\": %s}\n",
                 gzsl_exact ? "true" : "false", gzsl_exact ? "true" : "false");
    std::fprintf(j, "}\n");
    std::fclose(j);
    std::printf("wrote %s\n", gpath.c_str());
  }

  // -- machine-readable artifact (the BENCH_serving.json CI upload) ----------
  if (args.has("json")) {
    const std::string json_path = args.get_str("json", "BENCH_serving.json");
    FILE* j = std::fopen(json_path.c_str(), "w");
    if (!j) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(j, "{\n");
    std::fprintf(j, "  \"bench\": \"serving_throughput\",\n");
    std::fprintf(j,
                 "  \"fingerprint\": {\"gemm_kernel\": \"%s\", \"hamming_kernel\": \"%s\", "
                 "\"encode_kernel\": \"%s\"},\n",
                 tensor::gemm_kernel_name(), hdc::hamming_kernel_name(),
                 serve::encode_kernel_name());
    std::fprintf(j, "  \"requests\": %zu,\n  \"clients\": %zu,\n", n_requests, clients);
    std::fprintf(j, "  \"served_classes\": %zu,\n  \"dim\": %zu,\n", n_served_classes, d);
    std::fprintf(j, "  \"direct\": {\"rps\": %.2f, \"ms_per_request\": %.3f},\n",
                 direct_rps, direct_ms);
    std::fprintf(j, "  \"engine\": [\n");
    for (std::size_t i = 0; i < engine_rows.size(); ++i) {
      const auto& e = engine_rows[i];
      std::fprintf(j,
                   "    {\"scoring\": \"%s\", \"max_batch\": %zu, \"rps\": %.2f, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"mean_batch\": %.2f}%s\n",
                   e.scoring.c_str(), e.max_batch, e.r.throughput_rps, e.r.p50_ms,
                   e.r.p99_ms, e.r.mean_batch, i + 1 < engine_rows.size() ? "," : "");
    }
    std::fprintf(j, "  ],\n");
    std::fprintf(j,
                 "  \"scoring_us_per_query\": {\"float\": %.3f, \"binary_x1\": %.3f, "
                 "\"binary_x8\": %.3f},\n",
                 us_float, us_bin1, us_bin8);
    std::fprintf(j,
                 "  \"binary_argmax_agreement\": {\"x1\": %.4f, \"x8\": %.4f},\n",
                 agree1, agree8);
    std::fprintf(j, "  \"batching_speedup_at_8\": %.3f,\n", batched8_rps / direct_rps);
    std::fprintf(j,
                 "  \"cold_start\": {\"retrain_s\": %.4f, \"snapshot_save_s\": %.4f, "
                 "\"snapshot_load_s\": %.4f, \"load_speedup_vs_retrain\": %.1f},\n",
                 retrain_s, save_s, load_s, retrain_s / load_s);
    std::fprintf(j,
                 "  \"multi_model\": {\"models\": %zu, \"bare_runtime_rps\": %.2f, "
                 "\"registry_1_rps\": %.2f, \"registry_n_rps\": %.2f, "
                 "\"routing_overhead_pct\": %.2f},\n",
                 n_models, batched8_rps, reg1_rps, regN_rps, routing_overhead_pct);
    std::fprintf(j,
                 "  \"observability\": {\"instrumented_rps\": %.2f, \"baseline_rps\": %.2f, "
                 "\"instrumented_p99_ms\": %.3f, \"overhead_pct\": %.2f, "
                 "\"target_pct\": 3.0, \"pass\": %s}\n",
                 obs_on_rps, obs_off_rps, obs_on_p99, obs_overhead_pct,
                 obs_pass ? "true" : "false");
    std::fprintf(j, "}\n");
    std::fclose(j);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // -- acceptance summary ----------------------------------------------------
  const double speedup = batched8_rps / direct_rps;
  std::printf("\ndynamic batching speedup @ max_batch=8: %.2fx over single-request "
              "serving (target >= 2x: %s)\n",
              speedup, speedup >= 2.0 ? "PASS" : "FAIL");
  std::printf("binary x1 scoring latency %.2f us/query vs float %.2f us/query "
              "(binary faster: %s)\n",
              us_bin1, us_float, us_bin1 < us_float ? "PASS" : "FAIL");
  std::printf("snapshot cold start: load %.3f s vs retrain %.2f s (%.0fx; faster: %s)\n",
              load_s, retrain_s, retrain_s / load_s, load_s < retrain_s ? "PASS" : "FAIL");
  std::printf("sharded scan @ S=4, C=%zu: %.2fx binary top-%zu throughput vs flat "
              "(target >= 1.5x: %s)\n",
              scan_classes.back(), accept_binary_speedup, scan_k,
              accept_binary_speedup >= 1.5 ? "PASS" : "FAIL");
  std::printf("gzsl penalized top-k bit-identical to penalized argsort: %s\n",
              gzsl_exact ? "PASS" : "FAIL");
  std::printf("observability overhead: %.2f %% throughput with full metrics+tracing "
              "(target <= 3 %%: %s)\n",
              obs_overhead_pct, obs_pass ? "PASS" : "FAIL");
  std::printf("wall time: %.1f s\n", wall.seconds());

  // -- metrics artifact (metrics.json CI upload): every metric the
  //    instrumented storms registered, quantiles included -------------------
  if (args.has("metrics-json")) {
    const std::string mpath = args.get_str("metrics-json", "metrics.json");
    obs::dump_metrics_file(mpath);
    std::printf("wrote %s\n", mpath.c_str());
  }
  // The two bitwise exactness checks are noise-free, so they gate the exit
  // code; the throughput PASS/FAIL rows above stay informational.
  if (!sharded_exact || !gzsl_exact) {
    std::fprintf(stderr, "FAIL: %s\n",
                 !sharded_exact ? "sharded binary top-k differs from the flat argsort"
                                : "penalized top-k differs from the penalized argsort");
    return 1;
  }
  return 0;
}
