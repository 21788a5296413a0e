// serve: online prediction serving over loopback. An in-process
// PredictionServer answers one client process through net::Socket with
// the length-prefixed protocol. net and serve do most of the work, the
// svc cache answers the hot set, lqn runs only on cold-tail misses, and
// the simulator is idle.
//
// Phase A is a closed loop (fixed connections x a fixed window of
// outstanding requests) and gives capacity. Phase B is an open loop at
// one fixed Poisson rate well below that capacity; each request is timed
// from when it was due, and the generator's own lateness is reported.
//
// Both phases keep the pipeline busy on purpose. On a virtual machine a
// CPU left idle for a few hundred microseconds halts, and waking a thread
// on it can take milliseconds; at 8 outstanding requests or 8,000 req/s
// those host wake-ups, not the server, set the numbers and they move 2-3x
// between identical runs.
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

#include "calib/catalog.hpp"
#include "calib/predictor_set.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = epp::net;
using epp::svc::Method;

constexpr std::size_t kHotSetSize = 16;
constexpr double kHotShare = 0.8;
constexpr std::size_t kWindow = 64;         // phase A outstanding per connection
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kObserveEvery = 8;    // 1 in 8 successes is re-observed
constexpr double kOpenLoopRate = 30000.0;   // phase B req/s in total, ~30% of capacity
constexpr std::uint64_t kWarmupRequests = 25000;  // per connection
constexpr double kPhaseAShare = 0.3;        // of --seconds; phase B gets the rest
// Phase A counts successes per slice of this length and reports the
// median slice; a traced run alternates untraced and traced slices.
constexpr double kSliceSeconds = 0.25;
constexpr std::uint64_t kSampleEvery = 16;  // traced and checked requests
constexpr double kRecvTimeoutSeconds = 5.0;
constexpr std::chrono::microseconds kSpinBefore{30};
// Phase B's tail is the p99 of each window of this length, median across
// windows: a stall of the machine lasting a few milliseconds then moves
// one window's p99, not the reported tail.
constexpr double kTailWindowSeconds = 0.5;

/// The request mix: 80% from a small hot set, the rest a seeded cold tail
/// over 3 methods x 3 servers x buy {0, 25}% x 100-1400 clients.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, std::uint64_t stream,
             const std::vector<net::RequestMessage>& hot)
      : rng_(seed, stream), hot_(hot) {}

  static net::RequestMessage cold(epp::util::Rng& rng) {
    const std::vector<std::string>& servers = epp::calib::server_names();
    net::RequestMessage m;
    m.method = static_cast<std::uint8_t>(rng.below(3));
    m.server = servers[rng.below(servers.size())];
    const double buy_pct = kBuyPcts[rng.below(std::size(kBuyPcts))];
    const epp::core::WorkloadSpec w =
        mixed_load(100.0 + static_cast<double>(rng.below(1301)), buy_pct);
    m.browse_clients = w.browse_clients;
    m.buy_clients = w.buy_clients;
    return m;
  }

  net::RequestMessage next() {
    if (rng_.uniform() < kHotShare) return hot_[rng_.below(hot_.size())];
    return cold(rng_);
  }

 private:
  epp::util::Rng rng_;
  const std::vector<net::RequestMessage>& hot_;
};

/// A predict response kept for the output check.
struct Sample {
  net::RequestMessage request;
  net::ResponseMessage response;
};

/// What one connection saw; merged after the phases end.
struct ConnectionStats {
  std::uint64_t sent = 0, ok = 0, errors = 0, unanswered = 0;
  std::vector<std::uint64_t> ok_by_slice;  // phase A, by arrival time
  std::vector<double> rtt_ms, overhead_us, predictor_us, late_ms, write_us;
  std::vector<std::vector<double>> rtt_ms_by_window;  // phase B windows
  std::uint64_t request_bytes = 0, response_bytes = 0, responses = 0;
  std::vector<Sample> samples;
};

std::size_t slice_of(Clock::time_point start, Clock::time_point t) {
  return static_cast<std::size_t>(
      std::chrono::duration<double>(t - start).count() / kSliceSeconds);
}

bool traced_slice(bool trace, std::size_t slice) { return trace && slice % 2 == 1; }

/// Sends one frame; returns its wire size.
std::size_t send(net::Socket& socket, const net::RequestMessage& request) {
  const std::vector<std::uint8_t> payload = net::encode_request(request);
  if (!net::write_frame(socket, payload))
    throw net::SocketError("server closed the connection");
  return payload.size() + 4;
}

/// Reads one response; nullopt on a receive timeout or a closed stream.
std::optional<net::ResponseMessage> receive(net::Socket& socket,
                                            std::size_t& bytes) {
  std::vector<std::uint8_t> payload;
  try {
    if (!net::read_frame(socket, payload)) return std::nullopt;
  } catch (const net::SocketTimeout&) {
    return std::nullopt;
  }
  bytes = payload.size() + 4;
  return net::decode_response(payload);
}

void record_request_spans(std::uint64_t id, Clock::time_point send_start,
                          Clock::time_point send_end, Clock::time_point recv,
                          double predictor_s) {
  const std::int64_t root = trace::record("serve.request", send_start, recv, -1, id);
  trace::record("net.write", send_start, send_end, root, id);
  // The server reports only the predictor's duration; it ends before the
  // response reaches the client, so it is placed just before receipt.
  const auto predictor = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(predictor_s));
  trace::record("svc.predict", recv - predictor, recv, root, id);
}

/// Phase A on one connection: keep kWindow requests outstanding until
/// `end` or `max_sends` sends, then collect the stragglers.
void closed_loop(net::Socket& socket, RequestMix& mix, std::uint64_t id_base,
                 Clock::time_point start, Clock::time_point end,
                 std::uint64_t max_sends, bool trace, bool measured,
                 ConnectionStats& stats) {
  struct Outstanding {
    net::RequestMessage request;
    Clock::time_point send_start, send_end;
  };
  // Slot s carries ids base + s, base + s + kWindow, ...: responses may
  // come back in any order, and the id names the slot.
  std::vector<Outstanding> slots(kWindow);
  std::uint64_t sends = kWindow, responses = 0, successes = 0;
  std::optional<net::RequestMessage> observe;
  auto issue = [&](std::size_t slot, std::uint64_t id) {
    net::RequestMessage request = observe ? *observe : mix.next();
    observe.reset();
    request.id = id;
    Outstanding& o = slots[slot];
    o.send_start = Clock::now();
    const std::size_t bytes = send(socket, request);
    o.send_end = Clock::now();
    o.request = std::move(request);
    if (measured) {
      ++stats.sent;
      stats.request_bytes += bytes;
    }
  };
  for (std::size_t slot = 0; slot < kWindow; ++slot) issue(slot, id_base + slot);
  std::size_t outstanding = kWindow;
  while (outstanding > 0) {
    std::size_t bytes = 0;
    const std::optional<net::ResponseMessage> response = receive(socket, bytes);
    const Clock::time_point now = Clock::now();
    if (!response) {
      if (measured) stats.unanswered += outstanding;
      return;
    }
    const std::size_t slot = (response->id - id_base) % kWindow;
    const Outstanding& o = slots[slot];
    if (measured) {
      ++stats.responses;
      stats.response_bytes += bytes;
      if (response->ok()) {
        ++stats.ok;
        if (now < end) {
          const std::size_t slice = slice_of(start, now);
          if (stats.ok_by_slice.size() <= slice) stats.ok_by_slice.resize(slice + 1);
          ++stats.ok_by_slice[slice];
        }
        if (++responses % kSampleEvery == 0) {
          stats.samples.push_back({o.request, *response});
          if (traced_slice(trace, slice_of(start, o.send_start)))
            record_request_spans(response->id, o.send_start, o.send_end, now,
                                 response->predictor_latency_s);
        }
      } else {
        ++stats.errors;
      }
    }
    if (response->ok() && o.request.kind == net::MessageKind::kPredict &&
        ++successes % kObserveEvery == 0) {
      observe = o.request;
      observe->kind = net::MessageKind::kObserve;
      observe->observed_rt_s = response->mean_rt_s;
    }
    if (now < end && sends < max_sends) {
      ++sends;
      issue(slot, response->id + kWindow);
    } else {
      --outstanding;
    }
  }
}

/// Phase B on one connection, from one thread: send each request when
/// the precomputed Poisson schedule says it is due, and read responses
/// while waiting for the next due time.
void open_loop(net::Socket& socket, const std::vector<net::RequestMessage>& plan,
               const std::vector<Clock::duration>& due_offsets,
               std::uint64_t id_base, Clock::time_point start, bool trace,
               ConnectionStats& stats) {
  struct Sent {
    Clock::time_point begin, end;
  };
  const std::size_t n = plan.size();
  std::vector<Sent> sent(n);
  std::size_t next = 0, received = 0;
  // Timed waits on this thread end on time instead of up to the default
  // 50 us slack late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  while (received < n) {
    const Clock::time_point now = Clock::now();
    if (next < n && now >= start + due_offsets[next]) {
      const Clock::time_point due = start + due_offsets[next];
      net::RequestMessage request = plan[next];
      request.id = id_base + next;
      sent[next].begin = Clock::now();
      stats.request_bytes += send(socket, request);
      sent[next].end = Clock::now();
      stats.late_ms.push_back(
          std::chrono::duration<double, std::milli>(sent[next].begin - due).count());
      stats.write_us.push_back(std::chrono::duration<double, std::micro>(
                                   sent[next].end - sent[next].begin)
                                   .count());
      ++next;
      continue;
    }
    // Within kSpinBefore of the next due time, spin: a timed wake-up on a
    // virtual machine can arrive milliseconds late.
    if (next < n && start + due_offsets[next] - now < kSpinBefore) continue;
    if (received == next) {  // nothing in flight: sleep until the next is due
      std::this_thread::sleep_until(start + due_offsets[next] - kSpinBefore);
      continue;
    }
    const Clock::duration wait =
        next < n ? start + due_offsets[next] - kSpinBefore - now
                 : std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kRecvTimeoutSeconds));
    const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    pollfd readable{socket.fd(), POLLIN, 0};
    const int ready = ::ppoll(&readable, 1, &timeout, nullptr);
    if (ready == 0 && next < n) continue;  // the next request is due
    if (ready <= 0) break;                 // timed out with responses owed

    std::size_t bytes = 0;
    const std::optional<net::ResponseMessage> response = receive(socket, bytes);
    const Clock::time_point arrived = Clock::now();
    if (!response) break;
    ++received;
    ++stats.responses;
    stats.response_bytes += bytes;
    const std::size_t i = response->id - id_base;
    if (!response->ok() || i >= next) {
      ++stats.errors;
      continue;
    }
    ++stats.ok;
    const double rtt_ms =
        std::chrono::duration<double, std::milli>(arrived - (start + due_offsets[i])).count();
    stats.rtt_ms.push_back(rtt_ms);
    const auto window = static_cast<std::size_t>(
        std::chrono::duration<double>(due_offsets[i]).count() / kTailWindowSeconds);
    if (stats.rtt_ms_by_window.size() <= window) stats.rtt_ms_by_window.resize(window + 1);
    stats.rtt_ms_by_window[window].push_back(rtt_ms);
    const double wire_us =
        std::chrono::duration<double, std::micro>(arrived - sent[i].begin).count();
    stats.overhead_us.push_back(wire_us - response->predictor_latency_s * 1e6);
    stats.predictor_us.push_back(response->predictor_latency_s * 1e6);
    if (response->id % kSampleEvery == 0) {
      stats.samples.push_back({plan[i], *response});
      stats.samples.back().request.id = response->id;
      if (trace)
        record_request_spans(response->id, sent[i].begin, sent[i].end, arrived,
                             response->predictor_latency_s);
    }
  }
  stats.sent += next;
  stats.unanswered += next - received;
}

struct ServeSetup {
  WarmStart warm;
  std::unique_ptr<epp::serve::PredictionServer> server;
  std::vector<net::Socket> connections;  // destroyed first: closes sessions
};

}  // namespace

void run_serve(const Args& args, Report& report, EndToEnd& e2e, Layers& layers) {
  // Client connections plus server workers stay within nproc.
  const std::size_t connections = std::max<std::size_t>(1, hardware_threads() / 2);
  const std::size_t workers =
      std::max<std::size_t>(1, hardware_threads() - connections);

  // --- set-up: warm start, server start, client connects -------------------
  std::vector<double> promote_s, startup_s;
  // No probes during the run: each would start a server and connect
  // sockets in the middle of the latency measurement.
  SetupTimer timer([&] {
    ServeSetup s{warm_start(), nullptr, {}};
    promote_s.push_back(s.warm.promote_s);
    startup_s.push_back(s.warm.hybrid_startup_s);
    epp::serve::ServerOptions options;
    options.workers = workers;
    // Deep enough that neither phase sheds: overload shows as latency.
    options.queue_capacity = kQueueCapacity;
    s.server = std::make_unique<epp::serve::PredictionServer>(
        *s.warm.registry, options);
    s.server->start();
    for (std::size_t c = 0; c < connections; ++c)
      s.connections.push_back(net::Socket::connect("127.0.0.1", s.server->port()));
    return s;
  });
  ServeSetup setup = timer.phase();
  e2e.setup_s = timer.median_s();
  for (net::Socket& socket : setup.connections)
    socket.set_recv_timeout(kRecvTimeoutSeconds);

  // The hot set and every connection's stream come from the seed.
  std::vector<net::RequestMessage> hot;
  epp::util::Rng hot_rng(args.seed, 0x4075E7);
  for (std::size_t i = 0; i < kHotSetSize; ++i) hot.push_back(RequestMix::cold(hot_rng));
  std::vector<RequestMix> mixes;
  for (std::size_t c = 0; c < connections; ++c) mixes.emplace_back(args.seed, 100 + c, hot);
  auto id_base = [](std::size_t c, std::uint64_t phase) {
    return (static_cast<std::uint64_t>(c) << 48) | (phase << 40);
  };
  std::vector<ConnectionStats> stats(connections);
  auto run_on_connections = [&](const std::function<void(std::size_t)>& body) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(body, c);
    for (std::thread& t : threads) t.join();
  };

  // --- warm-up: a fixed number of closed-loop requests, not measured, so
  // the cache holds the same entries whenever phase B starts -------------
  {
    std::vector<ConnectionStats> ignored(connections);
    run_on_connections([&](std::size_t c) {
      closed_loop(setup.connections[c], mixes[c], id_base(c, 0), Clock::now(),
                  Clock::time_point::max(), kWarmupRequests, false, false,
                  ignored[c]);
    });
  }

  // Phase B's Poisson schedules and requests, fixed before any timing. In
  // the open loop a fixed share of frames are observe frames for hot-set
  // workloads, carrying the in-process prediction as the measured RT.
  const double phase_a_s = args.seconds * kPhaseAShare;
  const double phase_b_s = args.seconds - phase_a_s;
  std::vector<std::vector<net::RequestMessage>> b_plan(connections);
  std::vector<std::vector<Clock::duration>> b_due(connections);
  {
    const epp::svc::BatchPredictor& batch = *setup.warm.version->predictors.batch;
    std::vector<std::optional<double>> hot_rt(hot.size());
    for (std::size_t i = 0; i < hot.size(); ++i) {
      try {
        hot_rt[i] = batch
                        .predict({static_cast<Method>(hot[i].method), hot[i].server,
                                  {hot[i].browse_clients, hot[i].buy_clients, 7.0}})
                        .mean_rt_s;
      } catch (const std::exception&) {
      }
    }
    for (std::size_t c = 0; c < connections; ++c) {
      epp::util::Rng rng(args.seed, 200 + c);
      double t = 0.0;
      const double mean_gap = static_cast<double>(connections) / kOpenLoopRate;
      for (std::size_t k = 0;; ++k) {
        t += rng.exponential(mean_gap);
        if (t >= phase_b_s) break;
        net::RequestMessage request = mixes[c].next();
        const std::size_t h = k % hot.size();
        if (k % kObserveEvery == kObserveEvery - 1 && hot_rt[h]) {
          request = hot[h];
          request.kind = net::MessageKind::kObserve;
          request.observed_rt_s = *hot_rt[h];
        }
        b_plan[c].push_back(request);
        b_due[c].push_back(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(t)));
      }
    }
  }

  // --- phase B: open loop. It runs before phase A so that the requests
  // it sends, and the cache it meets, do not depend on how fast phase A
  // ran ------------------------------------------------------------------------
  const Clock::time_point b_start = Clock::now() + std::chrono::milliseconds(20);
  run_on_connections([&](std::size_t c) {
    open_loop(setup.connections[c], b_plan[c], b_due[c], id_base(c, 2), b_start,
              args.trace, stats[c]);
  });

  // --- phase A: closed loop --------------------------------------------------
  const Clock::time_point a_start = Clock::now();
  const Clock::time_point a_end =
      a_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_a_s));
  run_on_connections([&](std::size_t c) {
    closed_loop(setup.connections[c], mixes[c], id_base(c, 1), a_start, a_end,
                std::numeric_limits<std::uint64_t>::max(), args.trace, true,
                stats[c]);
  });

  // --- merge, then the output check ------------------------------------------
  ConnectionStats all;
  for (ConnectionStats& s : stats) {
    all.sent += s.sent;
    all.ok += s.ok;
    all.errors += s.errors;
    all.unanswered += s.unanswered;
    if (all.ok_by_slice.size() < s.ok_by_slice.size())
      all.ok_by_slice.resize(s.ok_by_slice.size());
    for (std::size_t k = 0; k < s.ok_by_slice.size(); ++k)
      all.ok_by_slice[k] += s.ok_by_slice[k];
    all.request_bytes += s.request_bytes;
    all.response_bytes += s.response_bytes;
    all.responses += s.responses;
    using Series = std::vector<double> ConnectionStats::*;
    for (const Series v : {&ConnectionStats::rtt_ms, &ConnectionStats::overhead_us,
                    &ConnectionStats::predictor_us, &ConnectionStats::late_ms,
                    &ConnectionStats::write_us})
      (all.*v).insert((all.*v).end(), (s.*v).begin(), (s.*v).end());
    all.samples.insert(all.samples.end(), s.samples.begin(), s.samples.end());
    if (all.rtt_ms_by_window.size() < s.rtt_ms_by_window.size())
      all.rtt_ms_by_window.resize(s.rtt_ms_by_window.size());
    for (std::size_t w = 0; w < s.rtt_ms_by_window.size(); ++w)
      all.rtt_ms_by_window[w].insert(all.rtt_ms_by_window[w].end(),
                                     s.rtt_ms_by_window[w].begin(),
                                     s.rtt_ms_by_window[w].end());
  }
  std::vector<double> window_p50_ms, window_p99_ms;
  for (const std::vector<double>& window : all.rtt_ms_by_window) {
    window_p50_ms.push_back(quantile(window, 0.5));
    window_p99_ms.push_back(quantile(window, 0.99));
  }
  // Whole slices only; the last one may be cut short by the phase's end.
  const auto whole_slices = static_cast<std::size_t>(phase_a_s / kSliceSeconds);
  std::vector<double> slice_rate[2];  // [traced]
  for (std::size_t k = 0; k < whole_slices && k < all.ok_by_slice.size(); ++k)
    slice_rate[traced_slice(args.trace, k)].push_back(
        static_cast<double>(all.ok_by_slice[k]) / kSliceSeconds);
  report.attempted = all.sent;
  report.failed = all.errors + all.unanswered;
  const epp::serve::ServerStats server_stats = setup.server->stats();

  // Sampled responses must equal a fresh in-process evaluation (own
  // predictors, empty cache) of the same quantized request by the method
  // that served it, bit for bit.
  const epp::calib::PredictorSet fresh =
      epp::calib::make_predictors(setup.warm.version->bundle);
  for (const std::string& server : epp::calib::server_names())
    for (const double buy_pct : kBuyPcts)
      (void)fresh.hybrid->predict_max_throughput_rps(server, buy_pct / 100.0);
  std::size_t mismatches = 0;
  for (const Sample& s : all.samples) {
    bool same = false;
    try {
      const epp::svc::PredictionResult expected = fresh.batch->predict(
          {static_cast<Method>(s.response.served_by), s.request.server,
           {s.request.browse_clients, s.request.buy_clients, s.request.think_time_s}});
      same = same_bits(expected.mean_rt_s, s.response.mean_rt_s) &&
             same_bits(expected.throughput_rps, s.response.throughput_rps);
    } catch (const std::exception&) {
    }
    mismatches += same ? 0 : 1;
  }
  if (mismatches > 0)
    report.fail_check("serve: " + std::to_string(mismatches) + " of " +
                      std::to_string(all.samples.size()) +
                      " sampled responses differ from in-process predictions");
  if (all.samples.empty()) report.fail_check("serve: no response was sampled");

  e2e.ok_per_s = quantile(slice_rate[0], 0.5);
  e2e.p50_ms = quantile(window_p50_ms, 0.5);
  e2e.tail_ms = quantile(window_p99_ms, 0.5);

  std::ostringstream note;
  note << "serve: " << connections << " connections x " << kWindow
       << " outstanding, " << workers << " workers; phase A " << phase_a_s
       << " s closed loop, phase B " << phase_b_s << " s open loop at "
       << kOpenLoopRate << " req/s\n"
       << "  sent " << all.sent << ", ok " << all.ok << ", errors " << all.errors
       << ", unanswered " << all.unanswered << ", shed " << server_stats.requests_shed
       << "; " << all.samples.size() << " responses checked\n"
       << "  ok_per_s = " << e2e.ok_per_s << " 1/s (phase A, median of "
       << slice_rate[0].size() << " slices of " << kSliceSeconds << " s)\n"
       << "  rtt_p50_ms = " << e2e.p50_ms << " ms, rtt_p99_ms = " << e2e.tail_ms
       << " ms (phase B, n=" << all.rtt_ms.size() << "; per " << kTailWindowSeconds
       << " s window, median of " << window_p99_ms.size()
       << " windows; over the whole phase " << quantile(all.rtt_ms, 0.5) << " / "
       << quantile(all.rtt_ms, 0.99) << " ms)\n"
       << "  generator late p99 = " << quantile(all.late_ms, 0.99) << " ms";
  report.note(note.str());
  if (!args.trace) return;

  // --- per-layer numbers (traced run only) ---------------------------------
  const epp::svc::CacheStats cache = setup.warm.version->predictors.batch->cache_stats();
  const epp::svc::ResilienceStats resilience = setup.warm.version->resilient->stats();
  layers["net.client_write_us"] = quantile(all.write_us, 0.5);
  layers["net.bytes_per_request"] =
      static_cast<double>(all.request_bytes) / static_cast<double>(all.sent);
  layers["net.bytes_per_response"] =
      static_cast<double>(all.response_bytes) / static_cast<double>(all.responses);
  layers["serve.overhead_p50_us"] = quantile(all.overhead_us, 0.5);
  layers["serve.overhead_p99_us"] = quantile(all.overhead_us, 0.99);
  layers["serve.queue_peak"] = static_cast<double>(server_stats.queue_peak);
  layers["serve.shed"] = static_cast<double>(server_stats.requests_shed);
  layers["serve.promote_ms"] = quantile(promote_s, 0.5) * 1e3;
  layers["serve.gen_late_p99_ms"] = quantile(all.late_ms, 0.99);
  layers["svc.predictor_p50_us"] = quantile(all.predictor_us, 0.5);
  layers["svc.predictor_p99_us"] = quantile(all.predictor_us, 0.99);
  layers["svc.cache_hit_ratio"] = cache.hit_ratio();
  layers["svc.cache_hits"] = static_cast<double>(cache.hits);
  layers["svc.cache_misses"] = static_cast<double>(cache.misses);
  layers["svc.cache_evictions"] = static_cast<double>(cache.evictions);
  layers["svc.fallbacks"] = static_cast<double>(resilience.fallbacks);
  layers["svc.errors"] = static_cast<double>(resilience.errors);
  layers["core.hybrid_startup_ms"] = quantile(startup_s, 0.5) * 1e3;
  layers["trace.overhead_pct"] =
      100.0 * (e2e.ok_per_s / quantile(slice_rate[1], 0.5) - 1.0);
}

}  // namespace perfbench
