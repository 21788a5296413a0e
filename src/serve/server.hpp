// The prediction serving daemon core: a long-running concurrent TCP
// server answering the length-prefixed binary protocol in
// src/net/frame.hpp from whatever bundle version the BundleRegistry
// currently holds active.
//
// Thread model (all threads are owned and joined by this class):
//
//   * one accept thread — accepts connections and spawns one session
//     reader per connection (bounded by max_connections; excess
//     connections are closed immediately);
//   * one reader thread per live session — decodes frames and either
//     answers control frames inline (ping/stats/shutdown/reload) or
//     enqueues predict/observe work on the bounded dispatch queue;
//   * a fixed pool of worker threads — pop queued requests, evaluate
//     them through the *version-pinned* ResilientPredictor, and write
//     the response under the session's write lock, so concurrent
//     workers can interleave responses on one connection safely
//     (responses carry the request id; clients match, not order).
//
// Version pinning: the reader captures the registry's active
// ServingVersion (a shared_ptr) at admission and the work item carries
// it to the worker — a request admitted under version N is evaluated on
// version N even when a reload promotes N+1 mid-flight, and never mixes
// relationships across versions. The response reports the version that
// answered in `bundle_version`.
//
// Drift: kObserve frames carry a client-measured RT; the worker
// evaluates the same workload on the pinned version and feeds the
// (predicted, observed) pair to the DriftDetector. Every response's
// `health` byte carries the detector state; a version swap resets the
// detector (new bundle, clean slate).
//
// Chaos: when ServerOptions.chaos is armed, the server *applies* the
// decision-only net::ChaosPolicy verdicts — resets fresh connections at
// accept, delays first reads, and resets / truncates / dribbles
// response writes — so the loadgen harness can drive fault storms
// against the real wire paths.
//
// Admission control: the dispatch queue is bounded. When it is full the
// reader thread sheds the request *immediately* with a typed
// ErrorCode::kOverloaded response instead of queueing without bound —
// under overload clients see fast failures, not a latency collapse.
//
// Graceful shutdown (request_stop or a kShutdown frame): stop accepting,
// stop reading new frames, let the workers drain every request already
// admitted, flush those responses, then close the sessions. In-flight
// work is never dropped; only unread bytes are.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/chaos.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/drift.hpp"
#include "serve/registry.hpp"
#include "util/annotations.hpp"
#include "util/counter.hpp"
#include "util/lock_rank.hpp"

namespace epp::serve {

/// What a kReload frame (or SIGHUP) produced; `message` travels back to
/// the client in the response detail.
struct ReloadStatus {
  bool ok = false;
  std::string message;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back with port()
  /// Fixed worker threads evaluating predictions.
  std::size_t workers = 4;
  /// Bounded dispatch queue; a full queue sheds with kOverloaded.
  std::size_t queue_capacity = 256;
  /// Live sessions beyond this are closed at accept.
  std::size_t max_connections = 256;
  /// Cap on the per-request deadline a client may ask for (seconds);
  /// larger requests are clamped. 0 disables per-request deadlines.
  double max_request_deadline_s = 10.0;
  /// Close a session whose client sends nothing for this long (seconds);
  /// counted in idle_closes. 0 lets a silent client pin its reader
  /// thread forever (the pre-timeout behaviour).
  double idle_timeout_s = 0.0;
  /// Drift detector configuration (applies to kObserve frames).
  DriftOptions drift;
  /// Answers kReload frames (and whatever the host wires SIGHUP to):
  /// typically loads the named bundle file and promotes it through the
  /// registry. Unset = reload unsupported, frames get a typed error.
  std::function<ReloadStatus(const std::string& path)> reload_handler;
  /// Non-owning wire-chaos policy; must outlive the server. nullptr
  /// serves cleanly.
  const net::ChaosPolicy* chaos = nullptr;
  /// Test hook: sleep this long in the worker before each evaluation,
  /// to provoke queue buildup/shedding deterministically. Never set in
  /// production paths.
  double worker_delay_s = 0.0;
};

/// Counters since start(). queue_depth and open_sessions are
/// instantaneous, filled in by stats().
struct ServerStats {
  util::Counter connections_accepted;
  util::Counter connections_rejected;  // over max_connections
  util::Counter frames_received;
  util::Counter requests_enqueued;
  util::Counter requests_served;    // responses written by workers
  util::Counter requests_shed;      // kOverloaded at admission
  util::Counter bad_frames;         // undecodable payloads
  util::Counter responses_dropped;  // peer gone before the write
  util::Counter idle_closes;        // sessions closed by idle timeout
  util::Counter reloads_ok;         // kReload frames that promoted
  util::Counter reloads_failed;
  util::Counter queue_depth;
  util::Counter queue_peak;
  util::Counter open_sessions;

  static constexpr std::tuple kFields{
      util::field("connections_accepted", &ServerStats::connections_accepted),
      util::field("connections_rejected", &ServerStats::connections_rejected),
      util::field("frames_received", &ServerStats::frames_received),
      util::field("requests_enqueued", &ServerStats::requests_enqueued),
      util::field("requests_served", &ServerStats::requests_served),
      util::field("requests_shed", &ServerStats::requests_shed),
      util::field("bad_frames", &ServerStats::bad_frames),
      util::field("responses_dropped", &ServerStats::responses_dropped),
      util::field("idle_closes", &ServerStats::idle_closes),
      util::field("reloads_ok", &ServerStats::reloads_ok),
      util::field("reloads_failed", &ServerStats::reloads_failed),
      util::field("queue_depth", &ServerStats::queue_depth),
      util::field("queue_peak", &ServerStats::queue_peak),
      util::field("open_sessions", &ServerStats::open_sessions)};
};
static_assert(util::lists_every_counter<ServerStats>());

class PredictionServer {
 public:
  /// Non-owning: the registry (and any chaos policy in the options)
  /// must outlive the server.
  PredictionServer(BundleRegistry& registry, ServerOptions options = {});
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Bind, listen and spawn the accept + worker threads. Throws
  /// net::SocketError when the address cannot be bound.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Begin graceful shutdown: stop accepting and reading, let workers
  /// drain the admitted queue. Safe from any thread, including session
  /// readers (a kShutdown frame calls this). Idempotent.
  void request_stop();

  /// True once request_stop() ran (or a kShutdown frame arrived).
  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Block until the drain completes and every thread is joined. Must
  /// not be called from a server-owned thread. Idempotent.
  void wait();

  /// request_stop() + wait().
  void stop();

  ServerStats stats() const;
  /// The kStats frame text: space-separated `name=value` tokens for the
  /// server, registry and drift stats, then the active version's
  /// resilience stats and, when chaos is armed, `chaos_`-prefixed chaos
  /// stats. epp_serve prints the same text when it exits.
  std::string stats_text() const;
  /// Drift state over the active version's observations.
  DriftSnapshot drift() const { return drift_.snapshot(); }
  BundleRegistry& registry() noexcept { return registry_; }

 private:
  struct Session {
    net::Socket socket;
    util::RankedMutex write_mutex{EPP_LOCK_RANK(95),
                                  "serve.server.session_write"};
    std::atomic<bool> dead{false};
  };
  using SessionPtr = std::shared_ptr<Session>;

  struct WorkItem {
    SessionPtr session;
    net::RequestMessage request;
    /// The registry version active at admission; the worker serves on
    /// exactly this version (hot-swap isolation).
    std::shared_ptr<const ServingVersion> pinned;
  };

  void accept_loop();
  void session_loop(SessionPtr session);
  void worker_loop();
  /// Serialize and send under the session write lock, applying any
  /// armed chaos verdict (reset / truncate / dribble); counts drops.
  void write_response(Session& session, const net::ResponseMessage& response);
  void handle_control(Session& session, const net::RequestMessage& request);
  net::ResponseMessage evaluate(const net::RequestMessage& request,
                                const ServingVersion& version);
  /// Reset the drift detector when the observed version changes.
  void drift_track_version(std::uint64_t version);
  /// Reap finished session-reader threads (called from the accept loop).
  void reap_sessions(bool all);

  BundleRegistry& registry_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  DriftDetector drift_;
  std::atomic<std::uint64_t> drift_version_{0};

  std::unique_ptr<net::Listener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  struct SessionHandle {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    std::weak_ptr<Session> session;  // for the shutdown read-side broadcast
  };
  util::RankedMutex sessions_mutex_{EPP_LOCK_RANK(20),
                                    "serve.server.sessions"};
  std::list<SessionHandle> session_threads_;
  std::atomic<std::size_t> open_sessions_{0};

  mutable util::RankedMutex queue_mutex_{EPP_LOCK_RANK(40),
                                         "serve.server.queue"};
  std::condition_variable_any queue_cv_;
  std::deque<WorkItem> queue_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Set by wait() once every reader is joined (the queue can no longer
  /// grow); workers drain what is left, then exit.
  std::atomic<bool> workers_stop_{false};
  std::atomic<bool> joined_{false};
  util::RankedMutex lifecycle_mutex_{  // serializes wait()/stop() callers
      EPP_LOCK_RANK(10), "serve.server.lifecycle"};

  ServerStats stats_;
};

}  // namespace epp::serve
