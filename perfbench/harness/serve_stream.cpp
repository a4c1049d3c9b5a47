// serve_stream: the `fpkit serve` request loop in-process. run_serve()
// reads from a LineSource that is the benchmark's client: it hands out
// one JSON-RPC request per call and reads the previous response from the
// loop's output stream, so a request's latency is the time between two
// calls (closed loop, one client).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "analysis/check.h"
#include "assign/dfa.h"
#include "exec/exec.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "power/pad_ring.h"
#include "session/serve.h"
#include "session/session.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMesh = 48;
constexpr int kSwapsPerRound = 16;
/// The stream is a cycle of excursions from the loaded design: each one
/// walks kExcursionRounds seed-drawn rounds of swaps out and undoes them
/// all on the way back, so the evaluate at cycle position p must repeat
/// its first answer every cycle, and the undo journal (and the session's
/// memory) stays bounded however many rounds a run completes.
constexpr int kExcursionRounds = 4;
constexpr int kExcursions = 32;
constexpr int kCycleRounds = 2 * kExcursionRounds * kExcursions;

/// The interactive-session package of bench_serve_session: circuit-3
/// geometry, 768 fingers, 4 rows per quadrant, 2 tiers.
fp::CircuitSpec serve_spec() {
  fp::CircuitSpec spec = fp::CircuitGenerator::table1(2);
  spec.name = "serve_768";
  spec.finger_count = 768;
  spec.rows_per_quadrant = 4;
  spec.tier_count = 2;
  return spec;
}

struct Round {
  std::vector<std::pair<int, int>> swaps;  // (quadrant, left finger)
  int redo_at = 0;  // this edit is reverted and re-applied
  /// A return round: `swaps` are walked back with `undo` requests, so the
  /// session's undo journal is empty again at the end of each excursion.
  bool back = false;
};

/// Sorted distinct supply-pad mesh nodes of the current design.
std::vector<fp::IPoint> pad_nodes(const fp::PadRing& ring,
                                  const fp::DesignSession& session) {
  std::vector<fp::IPoint> nodes = ring.supply_nodes(session.assignment());
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

/// The forward rounds of every excursion, drawn from `seed` against a
/// scratch session so each swap is legal in the state the previous ones
/// leave. A round must move at least one supply pad to another mesh node:
/// otherwise its evaluate re-solves an unchanged mesh in zero iterations,
/// and the mix of such rounds -- about half, at random -- would make the
/// median evaluate jump between two modes from seed to seed.
std::vector<std::vector<Round>> excursions(const fp::Package& package,
                                           std::uint64_t seed) {
  fp::SessionOptions options;
  options.grid_spec.nodes_per_side = 12;  // never solved
  fp::DesignSession scratch(package, fp::DfaAssigner().assign(package),
                            options);
  const fp::PadRing ring(package, kMesh);
  fp::Rng rng(mix_seed(seed, 3));
  const auto undo_all = [&scratch](const Round& round) {
    for (auto it = round.swaps.rbegin(); it != round.swaps.rend(); ++it) {
      scratch.apply_swap(it->first, it->second);
    }
  };
  std::vector<std::vector<Round>> all(kExcursions);
  for (std::vector<Round>& rounds : all) {
    while (static_cast<int>(rounds.size()) < kExcursionRounds) {
      const std::vector<fp::IPoint> before = pad_nodes(ring, scratch);
      Round round;
      round.redo_at = static_cast<int>(rng.index(kSwapsPerRound));
      while (static_cast<int>(round.swaps.size()) < kSwapsPerRound) {
        const int q = static_cast<int>(
            rng.index(static_cast<std::size_t>(package.quadrant_count())));
        const auto& order =
            scratch.assignment().quadrants[static_cast<std::size_t>(q)].order;
        const int left = static_cast<int>(rng.index(order.size() - 1));
        if (scratch.swap_illegal(q, left)) continue;
        scratch.apply_swap(q, left);
        round.swaps.emplace_back(q, left);
      }
      if (pad_nodes(ring, scratch) == before) {
        undo_all(round);  // redraw: this round moves no supply pad
        continue;
      }
      rounds.push_back(std::move(round));
    }
    for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) undo_all(*it);
  }
  return all;
}

/// Round `index` of the endless stream: each excursion's forward rounds,
/// then the same rounds walked back in reverse order.
Round stream_round(const std::vector<std::vector<Round>>& stream,
                   long long index) {
  const auto c = static_cast<int>(index % kCycleRounds);
  const std::vector<Round>& rounds =
      stream[static_cast<std::size_t>(c / (2 * kExcursionRounds))];
  const int k = c % (2 * kExcursionRounds);
  if (k < kExcursionRounds) return rounds[static_cast<std::size_t>(k)];
  Round round =
      rounds[static_cast<std::size_t>(2 * kExcursionRounds - 1 - k)];
  std::reverse(round.swaps.begin(), round.swaps.end());
  round.redo_at = kSwapsPerRound - 1 - round.redo_at;
  round.back = true;
  return round;
}

/// The fields of an evaluate response the benchmark checks.
struct Evaluation {
  bool ok = false;
  double cost = 0.0;
  double dispersion = 0.0;
  double increased_density = 0.0;
  double omega = 0.0;
  double max_density = 0.0;
  std::string check;  // the check report, canonical JSON
  double check_errors = 0.0;
  double ir_max_v = 0.0;
  double ir_mean_v = 0.0;
  double iterations = 0.0;
  bool converged = false;

  [[nodiscard]] std::string digest() const {
    Digest d;
    d.add(cost).add(dispersion).add(increased_density).add(omega);
    d.add(max_density).add(check).add(ir_max_v).add(ir_mean_v);
    d.add(iterations);
    return d.hex();
  }
};

Evaluation parse_evaluation(const std::string& line) {
  Evaluation e;
  const fp::obs::Json doc = fp::obs::json_parse(line);
  e.ok = doc.at("ok").as_bool();
  if (!e.ok) return e;
  const fp::obs::Json& r = doc.at("result");
  e.cost = r.at("cost").as_number();
  e.dispersion = r.at("dispersion").as_number();
  e.increased_density = r.at("increased_density").as_number();
  e.omega = r.at("omega").as_number();
  e.max_density = r.at("max_density").as_number();
  e.check = r.at("check").dump();
  e.check_errors = r.at("check").at("errors").as_number();
  const fp::obs::Json& ir = r.at("ir");
  e.ir_max_v = ir.at("max_drop_v").as_number();
  e.ir_mean_v = ir.at("mean_drop_v").as_number();
  e.iterations = ir.at("iterations").as_number();
  e.converged = ir.at("converged").as_bool();
  return e;
}

/// Empty when `a` and `b` agree: exactly on the Eq.-(3) terms, density
/// and check findings, within 100x the solver tolerance on IR (the
/// incremental == cold contract of tests/session_test.cpp).
std::string compare_evaluations(const Evaluation& a, const Evaluation& b) {
  const double tol = 100.0 * fp::SolverOptions{}.tolerance *
                     fp::PowerGridSpec{}.vdd;
  if (!a.ok || !b.ok) return "error response";
  if (a.cost != b.cost || a.dispersion != b.dispersion ||
      a.increased_density != b.increased_density || a.omega != b.omega ||
      a.max_density != b.max_density) {
    return "Eq.-(3) terms or max density differ";
  }
  if (a.check != b.check) return "check findings differ";
  if (!a.converged || !b.converged) return "IR solve did not converge";
  if (std::abs(a.ir_max_v - b.ir_max_v) > tol ||
      std::abs(a.ir_mean_v - b.ir_mean_v) > tol) {
    return "IR drop differs beyond the solver tolerance";
  }
  return "";
}

/// Collects run_serve's output; the client reads each response from it.
class CaptureBuf final : public std::streambuf {
 public:
  std::string text;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) text.push_back(static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
};

enum class Kind { Load, Watch, Unwatch, Prime, Swap, Undo, Evaluate,
                  FinalEvaluate, ColdEvaluate };

struct Request {
  Kind kind = Kind::Swap;
  int quadrant = 0;
  int finger = 0;
};

/// Traced-run round modes, rotated per round: telemetry armed and
/// untraced, armed and traced, disarmed and traced.
enum class Mode { ArmedUntraced = 0, ArmedTraced = 1, DisarmedTraced = 2 };

struct ClientOptions {
  std::string circuit_path;
  const std::vector<std::vector<Round>>* stream = nullptr;
  std::int64_t setup_begin = 0;
  bool setup_only = false;
  double seconds = 0.0;       // measured loop length
  long long max_rounds = 0;  // 0 = until `seconds` have passed
  bool traced = false;
  /// The DesignSession the traced run mirrors every request on.
  fp::DesignSession* shadow = nullptr;
};

class Client final : public fp::LineSource {
 public:
  Client(ClientOptions options, Tracer& tracer, WorkloadResult& result)
      : o_(std::move(options)), tracer_(tracer), result_(result) {
    queue_.push_back({Kind::Load});
    queue_.push_back({Kind::Watch});
    queue_.push_back({Kind::Prime});
  }

  /// Where run_serve writes its responses.
  [[nodiscard]] std::streambuf* sink() { return &capture_; }

  bool next_line(std::string& line) override {
    const std::int64_t now = now_ns();
    if (in_flight_) {
      in_flight_ = false;
      on_response(now);
    }
    if (queue_.empty() && !refill()) return false;
    current_ = queue_.front();
    queue_.pop_front();
    line = format(current_);
    issued_ = now_ns();
    in_flight_ = true;
    return true;
  }

  double setup_s = 0.0;
  double loop_s = 0.0;
  long long rounds = 0;
  long long swap_requests = 0;       // swap and undo requests
  std::vector<Evaluation> first_cycle;
  std::vector<std::string> digests;  // first-cycle evaluate digests
  // Traced-run samples.
  std::vector<double> round_ms[3];
  std::vector<double> disarmed_swap_us;
  std::vector<double> shadow_swap_us;
  std::vector<double> shadow_evaluate_ms;
  PowerAcc power;
  Acc session_busy;
  long long shadow_rebuilds = 0;
  long long shadow_reuses = 0;
  long long shadow_warm_solves = 0;
  long long rules_executed = 0;
  long long rule_cache_hits = 0;

 private:
  enum class Phase { Setup, Measure, Final, Done };

  bool refill() {
    if (phase_ == Phase::Setup) {
      setup_s = static_cast<double>(now_ns() - o_.setup_begin) / 1e9;
      if (o_.setup_only) return false;
      phase_ = Phase::Measure;
      measure_begin_ = now_ns();
      deadline_ = measure_begin_ + static_cast<std::int64_t>(o_.seconds * 1e9);
    }
    if (phase_ == Phase::Measure) {
      if (round_open_) close_round();
      const bool more = o_.max_rounds > 0 ? rounds < o_.max_rounds
                                          : now_ns() < deadline_;
      if (more) {
        open_round();
        return true;
      }
      loop_s = static_cast<double>(now_ns() - measure_begin_) / 1e9;
      phase_ = Phase::Final;
      queue_.push_back({Kind::FinalEvaluate});
      queue_.push_back({Kind::ColdEvaluate});
      return true;
    }
    phase_ = Phase::Done;
    return false;
  }

  void open_round() {
    mode_ = o_.traced ? static_cast<Mode>(rounds % 3) : Mode::ArmedUntraced;
    const bool armed = mode_ != Mode::DisarmedTraced;
    if (armed != armed_) {
      // Telemetry on/off between rounds, outside the timed requests:
      // `watch` arms the metrics registry; disarming also turns the
      // process-wide registry off.
      queue_.push_back({armed ? Kind::Watch : Kind::Unwatch});
      armed_ = armed;
    }
    // Out: 16 swaps, one undone and redone. Back: 16 undos, one redone
    // (by swapping the same pair again) and undone once more.
    const Round round = stream_round(*o_.stream, rounds);
    const Request step{round.back ? Kind::Undo : Kind::Swap};
    for (int i = 0; i < kSwapsPerRound; ++i) {
      const auto [q, f] = round.swaps[static_cast<std::size_t>(i)];
      queue_.push_back(round.back ? step : Request{Kind::Swap, q, f});
      if (i == round.redo_at) {
        queue_.push_back(round.back ? Request{Kind::Swap, q, f}
                                    : Request{Kind::Undo});
        queue_.push_back(round.back ? step : Request{Kind::Swap, q, f});
      }
    }
    queue_.push_back({Kind::Evaluate});
    round_open_ = true;
    round_ns_ = 0;
    round_begin_ = 0;
  }

  void close_round() {
    round_open_ = false;
    if (o_.traced) {
      round_ms[static_cast<int>(mode_)].push_back(
          static_cast<double>(round_ns_) / 1e6);
      if (mode_ != Mode::ArmedUntraced) {
        tracer_.record("serve_stream.round", "job", round_begin_, now_ns(),
                       0);
      }
    }
    ++rounds;
  }

  [[nodiscard]] std::string format(const Request& r) {
    char buf[160];
    const long long id = ++id_;
    switch (r.kind) {
      case Kind::Load:
        return "{\"id\":" + std::to_string(id) +
               ",\"method\":\"load\",\"params\":{\"circuit\":" +
               fp::obs::json_quote(o_.circuit_path) +
               ",\"mesh\":" + std::to_string(kMesh) +
               ",\"method\":\"dfa\"}}";
      case Kind::Watch:
      case Kind::Unwatch:
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%lld,\"method\":\"watch\",\"params\":"
                      "{\"enable\":%s}}",
                      id, r.kind == Kind::Watch ? "true" : "false");
        return buf;
      case Kind::Swap:
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%lld,\"method\":\"swap\",\"params\":"
                      "{\"quadrant\":%d,\"finger\":%d}}",
                      id, r.quadrant, r.finger);
        return buf;
      case Kind::Undo:
        std::snprintf(buf, sizeof buf, "{\"id\":%lld,\"method\":\"undo\"}",
                      id);
        return buf;
      case Kind::ColdEvaluate:
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%lld,\"method\":\"evaluate\",\"params\":"
                      "{\"cold\":true}}",
                      id);
        return buf;
      case Kind::Prime:
      case Kind::Evaluate:
      case Kind::FinalEvaluate:
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%lld,\"method\":\"evaluate\"}", id);
        return buf;
    }
    return "";
  }

  void on_response(std::int64_t now) {
    std::string response;
    response.swap(capture_.text);
    const std::int64_t latency = now - issued_;
    const bool measured = phase_ == Phase::Measure;
    const bool traced_round =
        measured && o_.traced && mode_ != Mode::ArmedUntraced;
    if (measured && current_.kind != Kind::Watch &&
        current_.kind != Kind::Unwatch) {
      round_ns_ += latency;
      if (round_begin_ == 0) round_begin_ = issued_;
    }
    switch (current_.kind) {
      case Kind::Load:
      case Kind::Watch:
        expect_ok(response, "load/watch");
        return;
      case Kind::Unwatch:
        expect_ok(response, "watch off");
        fp::obs::set_metrics_enabled(false);
        return;
      case Kind::Swap:
      case Kind::Undo: {
        const bool swap = current_.kind == Kind::Swap;
        if (traced_round) {
          tracer_.record(swap ? "serve.swap" : "serve.undo", "serve",
                         issued_, now, 1);
        }
        expect_ok(response, swap ? "swap" : "undo");
        if (measured) {
          ++swap_requests;
          if (mode_ == Mode::DisarmedTraced) {
            disarmed_swap_us.push_back(static_cast<double>(latency) / 1e3);
          }
        }
        if (o_.shadow != nullptr) mirror_edit(swap);
        return;
      }
      case Kind::Prime:
      case Kind::Evaluate: {
        if (traced_round) {
          tracer_.record("serve.evaluate", "serve", issued_, now, 1);
        }
        const Evaluation e = parse_evaluation(response);
        if (current_.kind == Kind::Evaluate) {
          result_.job_ms.push_back(static_cast<double>(latency) / 1e6);
          check_round(e);
        } else if (!e.ok) {
          result_.fail("serve_stream: priming evaluate failed");
        }
        if (o_.shadow != nullptr) mirror_evaluate(e, measured);
        return;
      }
      case Kind::FinalEvaluate:
        final_ = parse_evaluation(response);
        return;
      case Kind::ColdEvaluate: {
        ++result_.attempted;
        const std::string diff =
            compare_evaluations(final_, parse_evaluation(response));
        if (!diff.empty()) {
          result_.fail("serve_stream: final evaluate != cold evaluate: " +
                       diff);
        }
        return;
      }
    }
  }

  void expect_ok(const std::string& response, const char* what) {
    if (response.find("\"ok\":true") == std::string::npos) {
      result_.fail(std::string("serve_stream: ") + what +
                   " request failed: " + response.substr(0, 200));
    }
  }

  void check_round(const Evaluation& e) {
    ++result_.attempted;
    const auto position = static_cast<std::size_t>(rounds % kCycleRounds);
    if (!e.ok || e.check_errors > 0) {
      result_.fail("serve_stream round " + std::to_string(rounds) +
                   ": evaluate failed or has Error-severity findings");
      return;
    }
    if (position == first_cycle.size()) {
      first_cycle.push_back(e);
      digests.push_back(e.digest());
      return;
    }
    const std::string diff = compare_evaluations(e, first_cycle[position]);
    if (!diff.empty()) {
      result_.fail("serve_stream round " + std::to_string(rounds) +
                   ": differs from the same cycle position: " + diff);
    }
  }

  void mirror_edit(bool swap) {
    fp::DesignSession& s = *o_.shadow;
    const std::int64_t begin = now_ns();
    if (swap) {
      if (!s.swap_illegal(current_.quadrant, current_.finger)) {
        s.apply_swap(current_.quadrant, current_.finger);
      }
      (void)s.cost();
    } else {
      (void)s.undo();
    }
    const std::int64_t end = now_ns();
    if (phase_ != Phase::Measure) return;
    shadow_swap_us.push_back(static_cast<double>(end - begin) / 1e3);
    session_busy.busy_ns += static_cast<double>(end - begin);
    if (mode_ != Mode::ArmedUntraced) {
      tracer_.record(swap ? "session.apply_swap" : "session.undo", "session",
                     begin, end, 1);
    }
  }

  /// The session's evaluate split in two public calls -- density, cost
  /// and checks, then the warm IR re-solve -- so the solve is attributed
  /// to the power layer. Both together must equal the server's answer.
  void mirror_evaluate(const Evaluation& served, bool measured) {
    fp::DesignSession& s = *o_.shadow;
    const fp::SessionStats before = s.stats();
    const fp::CheckEngine::Stats checks_before = s.check_stats();
    fp::SessionEvaluateOptions checks;
    checks.ir = false;
    fp::SessionEvaluateOptions ir;
    ir.check = false;
    const std::int64_t t0 = now_ns();
    const fp::SessionEvaluation a = s.evaluate(checks);
    const std::int64_t t1 = now_ns();
    const fp::SessionStats middle = s.stats();
    const fp::CheckEngine::Stats checks_after = s.check_stats();
    const fp::SessionEvaluation b = s.evaluate(ir);
    const std::int64_t t2 = now_ns();
    Evaluation mirrored;
    mirrored.ok = true;
    mirrored.cost = a.cost;
    mirrored.dispersion = a.dispersion;
    mirrored.increased_density = a.increased_density;
    mirrored.omega = a.omega;
    mirrored.max_density = a.max_density;
    mirrored.check = fp::check_report_to_json(a.check).dump();
    mirrored.ir_max_v = b.ir.max_drop_v;
    mirrored.ir_mean_v = b.ir.mean_drop_v;
    mirrored.iterations = b.ir.solver_iterations;
    mirrored.converged = b.ir.converged;
    if (mirrored.digest() != served.digest()) {
      result_.fail("serve_stream: DesignSession replay differs from the "
                   "served evaluate");
    }
    if (!measured) return;
    shadow_evaluate_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    session_busy.busy_ns += static_cast<double>(t1 - t0);
    power.time.busy_ns += static_cast<double>(t2 - t1);
    power.add_solve(kMesh, b.ir.solver_iterations, b.ir.solver_attempts);
    shadow_rebuilds += middle.density_rebuilds - before.density_rebuilds;
    shadow_reuses += middle.density_reuses - before.density_reuses;
    if (b.warm_started) ++shadow_warm_solves;
    rules_executed +=
        checks_after.rules_executed - checks_before.rules_executed;
    rule_cache_hits += checks_after.cache_hits - checks_before.cache_hits;
    if (mode_ != Mode::ArmedUntraced) {
      tracer_.record("session.evaluate", "session", t0, t1, 1);
      tracer_.record("power.warm_solve", "power", t1, t2, 1);
    }
  }

  ClientOptions o_;
  Tracer& tracer_;
  WorkloadResult& result_;
  CaptureBuf capture_;
  std::deque<Request> queue_;
  Request current_;
  Phase phase_ = Phase::Setup;
  std::int64_t measure_begin_ = 0;
  std::int64_t deadline_ = 0;
  Mode mode_ = Mode::ArmedUntraced;
  bool armed_ = true;  // the set-up arms `watch`
  bool in_flight_ = false;
  bool round_open_ = false;
  long long id_ = 0;
  std::int64_t issued_ = 0;
  std::int64_t round_ns_ = 0;
  std::int64_t round_begin_ = 0;
  Evaluation final_;
};

/// One `fpkit serve` session driven by a Client; returns the client for
/// its samples.
std::unique_ptr<Client> serve_once(ClientOptions options, Tracer& tracer,
                                   WorkloadResult& result) {
  auto client = std::make_unique<Client>(std::move(options), tracer, result);
  std::ostream out(client->sink());
  const fp::ServeOutcome outcome =
      fp::run_serve(*client, out, fp::ServeOptions{});
  if (outcome.protocol_errors > 0) {
    result.fail("serve_stream: " + std::to_string(outcome.protocol_errors) +
                " protocol error(s)");
  }
  return client;
}

}  // namespace

WorkloadResult run_serve_stream(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  fp::exec::set_default_threads(1);
  const std::string dir = config.out_dir + "/circuits";
  const std::string path = dir + "/" + serve_spec().name + ".fp";
  Acc generate;
  const std::vector<std::vector<Round>> stream =
      excursions(fp::CircuitGenerator::generate(serve_spec()), config.seed);

  ClientOptions base;
  base.circuit_path = path;
  base.stream = &stream;

  // Set-up: generate + write the circuit, load it, arm `watch`, prime.
  const int reps = config.fill ? 1 : kSetupRepeats;
  for (int rep = 0; rep + 1 < reps; ++rep) {
    ClientOptions setup = base;
    setup.setup_begin = now_ns();
    (void)make_package(serve_spec(), dir, generate);
    setup.setup_only = true;
    result.setup_s.push_back(serve_once(setup, tracer, result)->setup_s);
  }

  // The measured session. A traced run mirrors it on a DesignSession
  // over the same generated package, built before the set-up clock
  // starts.
  std::optional<fp::Package> shadow_package;
  std::unique_ptr<fp::DesignSession> shadow;
  ClientOptions measured = base;
  if (config.trace) {
    shadow_package.emplace(fp::CircuitGenerator::generate(serve_spec()));
    fp::SessionOptions options;
    options.grid_spec.nodes_per_side = kMesh;
    shadow = std::make_unique<fp::DesignSession>(
        *shadow_package, fp::DfaAssigner().assign(*shadow_package), options);
    measured.shadow = shadow.get();
    measured.traced = true;
  }
  measured.seconds = config.seconds;
  measured.max_rounds = config.fill ? 48 : config.max_jobs;
  measured.setup_begin = now_ns();
  (void)make_package(serve_spec(), dir, generate);
  // Reserved up front: a regrowing vector briefly holds two copies, which
  // would make peak RSS step with the number of jobs a run completes.
  result.job_ms.reserve(1 << 16);
  const std::unique_ptr<Client> client =
      serve_once(measured, tracer, result);
  result.setup_s.push_back(client->setup_s);
  result.loop_s = client->loop_s;
  result.peak_rss_mb = peak_rss_mb();
  result.extra["swaps_per_s"] =
      static_cast<double>(client->swap_requests) / result.loop_s;

  if (config.trace) {
    const long long jobs = client->rounds;
    auto& rows = result.rows;
    client->power.put_rows(rows, jobs);
    const auto per_round = [jobs](long long count) {
      return static_cast<double>(count) /
             static_cast<double>(std::max<long long>(1, jobs));
    };
    rows["analysis.rules_executed"] = per_round(client->rules_executed);
    rows["analysis.cache_hit_ratio"] =
        static_cast<double>(client->rule_cache_hits) /
        static_cast<double>(std::max<long long>(
            1, client->rules_executed + client->rule_cache_hits));
    rows["session.swap_us"] = median(client->shadow_swap_us);
    rows["session.evaluate_ms_p50"] = median(client->shadow_evaluate_ms);
    rows["session.warm_ratio"] = per_round(client->shadow_warm_solves);
    rows["session.density_reuse_ratio"] =
        static_cast<double>(client->shadow_reuses) /
        static_cast<double>(std::max<long long>(
            1, client->shadow_reuses + client->shadow_rebuilds));
    rows["serve.swap_overhead_us"] =
        median(client->disarmed_swap_us) - rows["session.swap_us"];
    const double armed = median(client->round_ms[1]);
    const double disarmed = median(client->round_ms[2]);
    if (disarmed > 0.0) rows["obs.metrics_overhead_ratio"] = armed / disarmed;
    put_common_rows(rows, generate, client->round_ms[1],
                    client->round_ms[0]);
    result.stage_s["session"] = client->session_busy.busy_ns / 1e9;
    result.stage_s["power"] = client->power.time.busy_ns / 1e9;
    double serve_s = 0.0;
    for (const auto& samples : client->round_ms) {
      for (const double ms : samples) serve_s += ms / 1e3;
    }
    result.stage_s["serve"] = serve_s;
  } else {
    for (const Evaluation& e : client->first_cycle) {
      result.quality.add(e.cost, e.ir_max_v, e.max_density, e.omega);
    }
  }

  if (!config.fill) {
    // Golden pass: the default seed's first cycle in a fresh session.
    const std::uint64_t golden_seed =
        config.golden != nullptr ? config.golden->default_seed : config.seed;
    const std::vector<std::vector<Round>> golden_stream =
        golden_seed == config.seed
            ? stream
            : excursions(fp::CircuitGenerator::generate(serve_spec()),
                         golden_seed);
    ClientOptions golden = base;
    golden.stream = &golden_stream;
    golden.setup_begin = now_ns();
    golden.max_rounds = kCycleRounds;
    WorkloadResult scratch;
    Tracer off(false);
    const std::unique_ptr<Client> replay = serve_once(golden, off, scratch);
    for (const std::string& error : scratch.errors) result.fail(error);
    check_golden(config, "serve_stream", replay->digests, result);
    if (golden_seed == config.seed && !config.record_golden &&
        client->digests.size() == replay->digests.size() &&
        client->digests != replay->digests) {
      result.fail("serve_stream: measured first cycle differs from a fresh "
                  "session's");
    }
  }
  fp::obs::set_metrics_enabled(false);
  return result;
}

}  // namespace perfbench
