// sessionbench — closed-loop session benchmark for the SmartRPC library.
//
// Runs one workload against the public API (World, AddressSpace::run/bind,
// Session, World::run_concurrent) with World defaults unless a workload says
// otherwise: simulated transport, the sparc_ethernet cost model, an 8 KiB
// eager closure, delta-encoded modified sets and two-phase write-back. Every
// workload is a closed loop: a ground waits for each session to end before it
// opens the next.
//
//   call_chatty  8 scalar CALLs per session, no pointers (net, rpc).
//   tree_search  the paper's §4.1 subject: a 65535-node tree in the ground's
//                heap, searched by the callee along random root-to-leaf
//                paths (vm, swizzle, cache, graph; commit only invalidates).
//   tree_update  the tree lives in the home; the ground increments nodes on
//                random paths and links extended_malloc'd records in
//                (vm write faults, commit, mem).
//   shared_home  two grounds in a multi-session world increment one node of
//                a small hot set each, retrying on WB_CONFLICT (concurrency;
//                kept out of BENCHMARK.json for now, see SharedHome).
//
// One run of the program:
//   1. set-up: world, types, data, bindings and warm-up sessions, timed;
//   2. a cost batch (skipped with `--cost-batch 0`): a fixed, seed-determined
//      number of sessions run one at a time, bracketed by the virtual clock
//      and the simulated wire counters, so cost-model time and wire bytes per
//      session repeat exactly per seed; peak RSS is read right after it;
//   3. the timed window: sessions until `--seconds` of wall time pass, each
//      timed with steady_clock from opening to the return of end();
//   4. the output check: every session's results were compared as it ran,
//      and workloads that write end with a coherency oracle on the home.
// With `--trace 1` the window alternates untraced and traced blocks; traced
// blocks record spans around begin/call/alloc/local work/end (kept in
// memory, written to `--spans` at exit), the World's metrics and wire
// counters are snapshotted around the window, replays time single layers'
// public functions on the workload's own tree, and a few sessions run with
// the program's own span recording on give the virtual-time split.
//
// Prints one JSON record of raw measurements as the last line of stdout;
// run.py derives the benchmark's metrics from it.
//
// Usage: sessionbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--cost-batch 0] [--spans FILE]
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrency/object_lock_table.hpp"
#include "core/closure.hpp"
#include "core/graph_payload.hpp"
#include "core/smart_rpc.hpp"
#include "mem/managed_heap.hpp"
#include "obs/critical_path.hpp"
#include "net/mailbox.hpp"
#include "swizzle/allocation_table.hpp"
#include "vm/fault_dispatcher.hpp"
#include "vm/page_arena.hpp"
#include "workload/tree.hpp"

namespace {

using namespace srpc;
using workload::TreeNode;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kTreeNodes = 65535;  // 2^16 - 1: depth 16
constexpr std::uint32_t kPathsPerSession = 4;
constexpr std::uint32_t kCallsPerSession = 8;
constexpr std::uint32_t kRecordsPerSession = 4;
constexpr std::uint32_t kHotNodes = 16;
constexpr std::uint32_t kMaxAttempts = 64;  // per logical shared_home update
constexpr std::size_t kInputPool = 256;     // sessions' inputs, cycled

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double elapsed_us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "sessionbench: %s\n", why.c_str());
  std::exit(2);
}

// --- spans -------------------------------------------------------------------

// In-memory span log of one ground thread: name, start, end, parent (index
// into the same log, -1 for a root) and the benchmark's session number.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_ns;
    double end_ns;
    std::int32_t parent;
    std::uint64_t session;
  };

  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t session) {
    spans_.push_back({name, now_ns(), 0.0, parent, session});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; a null log
// (untraced run) makes it free apart from the branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent, std::uint64_t session)
      : log_(log), id_(log != nullptr ? log->open(name, parent, session) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

// --- results -----------------------------------------------------------------

struct WindowResult {
  std::vector<double> session_us;  // committed logical operations
  std::uint64_t attempted = 0;     // logical operations started
  std::uint64_t failed = 0;        // errored, wrong, or out of retries
  std::uint64_t attempts = 0;      // sessions opened (retries included)
  double seconds = 0;              // wall time of the window

  void merge(const WindowResult& o) {
    session_us.insert(session_us.end(), o.session_us.begin(), o.session_us.end());
    attempted += o.attempted;
    failed += o.failed;
    attempts += o.attempts;
  }
};

struct CostBatch {
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  double virtual_ns = 0;
  std::uint64_t wire_bytes = 0;
};

// --- tree helpers ------------------------------------------------------------

// Node indices are level order (build_complete_tree's numbering): the
// children of i are 2i+1 and 2i+2, and node i initially holds data = i.
std::int64_t initial_tree_sum() {
  return static_cast<std::int64_t>(kTreeNodes) * (kTreeNodes - 1) / 2;
}

// Level-order node addresses of a complete tree (runs where the tree is
// local memory).
std::vector<TreeNode*> tree_nodes(TreeNode* root) {
  std::vector<TreeNode*> nodes{root};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->left != nullptr) nodes.push_back(nodes[i]->left);
    if (nodes[i]->right != nullptr) nodes.push_back(nodes[i]->right);
  }
  return nodes;
}

// Oracle helper: 1 (and a line on stderr, for the first few) when node
// `index` holds `actual` instead of `expected`.
std::uint64_t report_mismatch(std::uint32_t index, std::int64_t actual, std::int64_t expected) {
  static int reported = 0;
  if (actual == expected) return 0;
  if (reported++ < 8) {
    std::fprintf(stderr, "sessionbench: oracle: node %u holds %" PRId64 ", expected %" PRId64 "\n",
                 index, actual, expected);
  }
  return 1;
}

// Root-to-node index path of level-order node `index`.
std::vector<std::uint32_t> path_to(std::uint32_t index) {
  std::vector<std::uint32_t> path{index};
  while (index != 0) {
    index = (index - 1) / 2;
    path.push_back(index);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the world, types, data and bindings and runs the warm-up.
  virtual void setup(std::uint64_t seed) = 0;
  // `count` sessions one at a time; deterministic for a given seed.
  virtual CostBatch cost_batch(std::uint64_t count) = 0;
  // Closed-loop sessions until `deadline`. `logs` (traced runs) holds one
  // span log per ground.
  virtual WindowResult window(Clock::time_point deadline,
                              std::vector<SpanLog>* logs) = 0;
  // Coherency oracle over the home's own memory; 0 when consistent.
  virtual std::uint64_t violations() { return 0; }
  // Sessions the cost batch runs.
  [[nodiscard]] virtual std::uint64_t cost_sessions() const { return 128; }
  [[nodiscard]] virtual std::size_t grounds() const { return 1; }

  // The space holding the workload's tree in local memory and the tree's
  // root (null when the workload has no tree).
  AddressSpace* tree_space = nullptr;
  TreeNode* tree_root = nullptr;

  // When set, every session opened records its runtime id here.
  std::vector<SessionId>* session_ids = nullptr;

  World& world() { return *world_; }

 protected:
  void warm_up(std::uint64_t count) {
    if (cost_batch(count).failed != 0) die("warm-up session failed");
  }

  void open(std::optional<Session>& s, Runtime& rt) {
    s.emplace(rt);
    if (session_ids != nullptr) session_ids->push_back(s->id());
  }

  // Brackets `body` with the virtual clock and the simulated wire counters.
  template <typename F>
  CostBatch metered(std::uint64_t count, F body) {
    CostBatch batch;
    batch.sessions = count;
    const double v0 = world_->virtual_seconds();
    const std::uint64_t w0 = world_->net_stats().wire_bytes;
    batch.failed = body();
    batch.virtual_ns = (world_->virtual_seconds() - v0) * 1e9;
    batch.wire_bytes = world_->net_stats().wire_bytes - w0;
    return batch;
  }

  std::unique_ptr<World> world_;
};

// One ground, one home; sessions run back to back on the ground's worker.
// Subclasses implement one session; the loop, timing and spans live here.
class SequentialWorkload : public Workload {
 public:
  CostBatch cost_batch(std::uint64_t count) override {
    return metered(count, [&] {
      return ground_->run([&](Runtime& rt) {
        std::uint64_t failed = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
          if (!session(rt, next_op_++, nullptr)) ++failed;
        }
        return failed;
      });
    });
  }

  WindowResult window(Clock::time_point deadline, std::vector<SpanLog>* logs) override {
    SpanLog* log = logs != nullptr ? &(*logs)[0] : nullptr;
    return ground_->run([&](Runtime& rt) {
      WindowResult r;
      const auto start = Clock::now();
      auto now = start;
      while (now < deadline) {
        ++r.attempted;
        ++r.attempts;
        const bool ok = session(rt, next_op_++, log);
        const auto end = Clock::now();
        if (ok) {
          r.session_us.push_back(elapsed_us(now, end));
        } else {
          ++r.failed;
        }
        now = end;
      }
      r.seconds = std::chrono::duration<double>(now - start).count();
      return r;
    });
  }

 protected:
  // Runs session number `op` on the ground; true when it committed and
  // every result it saw was correct.
  virtual bool session(Runtime& rt, std::uint64_t op, SpanLog* log) = 0;

  void make_world(WorldOptions options = {}) {
    world_ = std::make_unique<World>(options);
    ground_ = &world_->create_space("ground");
    home_ = &world_->create_space("home");
    workload::register_tree_type(*world_).status().check();
  }

  AddressSpace* ground_ = nullptr;
  AddressSpace* home_ = nullptr;
  std::uint64_t next_op_ = 0;
};

// Ends the session; on failure aborts it so the runtime stays reusable.
bool finish(Session& s) {
  if (s.end().is_ok()) return true;
  (void)s.abort();
  return false;
}

// call_chatty — eight scalar CALLs per session, no pointers. Each call goes
// to one of four procedures taking one to four int64 arguments (the arity is
// drawn from the seed, so message sizes vary with it) and returns a weighted
// sum the ground checks.
class CallChatty final : public SequentialWorkload {
 public:
  void setup(std::uint64_t seed) override {
    make_world();
    home_->bind("sum1", [](CallContext&, std::int64_t a) { return weigh_args(a); }).check();
    home_->bind("sum2", [](CallContext&, std::int64_t a, std::int64_t b) {
            return weigh_args(a, b);
          }).check();
    home_->bind("sum3", [](CallContext&, std::int64_t a, std::int64_t b, std::int64_t c) {
            return weigh_args(a, b, c);
          }).check();
    home_->bind("sum4", [](CallContext&, std::int64_t a, std::int64_t b, std::int64_t c,
                           std::int64_t d) { return weigh_args(a, b, c, d); })
        .check();
    Rng rng(seed);
    inputs_.assign(kInputPool * kCallsPerSession, {});
    for (Call& c : inputs_) {
      c.arity = static_cast<std::uint32_t>(rng.next_in(1, 4));
      for (std::uint32_t k = 0; k < c.arity; ++k) c.args[k] = rng.next_in(-1000000, 1000000);
      c.expected = weigh(std::span<const std::int64_t>(c.args.data(), c.arity));
    }
    warm_up(64);
  }

  [[nodiscard]] std::uint64_t cost_sessions() const override { return 256; }

 private:
  struct Call {
    std::uint32_t arity = 0;
    std::array<std::int64_t, 4> args{};
    std::int64_t expected = 0;
  };

  // The procedures' result: sum of (position * argument), positions from 1.
  static std::int64_t weigh(std::span<const std::int64_t> args) {
    std::int64_t sum = 0;
    std::int64_t w = 1;
    for (std::int64_t a : args) sum += w++ * a;
    return sum;
  }
  template <typename... A>
  static std::int64_t weigh_args(A... a) {
    const std::int64_t v[] = {a...};
    return weigh(v);
  }

  bool session(Runtime& rt, std::uint64_t op, SpanLog* log) override {
    ScopedSpan root(log, "session", -1, op);
    std::optional<Session> s;
    {
      ScopedSpan span(log, "session.begin", root.id(), op);
      open(s, rt);
    }
    const SpaceId home = home_->id();
    bool correct = true;
    {
      ScopedSpan span(log, "session.call", root.id(), op);
      const Call* calls = &inputs_[(op % kInputPool) * kCallsPerSession];
      for (std::uint32_t i = 0; i < kCallsPerSession; ++i) {
        const Call& c = calls[i];
        const auto& a = c.args;
        Result<std::int64_t> r = internal_error("arity");
        switch (c.arity) {
          case 1: r = s->call<std::int64_t>(home, "sum1", a[0]); break;
          case 2: r = s->call<std::int64_t>(home, "sum2", a[0], a[1]); break;
          case 3: r = s->call<std::int64_t>(home, "sum3", a[0], a[1], a[2]); break;
          default: r = s->call<std::int64_t>(home, "sum4", a[0], a[1], a[2], a[3]); break;
        }
        if (!r.is_ok() || r.value() != c.expected) correct = false;
      }
    }
    ScopedSpan span(log, "session.end", root.id(), op);
    return finish(*s) && correct;
  }

  std::vector<Call> inputs_;
};

// tree_search — the paper's §4.1 subject. The tree lives in the ground's
// heap; the callee walks kPathsPerSession seed-random root-to-leaf paths and
// returns the sum of the data it visited, which the ground compares with the
// same walk over its local tree.
class TreeSearch final : public SequentialWorkload {
 public:
  void setup(std::uint64_t seed) override {
    make_world();
    home_->bind("search", [](CallContext&, TreeNode* root, std::uint64_t path_seed) {
            return workload::walk_random_paths(root, kPathsPerSession, path_seed);
          }).check();
    Rng rng(seed);
    inputs_.resize(kInputPool);
    ground_->run([&](Runtime& rt) {
      auto root = workload::build_complete_tree(rt, kTreeNodes);
      root.status().check();
      root_ = root.value();
      for (Input& in : inputs_) {
        in.path_seed = rng.next();
        in.expected = workload::walk_random_paths(root_, kPathsPerSession, in.path_seed);
      }
      return 0;
    });
    tree_space = ground_;
    tree_root = root_;
    warm_up(8);
  }

 private:
  struct Input {
    std::uint64_t path_seed = 0;
    std::int64_t expected = 0;
  };

  bool session(Runtime& rt, std::uint64_t op, SpanLog* log) override {
    ScopedSpan root(log, "session", -1, op);
    std::optional<Session> s;
    {
      ScopedSpan span(log, "session.begin", root.id(), op);
      open(s, rt);
    }
    const Input& in = inputs_[op % kInputPool];
    bool correct;
    {
      ScopedSpan span(log, "session.call", root.id(), op);
      auto r = s->call<std::int64_t>(home_->id(), "search", root_, in.path_seed);
      correct = r.is_ok() && r.value() == in.expected;
    }
    ScopedSpan span(log, "session.end", root.id(), op);
    return finish(*s) && correct;
  }

  TreeNode* root_ = nullptr;
  std::vector<Input> inputs_;
};

// tree_update — the tree lives in the home behind an anchor node (left: the
// tree root, right: the record chain of the last committed session). Each
// session calls "open", which frees the previous session's records on the
// home and returns the anchor; the ground then increments every node on
// kPathsPerSession seed-random root-to-leaf paths, extended_mallocs
// kRecordsPerSession records on the home, chains them under the anchor and
// ends the session (deltas, WB_PREPARE/WB_COMMIT, INVALIDATE). The ground
// keeps a shadow of every node's expected value and checks each one it
// reads; the oracle compares the whole home tree with the shadow.
class TreeUpdate final : public SequentialWorkload {
 public:
  void setup(std::uint64_t seed) override {
    make_world();
    home_->bind("open", [this](CallContext& ctx) -> TreeNode* {
            // Free the previous session's records; they are home data now.
            // A null anchor tells the ground the session failed.
            TreeNode* rec = anchor_->right;
            while (rec != nullptr) {
              TreeNode* next = rec->left;
              if (!ctx.runtime.extended_free(rec).is_ok()) return nullptr;
              rec = next;
            }
            anchor_->right = nullptr;
            return anchor_;
          }).check();
    home_->run([&](Runtime& rt) {
      auto root = workload::build_complete_tree(rt, kTreeNodes);
      root.status().check();
      auto anchor = rt.heap().allocate(rt.host_types().find<TreeNode>().value());
      anchor.status().check();
      anchor_ = static_cast<TreeNode*>(anchor.value());
      anchor_->left = root.value();
      return 0;
    });
    Rng rng(seed);
    path_seeds_.resize(kInputPool);
    for (std::uint64_t& s : path_seeds_) s = rng.next();
    shadow_.assign(kTreeNodes, 0);
    tree_space = home_;
    tree_root = anchor_->left;
    warm_up(8);
  }

  [[nodiscard]] std::uint64_t violations() override {
    return home_->run([&](Runtime& rt) {
      std::uint64_t bad = 0;
      const std::vector<TreeNode*> nodes = tree_nodes(anchor_->left);
      std::int64_t sum = 0;
      std::int64_t expected_sum = initial_tree_sum();
      for (std::uint32_t i = 0; i < kTreeNodes; ++i) {
        const std::int64_t expected = static_cast<std::int64_t>(i) + shadow_[i];
        sum += nodes[i]->data;
        expected_sum += shadow_[i];
        bad += report_mismatch(i, nodes[i]->data, expected);
      }
      bad += static_cast<std::uint64_t>(std::llabs(sum - expected_sum));
      // The last committed session's records, chained in index order.
      std::uint32_t k = 0;
      for (TreeNode* rec = anchor_->right; rec != nullptr; rec = rec->left, ++k) {
        if (rec->data != record_tag(last_committed_, k)) ++bad;
      }
      if (k != kRecordsPerSession) ++bad;
      // Bounded heap: the tree, the anchor and one session's records.
      if (rt.heap().live_allocations() != kTreeNodes + 1 + kRecordsPerSession) ++bad;
      return bad;
    });
  }

 private:
  static std::int64_t record_tag(std::uint64_t op, std::uint32_t k) {
    return -static_cast<std::int64_t>(op * kRecordsPerSession + k + 1);
  }

  bool session(Runtime& rt, std::uint64_t op, SpanLog* log) override {
    ScopedSpan root(log, "session", -1, op);
    std::optional<Session> s;
    {
      ScopedSpan span(log, "session.begin", root.id(), op);
      open(s, rt);
    }
    bool correct = true;
    TreeNode* anchor = nullptr;
    {
      ScopedSpan span(log, "session.call", root.id(), op);
      auto r = s->call<TreeNode*>(home_->id(), "open");
      if (r.is_ok()) anchor = r.value();
    }
    if (anchor == nullptr) {
      (void)s->abort();
      return false;
    }
    std::vector<std::uint32_t> touched;
    {
      // Reads fault pages in (FETCH); the first store to each page takes a
      // write fault and dirties it.
      ScopedSpan span(log, "session.local", root.id(), op);
      Rng rng(path_seeds_[op % kInputPool]);
      for (std::uint32_t p = 0; p < kPathsPerSession; ++p) {
        TreeNode* node = anchor->left;
        std::uint32_t index = 0;
        while (node != nullptr) {
          if (node->data != static_cast<std::int64_t>(index) + shadow_[index]) correct = false;
          node->data += 1;
          ++shadow_[index];
          touched.push_back(index);
          const bool left = rng.next_bool(0.5);
          node = left ? node->left : node->right;
          index = 2 * index + (left ? 1 : 2);
        }
      }
    }
    {
      ScopedSpan span(log, "session.alloc", root.id(), op);
      TreeNode* head = nullptr;
      for (std::uint32_t k = kRecordsPerSession; k-- > 0;) {
        auto rec = s->extended_malloc<TreeNode>(home_->id());
        if (!rec.is_ok()) {
          correct = false;
          break;
        }
        *rec.value() = TreeNode{};  // extended_malloc, like malloc, does not zero
        rec.value()->data = record_tag(op, k);
        rec.value()->left = head;
        head = rec.value();
      }
      anchor->right = head;
    }
    bool committed;
    {
      ScopedSpan span(log, "session.end", root.id(), op);
      committed = finish(*s);
    }
    if (!committed) {
      for (std::uint32_t index : touched) --shadow_[index];
      return false;
    }
    last_committed_ = op;
    return correct;
  }

  TreeNode* anchor_ = nullptr;
  std::vector<std::uint64_t> path_seeds_;
  std::vector<std::int64_t> shadow_;  // committed increments per node
  std::uint64_t last_committed_ = 0;
};

// shared_home — two grounds, one home tree, multi-session runtime. Every
// logical operation increments one node of a seed-chosen hot set (nodes at
// depths 6..9), walking to it from the root; a WB_CONFLICT aborts the
// session and retries it under a fresh one after a short backoff. The oracle
// checks that the home tree holds exactly the committed increments.
//
// Not listed in BENCHMARK.json yet: at the default 8 KiB closure the oracle
// finds lost updates. The home records a session's reads (shared lock and
// version) only for the objects a FETCH names, not for the ones its eager
// closure carries along, so a stale write to such an object passes
// WB_PREPARE. With a closure of a few hundred bytes or less no update is
// lost. Running this workload reproduces the defect (exit code 1).
class SharedHome final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    WorldOptions options;
    options.multi_session = true;
    world_ = std::make_unique<World>(options);
    home_ = &world_->create_space("home");
    grounds_[0] = &world_->create_space("g1");
    grounds_[1] = &world_->create_space("g2");
    workload::register_tree_type(*world_).status().check();
    home_->bind("root", [this](CallContext&) -> TreeNode* { return root_; }).check();
    home_->run([&](Runtime& rt) {
      auto root = workload::build_complete_tree(rt, kTreeNodes);
      root.status().check();
      root_ = root.value();
      return 0;
    });
    Rng rng(seed);
    for (std::uint32_t& h : hot_) {
      h = static_cast<std::uint32_t>(rng.next_in(63, 1022));  // depths 6..9
    }
    for (std::uint32_t g = 0; g < 2; ++g) {
      for (std::uint32_t& pick : picks_[g]) {
        pick = static_cast<std::uint32_t>(rng.next_below(kHotNodes));
      }
    }
    commits_.assign(kHotNodes, 0);
    tree_space = home_;
    tree_root = root_;
    warm_up(8);
  }

  // Sessions alternate between the grounds, one at a time, so no two are
  // ever in flight together and the virtual clock is schedule-free.
  CostBatch cost_batch(std::uint64_t count) override {
    return metered(count, [&] {
      std::uint64_t failed = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t g = static_cast<std::uint32_t>(i % 2);
        if (!grounds_[g]->run([&](Runtime& rt) { return update(rt, g, nullptr).ok; })) ++failed;
      }
      return failed;
    });
  }

  WindowResult window(Clock::time_point deadline, std::vector<SpanLog>* logs) override {
    WindowResult per_ground[2];
    std::vector<std::pair<AddressSpace*, World::GroundFn>> jobs;
    for (std::uint32_t g = 0; g < 2; ++g) {
      jobs.emplace_back(grounds_[g], [&, g](Runtime& rt) {
        SpanLog* log = logs != nullptr ? &(*logs)[g] : nullptr;
        WindowResult& r = per_ground[g];
        auto now = Clock::now();
        while (now < deadline) {
          ++r.attempted;
          const Outcome o = update(rt, g, log);
          r.attempts += o.attempts;
          const auto end = Clock::now();
          if (o.ok) {
            r.session_us.push_back(elapsed_us(now, end));
          } else {
            ++r.failed;
          }
          now = end;
        }
      });
    }
    const auto start = Clock::now();
    world_->run_concurrent(jobs);
    WindowResult r = per_ground[0];
    r.merge(per_ground[1]);
    r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return r;
  }

  [[nodiscard]] std::uint64_t violations() override {
    return home_->run([&](Runtime&) {
      std::vector<std::int64_t> added(kTreeNodes, 0);
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::uint32_t h = 0; h < kHotNodes; ++h) added[hot_[h]] += commits_[h];
      }
      const std::vector<TreeNode*> nodes = tree_nodes(root_);
      std::uint64_t bad = 0;
      std::int64_t sum = 0;
      std::int64_t expected_sum = initial_tree_sum();
      for (std::uint32_t i = 0; i < kTreeNodes; ++i) {
        sum += nodes[i]->data;
        expected_sum += added[i];
        bad += report_mismatch(i, nodes[i]->data, static_cast<std::int64_t>(i) + added[i]);
      }
      return bad + static_cast<std::uint64_t>(std::llabs(sum - expected_sum));
    });
  }

  [[nodiscard]] std::size_t grounds() const override { return 2; }

 private:
  struct Outcome {
    bool ok = false;
    std::uint64_t attempts = 0;
  };

  // One logical update by ground `g`: retries under a fresh session while
  // the home reports WB_CONFLICT, up to kMaxAttempts sessions.
  Outcome update(Runtime& rt, std::uint32_t g, SpanLog* log) {
    const std::uint64_t op = next_op_[g]++;
    const std::uint32_t h = picks_[g][op % kInputPool];
    const std::vector<std::uint32_t> path = path_to(hot_[h]);
    const std::uint64_t sid = (std::uint64_t{g} << 32) | op;  // span session id
    ScopedSpan root(log, "session", -1, sid);
    Outcome out;
    for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      ++out.attempts;
      std::optional<Session> s;
      {
        ScopedSpan span(log, "session.begin", root.id(), sid);
        open(s, rt);
      }
      TreeNode* node = nullptr;
      {
        ScopedSpan span(log, "session.call", root.id(), sid);
        auto r = s->call<TreeNode*>(home_->id(), "root");
        if (r.is_ok()) node = r.value();
      }
      if (node == nullptr) {
        (void)s->abort();
        return out;
      }
      {
        ScopedSpan span(log, "session.local", root.id(), sid);
        for (std::size_t d = 1; d < path.size(); ++d) {
          node = path[d] == 2 * path[d - 1] + 1 ? node->left : node->right;
        }
        node->data += 1;
      }
      Status ended;
      {
        ScopedSpan span(log, "session.end", root.id(), sid);
        ended = s->end();
      }
      if (ended.is_ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++commits_[h];
        out.ok = true;
        return out;
      }
      (void)s->abort();
      if (ended.code() != StatusCode::kConflict) return out;
      // Lost the arbitration: back off so the winner's commit can close.
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 * std::min<std::uint32_t>(attempt + 1, 16)));
    }
    return out;
  }

  AddressSpace* home_ = nullptr;
  AddressSpace* grounds_[2] = {nullptr, nullptr};
  TreeNode* root_ = nullptr;
  std::uint32_t hot_[kHotNodes] = {};
  std::uint32_t picks_[2][kInputPool] = {};
  std::uint64_t next_op_[2] = {0, 0};
  std::mutex mu_;
  std::vector<std::int64_t> commits_;  // committed increments per hot node
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "call_chatty") return std::make_unique<CallChatty>();
  if (name == "tree_search") return std::make_unique<TreeSearch>();
  if (name == "tree_update") return std::make_unique<TreeUpdate>();
  if (name == "shared_home") return std::make_unique<SharedHome>();
  die("unknown workload '" + name + "'");
}

// --- replays -----------------------------------------------------------------
//
// Each replay times one layer's public functions from outside, on the
// workload's own tree and closure budget where the layer works on data. The
// results are per-operation samples; run.py reports their medians.

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Two-thread Mailbox ping-pong; one sample is half a round trip in µs.
std::vector<double> replay_mailbox(std::uint32_t rounds) {
  Mailbox ping, pong;
  std::thread echo([&] {
    for (std::uint32_t i = 0; i < rounds; ++i) {
      auto item = pong.pop();
      if (!item.is_ok()) return;
      ping.push(std::get<Message>(std::move(item).value())).check();
    }
  });
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::uint32_t i = 0; i < rounds; ++i) {
    Message m;
    m.type = MessageType::kCall;
    m.seq = i;
    const auto t0 = Clock::now();
    pong.push(std::move(m)).check();
    auto back = ping.pop();
    const auto t1 = Clock::now();
    back.status().check();
    samples.push_back(elapsed_us(t0, t1) / 2);
  }
  echo.join();
  return samples;
}

// First touch of a protected page, resolved through the FaultDispatcher by a
// handler that opens the page; one sample per fault in µs.
std::vector<double> replay_fault(std::uint32_t faults) {
  class OpenOnFault final : public FaultHandler {
   public:
    explicit OpenOnFault(PageArena& arena) : arena_(arena) {}
    bool on_fault(void* addr, FaultAccess) override {
      const PageIndex page = arena_.page_of(addr);
      return page != kInvalidPage &&
             arena_.protect(page, PageProtection::kReadWrite).is_ok();
    }

   private:
    PageArena& arena_;
  };
  auto arena_or = PageArena::create(64, 4096);
  arena_or.status().check();
  PageArena arena = std::move(arena_or).value();
  OpenOnFault handler(arena);
  FaultDispatcher::instance().register_range(arena.base(), arena.byte_size(), &handler).check();
  std::vector<double> samples;
  samples.reserve(faults);
  volatile std::uint8_t sink = 0;
  for (std::uint32_t i = 0; i < faults; ++i) {
    const auto page = static_cast<PageIndex>(i % arena.page_count());
    arena.protect(page, PageProtection::kNone).check();
    const auto t0 = Clock::now();
    sink = static_cast<std::uint8_t>(sink + arena.page_base(page)[i % 4096]);
    const auto t1 = Clock::now();
    samples.push_back(elapsed_us(t0, t1));
  }
  FaultDispatcher::instance().unregister_range(arena.base()).check();
  return samples;
}

// ObjectLockTable: one shared acquire, exclusive probe + upgrade and release
// per sample (ns), over the tree's node addresses.
std::vector<double> replay_locks(const std::vector<std::uint64_t>& addrs, std::uint64_t seed) {
  ObjectLockTable table;
  const ObjectLockTable::Unwoundable never = [](SessionId) { return false; };
  Rng rng(seed);
  std::vector<double> samples;
  const std::uint32_t rounds = 20000;
  samples.reserve(rounds / 100);
  auto t0 = Clock::now();
  for (std::uint32_t i = 1; i <= rounds; ++i) {
    const SessionId session = (SessionId{1} << 32) | i;
    const std::uint64_t addr = addrs[rng.next_below(addrs.size())];
    (void)table.acquire_shared(session, addr);
    if (table.exclusive_blocker(session, addr, never) == kNoSession) {
      (void)table.acquire_exclusive(session, addr, never);
    }
    table.release_session(session);
    if (i % 100 == 0) {
      const auto t1 = Clock::now();
      samples.push_back(elapsed_us(t0, t1) * 1000.0 / 100);
      t0 = t1;
    }
  }
  return samples;
}

// Decoder sink that lands every object in a private buffer of its local
// layout size. A deque keeps earlier objects in place while it grows.
class ScratchSink final : public GraphSink {
 public:
  ScratchSink(const LayoutEngine& layouts, const ArchModel& arch)
      : layouts_(layouts), arch_(arch) {}

  Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
    if (slots_.size() <= index) slots_.resize(index + 1);
    slots_[index].assign((layouts_.size_of(arch_, id.type) + 7) / 8, 0);  // 8-aligned
    return static_cast<void*>(slots_[index].data());
  }
  Result<std::uint64_t> address_of(std::uint32_t index) override {
    return reinterpret_cast<std::uint64_t>(slots_[index].data());
  }
  Result<std::uint64_t> swizzle(const LongPointer& target, TypeId) override {
    return target.address;  // never dereferenced
  }
  void reset() { slots_.clear(); }

 private:
  const LayoutEngine& layouts_;
  const ArchModel& arch_;
  std::deque<std::vector<std::uint64_t>> slots_;
};

struct Replays {
  std::vector<double> mailbox_us, fault_us, lock_ns;
  std::vector<double> lookup_ns, insert_ns, heap_alloc_ns;
  std::vector<double> pack_us, pack_objects, encode_us, decode_us, graph_bytes;
};

// Virtual-time split of a few sessions run with the program's own span
// recording on (CriticalPathAnalyzer over World::collect_spans()): the
// shares of network, home execution and lock wait in the session total.
struct VirtualSplit {
  double network = 0, execution = 0, lock = 0;
};

VirtualSplit critical_path_split(Workload& w, std::uint64_t sessions) {
  std::vector<SessionId> ids;
  w.session_ids = &ids;
  w.world().set_tracing(true);
  if (w.cost_batch(sessions).failed != 0) die("a program-traced session failed");
  w.world().set_tracing(false);
  w.session_ids = nullptr;
  const CriticalPathAnalyzer analyzer(w.world().collect_spans());
  double total = 0;
  VirtualSplit split;
  for (SessionId id : ids) {
    auto b = analyzer.analyze_session(id);
    if (!b.is_ok()) die("critical path: " + b.status().to_string());
    total += static_cast<double>(b.value().total_ns);
    split.network += static_cast<double>(b.value().network_ns);
    split.execution += static_cast<double>(b.value().execution_ns);
    split.lock += static_cast<double>(b.value().lock_wait_ns);
  }
  if (total > 0) {
    split.network /= total;
    split.execution /= total;
    split.lock /= total;
  }
  return split;
}

Replays run_replays(Workload& w, std::uint64_t seed) {
  Replays r;
  r.mailbox_us = replay_mailbox(2000);
  r.fault_us = replay_fault(2000);
  World& world = w.world();
  const TypeId node_type = world.registry().find_by_name("TreeNode").value();

  // ManagedHeap: a private heap of tree nodes; one sample per 256 allocations.
  {
    ManagedHeap heap(world.registry(), world.layouts(), host_arch(), 0);
    std::vector<void*> live;
    for (std::uint32_t round = 0; round < 16; ++round) {
      const auto t0 = Clock::now();
      for (std::uint32_t i = 0; i < 256; ++i) live.push_back(heap.allocate(node_type).value());
      r.heap_alloc_ns.push_back(elapsed_us(t0, Clock::now()) * 1000.0 / 256);
    }
    for (void* p : live) heap.free(p).check();
  }

  if (w.tree_root == nullptr) {
    std::vector<std::uint64_t> addrs(1024);
    for (std::size_t i = 0; i < addrs.size(); ++i) addrs[i] = 0x100000 + 64 * i;
    r.lock_ns = replay_locks(addrs, seed);
    return r;
  }

  w.tree_space->run([&](Runtime& rt) {
    const std::vector<TreeNode*> nodes = tree_nodes(w.tree_root);
    std::vector<std::uint64_t> addrs(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      addrs[i] = reinterpret_cast<std::uint64_t>(nodes[i]);
    }
    r.lock_ns = replay_locks(addrs, seed);

    // DataAllocationTable: every tree node swizzled onto cache-like slots
    // (the tree's 24-byte nodes packed into 4 KiB pages), then looked up in
    // seed-random order. One sample per full pass, ns per operation.
    const auto node_size = static_cast<std::uint32_t>(
        world.layouts().size_of(host_arch(), node_type));
    const std::uint32_t per_page = 4096 / node_size;
    const std::size_t pages = nodes.size() / per_page + 1;
    std::vector<std::uint8_t> slots(pages * 4096);
    std::vector<std::uint32_t> order(nodes.size());
    Rng rng(seed);
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    for (std::uint32_t pass = 0; pass < 3; ++pass) {
      DataAllocationTable table;
      auto t0 = Clock::now();
      for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        AllocationEntry e;
        e.pointer = LongPointer{rt.id(), addrs[i], node_type};
        e.page = i / per_page;
        e.offset = (i % per_page) * node_size;
        e.size = node_size;
        e.local = slots.data() + static_cast<std::size_t>(e.page) * 4096 + e.offset;
        table.insert(e).check();
      }
      auto t1 = Clock::now();
      r.insert_ns.push_back(elapsed_us(t0, t1) * 1000.0 / static_cast<double>(nodes.size()));
      std::uint64_t found = 0;
      for (std::uint32_t i : order) {
        found += table.find(LongPointer{rt.id(), addrs[i], node_type}) != nullptr ? 1 : 0;
      }
      r.lookup_ns.push_back(elapsed_us(t1, Clock::now()) * 1000.0 /
                            static_cast<double>(nodes.size()));
      if (found != nodes.size()) die("allocation table lost entries");
    }

    // ClosurePacker::pack at the world's closure budget from seed-chosen
    // nodes of the top eight levels (their subtrees outgrow the budget, as
    // at a fetch on a closure frontier), then encode_graph_payload and
    // decode_graph_payload of the packed objects.
    const std::uint64_t budget = world.options().cache.closure_bytes;
    const ClosurePacker packer(rt.codec(), rt.arch(), rt);
    ScratchSink sink(world.layouts(), rt.arch());
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint64_t roots[] = {addrs[rng.next_below(255)]};
      const auto t0 = Clock::now();
      auto packed = packer.pack(roots, budget, /*require_roots=*/true);
      const auto t1 = Clock::now();
      packed.status().check();
      r.pack_us.push_back(elapsed_us(t0, t1));
      r.pack_objects.push_back(static_cast<double>(packed.value().objects));
      for (const auto& [space, objects] : packed.value().groups) {
        ByteBuffer wire;
        const auto e0 = Clock::now();
        encode_graph_payload(rt.codec(), rt.arch(), space, objects, rt, wire).check();
        const auto e1 = Clock::now();
        sink.reset();
        wire.reset_cursor();
        decode_graph_payload(rt.codec(), rt.arch(), wire, sink).check();
        const auto e2 = Clock::now();
        r.encode_us.push_back(elapsed_us(e0, e1));
        r.decode_us.push_back(elapsed_us(e1, e2));
        r.graph_bytes.push_back(static_cast<double>(wire.size()));
      }
    }
    return 0;
  });
  return r;
}

// --- output ------------------------------------------------------------------

class Json {
 public:
  Json& key(const char* k) {
    out_ += first_ ? "" : ",";
    first_ = false;
    out_ += "\"";
    out_ += k;
    out_ += "\":";
    return *this;
  }
  Json& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    key(k);
    out_ += buf;
    return *this;
  }
  // Embeds a JSON value; newlines are dropped so the record stays one line.
  Json& raw(const char* k, const std::string& v) {
    key(k);
    for (char c : v) {
      if (c != '\n') out_.push_back(c);
    }
    return *this;
  }
  Json& str(const char* k, const std::string& v) { return raw(k, "\"" + v + "\""); }
  [[nodiscard]] std::string done() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
  bool first_ = true;
};

std::string net_json(const NetworkStats& s) {
  Json j;
  j.num("messages", static_cast<double>(s.messages));
  j.num("wire_bytes", static_cast<double>(s.wire_bytes));
  Json kinds;
  for (std::size_t t = 0; t < s.messages_by_type.size(); ++t) {
    if (s.messages_by_type[t] == 0) continue;
    const std::string name(to_string(static_cast<MessageType>(t)));
    kinds.num(name.c_str(), static_cast<double>(s.messages_by_type[t]));
  }
  j.raw("by_type", kinds.done());
  return j.done();
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) die("cannot write " + path);
  char buf[256];
  for (std::size_t g = 0; g < logs.size(); ++g) {
    for (const SpanLog::Span& s : logs[g].spans()) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"start_ns\":%.0f,\"end_ns\":%.0f,\"parent\":%d,"
                    "\"session\":%" PRIu64 ",\"ground\":%zu}\n",
                    s.name, s.start_ns, s.end_ns, s.parent, s.session, g);
      out << buf;
    }
  }
}

// Host CPU time stolen by the hypervisor (/proc/stat "steal") and all CPU
// time, in clock ticks since boot; their deltas show how much a timed
// window was disturbed from outside the machine.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

double steal_frac(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, starts afresh at exec, so the parent's footprint stays out.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  die("VmHWM missing from /proc/self/status");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool cost_batch = true;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--cost-batch") a.cost_batch = v != "0";
    else if (flag == "--spans") a.spans = v;
    else die("unknown flag " + flag);
  }
  if (a.workload.empty()) die("--workload is required");
  if (a.seconds <= 0) die("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Healthy-path WARN lines (for example one per WB_CONFLICT) must not shape
  // timings; conflicts are counted from the runtime's counters instead.
  set_log_level(LogLevel::kError);

  // One set-up per process: a second world built in the same process lands
  // its heap in memory the first one freed, and graph-payload sizes depend
  // on heap address layout, so cost-model figures would stop repeating.
  std::unique_ptr<Workload> w = make_workload(args.workload);
  const auto t0 = Clock::now();
  w->setup(args.seed);
  Json out;
  out.str("workload", args.workload);
  out.num("seed", static_cast<double>(args.seed));
  out.num("setup_s", std::chrono::duration<double>(Clock::now() - t0).count());
  CostBatch cost;
  if (args.cost_batch) {
    cost = w->cost_batch(w->cost_sessions());
    out.num("cost_virtual_ns", cost.virtual_ns);
    out.num("cost_wire_bytes", static_cast<double>(cost.wire_bytes));
    // Memory through set-up and the fixed-size cost batch; the timed
    // window's session count depends on speed, so it stays out of this.
    out.num("peak_rss_mb", peak_rss_mb());
  }
  out.num("cost_sessions", static_cast<double>(cost.sessions));

  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  WindowResult timed;
  const CpuTicks ticks0 = cpu_ticks();
  if (!args.trace) {
    timed = w->window(Clock::now() + seconds(args.seconds), nullptr);
    out.num("steal_frac", steal_frac(ticks0, cpu_ticks()));
  } else {
    // Untraced and traced blocks in ABBA order, so drift over the window
    // does not bias the tracing overhead; replays take the rest of the
    // time. The spans change nothing inside the program, so the World's
    // counters bracket all blocks and are divided by all their sessions.
    const char* const kBlocks = "UTTUUTTU";
    const double block = args.seconds * 0.8 / static_cast<double>(std::strlen(kBlocks));
    std::vector<SpanLog> logs(w->grounds());
    WindowResult untraced, traced;
    const std::string m0 = w->world().metrics_json();
    const NetworkStats n0 = w->world().net_stats();
    for (const char* b = kBlocks; *b != '\0'; ++b) {
      const bool on = *b == 'T';
      WindowResult r = w->window(Clock::now() + seconds(block), on ? &logs : nullptr);
      (on ? traced : untraced).merge(r);
      timed.merge(r);
      timed.seconds += r.seconds;
    }
    const NetworkStats n1 = w->world().net_stats();
    const std::string m1 = w->world().metrics_json();
    out.num("steal_frac", steal_frac(ticks0, cpu_ticks()));
    out.num("untraced_p50_us", percentile(untraced.session_us, 0.5));
    out.num("traced_p50_us", percentile(traced.session_us, 0.5));
    out.num("traced_committed", static_cast<double>(traced.session_us.size()));
    out.raw("metrics_before", m0).raw("metrics_after", m1);
    out.raw("net_before", net_json(n0)).raw("net_after", net_json(n1));
    if (!args.spans.empty()) write_spans(args.spans, logs);

    const Replays r = run_replays(*w, args.seed);
    out.num("mailbox_p50_us", percentile(r.mailbox_us, 0.5));
    out.num("mailbox_p99_us", percentile(r.mailbox_us, 0.99));
    out.num("fault_us", percentile(r.fault_us, 0.5));
    out.num("lock_ns", percentile(r.lock_ns, 0.5));
    out.num("heap_alloc_ns", percentile(r.heap_alloc_ns, 0.5));
    out.num("lookup_ns", percentile(r.lookup_ns, 0.5));
    out.num("insert_ns", percentile(r.insert_ns, 0.5));
    out.num("pack_us", percentile(r.pack_us, 0.5));
    out.num("objects_per_pack", percentile(r.pack_objects, 0.5));
    out.num("encode_us", percentile(r.encode_us, 0.5));
    out.num("decode_us", percentile(r.decode_us, 0.5));
    out.num("graph_bytes", percentile(r.graph_bytes, 0.5));
    const VirtualSplit split = critical_path_split(*w, 8);
    out.num("cp_network_frac", split.network);
    out.num("cp_execution_frac", split.execution);
    out.num("cp_lock_frac", split.lock);
  }

  const std::uint64_t violations = w->violations();
  out.num("window_s", timed.seconds);
  out.num("attempted", static_cast<double>(timed.attempted));
  out.num("failed", static_cast<double>(timed.failed + cost.failed));
  out.num("attempts", static_cast<double>(timed.attempts));
  out.num("committed", static_cast<double>(timed.session_us.size()));
  out.num("violations", static_cast<double>(violations));
  out.num("session_p50_us", percentile(timed.session_us, 0.5));
  out.num("session_p90_us", percentile(timed.session_us, 0.90));
  out.num("session_p99_us", percentile(timed.session_us, 0.99));
  std::printf("%s\n", out.done().c_str());
  std::fflush(stdout);
  return 0;
}
